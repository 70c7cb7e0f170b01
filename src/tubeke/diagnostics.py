"""Bundled verification suites with machine-readable reports.

Each suite turns a family of mathematical statements about the computed
metric — asymptotic laws, exact center values, automorphism invariance,
the Monge-Ampère closure, the boundary limit of the bisectional
curvature, and the pinching on the approach regions — into deterministic
threshold checks.  Sampling is seeded (default 0) and sample counts are
fixed, so reports are reproducible and diff-able in CI.

Tolerances fall in two classes: identities that hold to rounding error
get absolute thresholds near 1e-8..1e-12, while limit laws tested at
finite distance from the boundary get empirical thresholds pinned at
roughly 3x the observed residual across p = 1..3 (the underlying
statements are limits without stated rates).

Pair and grid checks are evaluated in batches, through the array forms of
the curvature formulas and the profile evaluators, and each suite
evaluates the jets its checks need once, in as few stacked passes as the
checks allow:

* einstein takes its residual sample and its metric sample (det, inverse,
  positivity) from one order-2 pass;
* boundary_limit takes its four axis points from one order-4 pass and
  their frame forms (the closed forms' M in the jet's frame) at once; E(x)
  sets the Bis of the pairs against the limit in the same frame, for the
  three x in one broadcast;
* invariance evaluates z and its axis image in one pass, for the metric
  law and for Bis, and reads the normalized and the scaled pairs off one
  frame form, the raw ones off z's; the translation check keeps two equal
  stacks, because it demands bit equality;
* origin reads its tensor, extremes and Bis values off the one origin
  jet, and calls bisectional and bisectional_batch once each, which
  covers those entry points end to end;
* the regions mini-sweep runs its jet, tensor and extremes once on the
  stacked axis points, as the axis sweep does.

The invariance suite is array-native throughout: its points are stacked
Points, the automorphisms carry array parameters, and its per-point random
draws come in one block per loop.  Single point queries get a MetricJet of
floats, and the stacked passes one of arrays.  The tests keep the scalar
loops these replace as the reference.

The limit-law suites (asymptotics, boundary_limit, regions, and so "all")
are refused for p > 5: their thresholds are pinned on p = 1..3, and from
p = 6 on asymptotics/deriv_laws_k2 fails on every seed.  origin, invariance
and einstein check identities and run at every p.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .params import SUITE_NAMES, TubeParams, as_seed
from .potential_solver import PotentialSolution
from . import tube_geometry as geo
from .tube_geometry import Point, RegionClass, BoundaryClass
from .metric_tensor import (
    MetricJet,
    _closure_residual,
    _matrix,
    _metric_pass,
    einstein_residual,
    metric_jet,
    x_derivatives,
)
from .curvature import (
    CurvatureTensor,
    TangentPair,
    _axis_form,
    _bis_direct,
    _bis_frame,
    _boundary_limit,
    _pull_to_axis,
    bis_extremes_from_jet,
    bisectional,
    bisectional_batch,
    bisectional_from_jet,
    extremal_sectional_vector,
    origin_closed_forms,
    sectional_max_from_jet,
    tensor_from_jet,
)

__all__ = ["CheckResult", "SuiteReport", "SUITE_NAMES", "run_suite"]

# empirical residuals of the limit laws at x = 1 - 10^-k, worst over
# p in {1,2,3}, are (k=2) 1.1e-2 / 3.4e-2 / 2.7e-4 / 1.1e-2 and shrink
# tenfold per k; thresholds sit ~3x above, except at k=4 where the looser
# f/Z/derivative numbers are kept aligned with the acceptance criteria
_ASYMPTOTIC_TOLS = {
    # k: (f-law, Z-law rel, derivative laws, F-law)
    2: (3.3e-2, 1.0e-1, 1.0e-3, 3.3e-2),
    3: (3.3e-3, 1.0e-2, 1.0e-5, 3.3e-3),
    4: (1.0e-2, 1.0e-2, 3.0e-2, 1.0e-3),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: float
    observed: float
    tolerance: float
    passed: bool

    def __post_init__(self):
        # numpy scalars sneak in through comparisons; keep reports JSON-ready
        object.__setattr__(self, "expected", float(self.expected))
        object.__setattr__(self, "observed", float(self.observed))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "passed", bool(self.passed))


@dataclass(frozen=True)
class SuiteReport:
    suite_name: str
    p: int
    seed: int
    checks: list = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite_name,
            "p": self.p,
            "seed": self.seed,
            "overall": self.overall,
            "checks": [
                {"name": c.name, "expected": c.expected, "observed": c.observed,
                 "tolerance": c.tolerance, "passed": c.passed}
                for c in self.checks
            ],
        }

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            out.append(f"[{tag}] {c.name}: expected={c.expected:.6g} "
                       f"observed={c.observed:.6g} tol={c.tolerance:.3g}")
        tag = "PASS" if self.overall else "FAIL"
        out.append(f"[{tag}] suite={self.suite_name} p={self.p} seed={self.seed} "
                   f"({sum(c.passed for c in self.checks)}/{len(self.checks)} checks)")
        return out


def _close(name, expected, observed, tol) -> CheckResult:
    """|observed - expected| <= tol."""
    return CheckResult(name, expected, observed, tol, abs(observed - expected) <= tol)


def _below(name, observed, tol) -> CheckResult:
    """observed <= tol (defect-style check, expected 0)."""
    return CheckResult(name, 0.0, observed, tol, observed <= tol)


def _flag(name, passed, observed=None) -> CheckResult:
    """Boolean check; observed defaults to 1.0 on pass, 0.0 on failure."""
    if observed is None:
        observed = 1.0 if passed else 0.0
    return CheckResult(name, 1.0, observed, 0.0, passed)


def _random_stack(params: TubeParams, rng, n, x_cap=0.99) -> Point:
    """Seeded in-domain points with |X| <= x_cap and varied depth/phase, stacked.

    The four uniforms (x, r, y1, y2) of every point come from one block,
    mapped with Generator.uniform's own low + (high - low) u, so the
    generator ends where drawing them point by point leaves it.  The root
    is x_invariant's (tube_geometry._root).
    """
    p = params.p
    u = rng.random((n, 4))
    xs = -x_cap + 2.0 * x_cap * u[:, 0]
    rs = 0.2 + (3.0 - 0.2) * u[:, 1]
    ys = -2.0 + 4.0 * u[:, 2:]
    z1 = geo._re1_at_depth(p, rs).astype(complex)
    z2 = (xs * geo._root(p, rs)).astype(complex)
    z1.imag, z2.imag = ys[:, 0], ys[:, 1]
    return Point(z1, z2)


def _random_vectors(rng, n):
    return rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))


# The invariance suite draws the per-point values of its loops in one block
# each.  Generator.uniform(low, high) is low + (high - low) u on the next
# double u, and normals are drawn one after another, so each block holds
# exactly the values that per-point draws give, and leaves the generator
# where they leave it.

def _orbit_draws(rng, n):
    """(u1, u2, lam) per point, as uniform(-3, 3, 2) then uniform(0.2, 5.0)."""
    u = rng.random((n, 3))
    return -3.0 + 6.0 * u[:, 0], -3.0 + 6.0 * u[:, 1], 0.2 + (5.0 - 0.2) * u[:, 2]


def _shift_draws(rng, n):
    """(s1, s2) per point, as two uniform(-5, 5) draws."""
    u = rng.random((n, 2))
    return -5.0 + 10.0 * u[:, 0], -5.0 + 10.0 * u[:, 1]


def _pair_draws(rng, n):
    """(v, w, c, d) per point, as _random_vectors(rng, 2) then
    normal(size=2) + 1j normal(size=2); v, w are (n, 2) rows, c, d (n, 1)."""
    g = rng.normal(size=(n, 12))
    vw = g[:, 0:4].reshape(n, 2, 2) + 1j * g[:, 4:8].reshape(n, 2, 2)
    cd = g[:, 8:10] + 1j * g[:, 10:12]
    return vw[:, 0], vw[:, 1], cd[:, :1], cd[:, 1:]


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------

def _suite_asymptotics(params, sol, rng):
    p = params.p
    checks = []
    f_near = sol.eval_f_derivs(1.0 - 1e-4, 0)[0]
    checks.append(CheckResult("f(1-1e-4)_exceeds_1e3", 1e3, f_near, 0.0, f_near > 1e3))
    for k, (tf, tz, td, tF) in _ASYMPTOTIC_TOLS.items():
        d = 10.0 ** -k
        x = 1.0 - d
        F = sol.eval_F(x)
        f, f1, f2, f3 = sol.eval_f_derivs(x, 3)
        Z = sol.eval_Z(x, 0)[0]
        target = (2 * p - 1) / 4.0
        checks.append(_below(f"f_law_k{k}", abs(f * d - 1.0), tf))
        checks.append(_below(f"Z_law_k{k}", abs(d**3 * Z - target) / target, tz))
        deriv_defect = max(abs(f1 * d**2 - 1.0), abs(f2 * d**3 / 2.0 - 1.0),
                           abs(f3 * d**4 / 6.0 - 1.0))
        checks.append(_below(f"deriv_laws_k{k}", deriv_defect, td))
        checks.append(_below(f"F_law_k{k}",
                             abs(F - math.log(1.0 / d) - math.log((2 * p - 1) / 4.0) / 3.0), tF))
    grid = np.linspace(0.0, 1.0 - 1e-4, 301)
    f1_grid = sol.eval_f_derivs(grid, 1)[1]
    checks.append(_flag("convexity_f1_positive", bool(np.all(f1_grid > 0.0)),
                        float(f1_grid.min())))
    xs = rng.uniform(0.0, 0.99, 50)
    even_defect = float(np.max(np.abs(sol.eval_F(-xs) - sol.eval_F(xs))))
    odd_defect = float(np.max(np.abs(sol.eval_f_derivs(-xs, 0)[0]
                                     + sol.eval_f_derivs(xs, 0)[0])))
    checks.append(_below("parity_F_even_exact", even_defect, 0.0))
    checks.append(_below("parity_f_odd_exact", odd_defect, 0.0))
    # derivative order k vs centered differences of order k-1
    grid = np.linspace(-0.99, 0.99, 41)
    h = 1e-5
    exact = np.array(sol.eval_f_derivs(grid, 3)[1:])
    fd = (np.array(sol.eval_f_derivs(grid + h, 2))
          - np.array(sol.eval_f_derivs(grid - h, 2))) / (2.0 * h)
    mask = np.abs(exact) > 1e-6
    worst = np.max(np.abs(fd - exact)[mask] / np.abs(exact[mask]), initial=0.0)
    checks.append(_below("derivs_match_finite_differences", worst, 1e-5))
    return checks


def _suite_origin(params, sol, rng):
    p = params.p
    K = params.K_float
    checks = []
    origin = Point(0j, 0j)
    jet = metric_jet(sol, origin)
    f0, f1_0, f2_0, f3_0 = sol.eval_f_derivs(0.0, 3)
    closed = origin_closed_forms(params)
    checks.append(_close("g11_is_4pK", 4 * p * K, jet.g[0], 1e-10))
    checks.append(_close("g22_is_f1_over_4", f1_0 / 4.0, jet.g[2], 1e-12))
    checks.append(_below("g12_vanishes", abs(jet.g[1]), 1e-12))
    tensor = tensor_from_jet(jet)
    scale1 = max(1.0, abs(float(closed.R1111)))
    checks.append(_below("R1111_closed_form",
                         abs(tensor.R1111 - float(closed.R1111)) / scale1, 1e-8))
    checks.append(_below("R1122_closed_form",
                         abs(tensor.R1122 - float(closed.R1122) * f1_0), 1e-8 * f1_0))
    checks.append(_below("R1212_closed_form",
                         abs(tensor.R1212 - float(closed.R1212) * f1_0), 1e-8 * f1_0))
    checks.append(_below("R2222_closed_form",
                         abs(tensor.R2222 - float(closed.R2222_coeff) * f1_0**2),
                         1e-8 * f1_0**2))
    checks.append(_below("R1112_vanishes", abs(tensor.R1112), 1e-10))
    checks.append(_below("R1222_vanishes", abs(tensor.R1222), 1e-10))
    checks.append(_below("f3_identity",
                         abs(f3_0 - float(closed.f3_coeff) * f1_0**2) / f1_0**2, 1e-8))
    checks.append(_below("f_vanishes_at_0", abs(f0), 0.0))
    checks.append(_below("f2_vanishes_at_0", abs(f2_0), 0.0))
    ext = bis_extremes_from_jet(jet, tensor)
    checks.append(_close("bis_min_closed_form", float(closed.bis_min), ext.min, 1e-6))
    checks.append(_close("bis_max_closed_form", float(closed.bis_max), ext.max, 1e-6))
    sm, _ = sectional_max_from_jet(jet, tensor)
    checks.append(_close("sect_max_closed_form", float(closed.sect_max), sm, 1e-6))
    e1 = np.array([1.0, 0.0], complex)
    e2 = np.array([0.0, 1.0], complex)
    # the origin is its own axis point, where bisectional's pull to the
    # axis is the identity: bis_e1_e2 and the balanced-vector value come
    # from this jet, while bis_e1_e1 and the pinching sample run the
    # public entry points end to end
    checks.append(_close("bis_e1_e1", float(closed.bis_min),
                         bisectional(sol, origin, TangentPair(v=e1, w=e1)), 1e-10))
    checks.append(_close("bis_e1_e2", float(closed.bis_max),
                         bisectional_from_jet(jet, tensor, TangentPair(v=e1, w=e2)), 1e-10))
    vstar = extremal_sectional_vector(sol)
    checks.append(_close("sect_at_balanced_vector", float(closed.sect_max),
                         bisectional_from_jet(jet, tensor, TangentPair(v=vstar, w=vstar)),
                         1e-9))
    vs = _random_vectors(rng, 4000)
    values = bisectional_batch(sol, origin, vs[:2000], vs[2000:])
    violation = max(float(closed.bis_min) - values.min(),
                    values.max() - float(closed.bis_max), 0.0)
    checks.append(_below("random_pairs_respect_pinching", violation, 1e-9))
    return checks


def _suite_invariance(params, sol, rng):
    p = params.p
    checks = []
    # orbit invariant under the generators (the axis flip negates X)
    z = _random_stack(params, rng, 334)
    u1, u2, lam = _orbit_draws(rng, 334)
    x0 = geo.x_invariant(params, z)
    tau = geo.TubeAutomorphism(params=params, u=(u1, u2))
    dil = geo.TubeAutomorphism(params=params, lam=lam)
    flip = geo.TubeAutomorphism(params=params, flip=True)
    worst = max(np.max(np.abs(geo.x_invariant(params, geo.apply(tau, z)) - x0)),
                np.max(np.abs(geo.x_invariant(params, geo.apply(dil, z)) - x0)),
                np.max(np.abs(geo.x_invariant(params, geo.apply(flip, z)) + x0)))
    checks.append(_below("x_invariant_along_orbits", worst, 1e-12))
    # the generators preserve the domain
    z = _random_stack(params, rng, 100)
    ok = all(np.all(geo.in_domain(params, geo.apply(a, z)))
             for a in (geo.TubeAutomorphism(params=params, u=(1.3, -0.4)),
                       geo.TubeAutomorphism(params=params, lam=0.35),
                       geo.TubeAutomorphism(params=params, lam=2.6),
                       geo.TubeAutomorphism(params=params, flip=True)))
    checks.append(_flag("generators_preserve_domain", ok))
    z = _random_stack(params, rng, 100)
    psi = geo.normalizing_automorphism(params, z)
    img = geo.apply(psi, z)
    x0 = geo.x_invariant(params, z)
    worst_norm = max(np.max(np.abs(img.z1)), np.max(np.abs(img.z2 - x0)))
    r = geo._depth(p, z.z1.real)
    det = geo.jacobian_det(psi)
    worst_jac = np.max(np.abs(det - r ** (-(2 * p + 1) / (2 * p))))
    # potential transformation: g = g∘psi + (2/3) ln|det Jac(psi)|
    tab = x_derivatives(params, z, 0)
    g_z = sol.eval_F(tab.x_value) + tab.L()
    g_img = sol.eval_F(x0)
    worst_pot = np.max(np.abs(g_z - g_img - (2.0 / 3.0) * np.log(np.abs(det))))
    checks.append(_below("normalization_sends_z_to_axis", worst_norm, 1e-12))
    checks.append(_below("jacobian_det_closed_form", worst_jac, 1e-12))
    checks.append(_below("potential_transformation", worst_pot, 1e-12))
    z = _random_stack(params, rng, 20)
    psi = geo.normalizing_automorphism(params, z)
    jac = geo.jacobian(psi)
    # z and its axis image in one order-2 pass
    _, metric, _ = _metric_pass(sol, _joined(z, geo.apply(psi, z)))
    g_here, g_axis = np.split(_matrix(*metric), 2)
    pulled = (np.swapaxes(jac, 1, 2) @ g_axis @ np.conjugate(jac)).real
    worst_g = np.max(np.max(np.abs(pulled - g_here), axis=(1, 2))
                     / np.max(np.abs(g_here), axis=(1, 2)))
    checks.append(_below("metric_transformation_law", worst_g, 1e-8))
    # jets depend only on (Re z1, Re z2); both stacks hold each point at
    # the same row, so equal inputs meet the same arithmetic
    z = _random_stack(params, rng, 20)
    s1, s2 = _shift_draws(rng, 20)
    shifted = Point(z.z1 + 1j * s1, z.z2 + 1j * s2)
    j1, j2 = metric_jet(sol, z), metric_jet(sol, shifted)
    exact = max(np.max(np.abs(np.array(a) - np.array(b)))
                for a, b in ((j1.g, j2.g), (j1.d3, j2.d3), (j1.d4, j2.d4)))
    checks.append(_below("jets_translation_invariant", exact, 0.0))
    # Bis at z in the raw jet's frame there, and on the axis orbit from
    # pushed vectors: normalized, scaled and direct share one axis jet, and
    # the 16-term sum reads the raw jet's tensor at z
    z = _random_stack(params, rng, 100)
    v, w, c, d = _pair_draws(rng, 100)
    v, w = v.T, w.T
    axis, (pv, pw, pcv, pdw) = _pull_to_axis(sol, z, geo._depth(p, z.z1.real),
                                              (v, w, c.T * v, d.T * w))
    # z and its axis points in one pass
    jet = metric_jet(sol, _joined(z, axis))
    here, there = _split(jet, tensor_from_jet(jet))
    on_axis = _axis_form(there[0])
    raw = _bis_frame(_axis_form(here[0]), v, w)
    normalized = _bis_frame(on_axis, pv, pw)
    scaled = _bis_frame(on_axis, pcv, pdw)
    direct = _bis_direct(*there, pv, pw)
    raw_direct = _bis_direct(*here, v, w)
    worst_bis = np.max(np.abs(raw - normalized) / np.abs(raw))
    worst_scale = np.max(np.abs(scaled - normalized) / np.abs(normalized))
    worst_formula = np.max(np.abs(direct - normalized) / np.abs(normalized))
    worst_raw_formula = np.max(np.abs(raw_direct - raw) / np.abs(raw))
    checks.append(_below("bis_automorphism_invariance_rel", worst_bis, 1e-7))
    checks.append(_below("bis_scale_invariance_rel", worst_scale, 1e-10))
    checks.append(_below("bis_formula_agreement_rel", worst_formula, 1e-10))
    checks.append(_below("bis_raw_formula_agreement_rel", worst_raw_formula, 1e-10))
    return checks


def _joined(*zs) -> Point:
    """One stacked Point holding the points of the stacked Points zs in turn."""
    return Point(np.concatenate([z.z1 for z in zs]), np.concatenate([z.z2 for z in zs]))


def _split(jet: MetricJet, tensor: CurvatureTensor):
    """The two equal halves of a stacked jet, each as (jet, tensor)."""
    n = np.size(jet.x_value) // 2
    return [(MetricJet(Point(jet.point.z1[rows], jet.point.z2[rows]), jet.x_value[rows],
                       *_rows((jet.g, jet.det, jet.d3, jet.d4, jet.profile), rows), jet.p),
             CurvatureTensor(*_rows(tuple(tensor.as_dict().values()), rows)))
            for rows in (slice(None, n), slice(n, None))]


def _rows(values: tuple, rows) -> tuple:
    """values[rows] of each array in a nested tuple, such as a frame form; floats stay."""
    return tuple(_rows(a, rows) if isinstance(a, tuple)
                 else a[rows] if isinstance(a, np.ndarray) else a for a in values)


def _suite_einstein(params, sol, rng):
    p = params.p
    n = 100
    # the residual sample and the metric sample in one order-2 pass
    z = _joined(_random_stack(params, rng, n), _random_stack(params, rng, n))
    tab, metric, F = _metric_pass(sol, z)
    checks = []
    # the residual comes for both samples; the check reads the first
    worst = np.max(_closure_residual(tab, metric, F)[:n])
    checks.append(_below("einstein_residual_random_points", worst, 1e-8))
    checks.append(_below("einstein_residual_origin",
                         einstein_residual(sol, Point(0j, 0j)), 1e-12))
    g11, g12, g22 = (g[n:] for g in metric)
    # det from the entries, not the jet's closure det: this checks the closure
    det = g11 * g22 - g12 * g12
    metrics = _matrix(g11, g12, g22)
    inverses = _matrix(g22 / det, -g12 / det, g11 / det)
    det_formula = sol.eval_Z(tab.x_value[n:], 0)[0] / tab.r[n:] ** (3.0 * params.K_float / p)
    worst_det = np.max(np.abs(det - det_formula) / det_formula)
    worst_inv = np.max(np.abs(metrics @ inverses - np.eye(2)))
    pd_ok = bool(np.all(g11 > 0.0) and np.all(det > 0.0))
    checks.append(_below("det_matches_Z_over_r_power", worst_det, 1e-8))
    checks.append(_below("metric_inverse_identity", worst_inv, 1e-10))
    checks.append(_flag("metric_positive_definite", pd_ok))
    return checks


def _suite_boundary_limit(params, sol, rng):
    checks = []
    vs = _random_vectors(rng, 2000)
    v, w = vs[::2].T, vs[1::2].T
    # one order-4 pass on the axis points and their frame forms: the
    # forms of the first three, as (3, 1) columns, broadcast against the
    # 1000 pairs, so row i of the gaps sets Bis at (0, x_i) against the
    # limit in the same frame; (0, 0.4) serves the limit-value checks
    xs = (0.9, 0.99, 0.999, 0.4)
    jet = metric_jet(sol, geo._on_axis(np.array(xs)))
    form = _axis_form(jet)
    near = _rows(form, np.s_[:3, None])
    gaps = _bis_frame(near, v, w) - _boundary_limit(near[0], v, w)
    E = dict(zip(xs, np.max(np.abs(gaps), axis=1).tolist()))
    checks.append(_below("E(0.9)", E[0.9], 1.0))
    checks.append(_below("E(0.99)", E[0.99], 0.1))
    checks.append(_below("E(0.999)", E[0.999], 0.05))
    # strict decrease toward the boundary; a metric of exactly constant
    # holomorphic curvature (p=1 is the complex ball) makes every E pure
    # rounding noise, in which case decrease is meaningless — accept a
    # uniform 1e-8 noise floor instead
    increase = max(E[0.99] - E[0.9], E[0.999] - E[0.99])
    degenerate = max(E.values()) <= 1e-8
    checks.append(_flag("E_strictly_decreasing_or_noise_floor",
                        (increase < 0.0) or degenerate, increase))
    frame, g = _rows(form[0], 3), jet.metric[3]
    values = _boundary_limit(frame, v[:, :200], w[:, :200])
    worst_range = max(float(np.max(-2.0 - values)), float(np.max(values + 1.0)), 0.0)
    checks.append(_below("limit_value_within_[-2,-1]", worst_range, 1e-12))
    v = vs[0]
    checks.append(_close("limit_at_parallel_pair", -2.0,
                         _boundary_limit(frame, v[:, None], v[:, None])[0], 1e-12))
    w = np.array([-np.conjugate(v[1]), np.conjugate(v[0])], complex)
    # make w exactly g-orthogonal to v via one Gram-Schmidt step
    def ip_g(a, b):
        return (g[0, 0] * a[0] * np.conjugate(b[0]) + g[0, 1] * a[0] * np.conjugate(b[1])
                + g[1, 0] * a[1] * np.conjugate(b[0]) + g[1, 1] * a[1] * np.conjugate(b[1]))
    w = w - (ip_g(w, v) / ip_g(v, v)) * v
    checks.append(_close("limit_at_orthogonal_pair", -1.0,
                         _boundary_limit(frame, v[:, None], w[:, None])[0], 1e-12))
    return checks


def _suite_regions(params, sol, rng):
    p = params.p
    checks = []
    checks.append(_flag("center_is_inner",
                        geo.region(params, Point(0j, 0j), 0.3) is RegionClass.INNER))
    eps = 0.01
    x_out = (1.0 - eps) ** (1.0 / (2 * p))
    checks.append(_flag("near_unit_X_is_outer",
                        geo.region(params, Point(0j, complex(x_out)), 2 * eps)
                        is RegionClass.OUTER))
    checks.append(_flag("vertex_is_weakly_pseudoconvex",
                        geo.classify_boundary(params, Point(1.0 / (4 * p) + 0j, 0j))
                        is BoundaryClass.WEAKLY_PSEUDOCONVEX))
    checks.append(_flag("unit_X_boundary_is_strictly_pseudoconvex",
                        geo.classify_boundary(params, Point(0j, 1.0 + 0j))
                        is BoundaryClass.STRICTLY_PSEUDOCONVEX))
    checks.append(_flag("center_is_not_boundary",
                        geo.classify_boundary(params, Point(0j, 0j))
                        is BoundaryClass.NOT_BOUNDARY))
    checks.append(_flag("axis_points_in_every_cone",
                        all(geo.in_cone(params, Point(complex(t), 0j), 0.05)
                            for t in np.linspace(-2.0, 1.0 / (4 * p) - 1e-9, 20))))
    # sampled cone points close enough to the vertex land in the inner
    # region: the aperture bound gives |X| <= tan(theta) (4p delta)^{1-1/(2p)}/(4p),
    # so delta below the radius solving that against alpha^{1/(2p)} suffices
    theta, alpha = 0.3, 0.2
    tan_t = math.tan(theta)
    radius = (4 * p * alpha ** (1.0 / (2 * p)) / tan_t) ** (2 * p / (2 * p - 1.0)) / (4 * p)
    radius = min(radius, 1.0 / (8 * p))
    all_inner = True
    for _ in range(100):
        delta = rng.uniform(0.0, radius) + 1e-12
        spread = rng.uniform(0.0, tan_t * delta)
        x2_cap = 0.9 * (4 * p * delta) ** (1.0 / (2 * p))
        x2 = min(0.5 * spread, x2_cap)
        rest = math.sqrt(max(spread**2 - x2**2, 0.0))
        phi = rng.uniform(0.0, 2 * math.pi)
        z = Point(complex(1.0 / (4 * p) - delta, rest * math.cos(phi)),
                  complex(x2, rest * math.sin(phi)))
        if not geo.in_cone(params, z, theta):
            continue
        all_inner = all_inner and (geo.region(params, z, alpha) is RegionClass.INNER)
    checks.append(_flag("cone_points_near_vertex_are_inner", all_inner))
    # pinching over a light axis sweep (the full 500-row version lives in
    # the acceptance tests)
    xs = np.linspace(0.0, 1.0 - 1e-4, 100)
    jet = metric_jet(sol, geo._on_axis(xs))
    ext = bis_extremes_from_jet(jet, tensor_from_jet(jet))
    worst_min, worst_max = min(0.0, float(ext.min.min())), float(ext.max.max())
    checks.append(CheckResult("sweep_bis_min_bounded_below", -5.0, worst_min, 0.0,
                              worst_min >= -5.0))
    checks.append(CheckResult("sweep_bis_max_bounded_away_from_0", -0.1, worst_max, 0.0,
                              worst_max <= -0.1))
    return checks


_P_LIMIT_LAWS = 5   # the largest p the limit-law suites run for (module docstring)
_LIMIT_LAW_SUITES = ("asymptotics", "boundary_limit", "regions")

# suite NAME is _suite_NAME; bench/tracer.py rebinds the entries of this dict
_SUITES = {name: globals()[f"_suite_{name}"] for name in SUITE_NAMES}


def _suite_names(name: str, p: int) -> tuple:
    """The suites that name runs, in order, or a ValueError for an unknown name or too large a p."""
    if name != "all" and name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of "
                         f"{', '.join(SUITE_NAMES)} or 'all'")
    if p > _P_LIMIT_LAWS and (name == "all" or name in _LIMIT_LAW_SUITES):
        raise ValueError(f"suite {name!r} runs for p = 1..{_P_LIMIT_LAWS}, got p = {p}: "
                         f"{', '.join(_LIMIT_LAW_SUITES)} check limit laws pinned on p = 1..3; "
                         f"origin, invariance and einstein run at every p")
    return SUITE_NAMES if name == "all" else (name,)


def run_suite(name: str, params: TubeParams, sol: PotentialSolution,
              seed: int = 0, timings: dict | None = None) -> SuiteReport:
    """Run one named verification suite (or "all") against a solution.

    Parameters
    ----------
    name : str
        One of asymptotics, origin, invariance, einstein, boundary_limit,
        regions, or "all" for their concatenation.  For p > 5 only
        origin, invariance and einstein run; the others, and "all", raise
        ValueError (module docstring).
    params : TubeParams
        Must agree with sol.params (passed separately so a report is
        explicit about what it certified).
    sol : PotentialSolution
    seed : int
        Seed of the reproducible sampling, a non-negative integer (bools
        refused); recorded in the report as a Python int.
    timings : dict, optional
        If given, receives the wall seconds of each suite run, by name.

    Returns
    -------
    SuiteReport
    """
    if params.p != sol.params.p:
        raise ValueError(f"params p={params.p} does not match solution p={sol.params.p}")
    seed = as_seed(seed)
    checks = []
    for sub in _suite_names(name, params.p):
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        found = _SUITES[sub](params, sol, rng)
        if timings is not None:
            timings[sub] = time.perf_counter() - start
        if name == "all":
            found = [CheckResult(f"{sub}/{c.name}", c.expected, c.observed,
                                 c.tolerance, c.passed) for c in found]
        checks.extend(found)
    return SuiteReport(suite_name=name, p=params.p, seed=seed, checks=checks)
