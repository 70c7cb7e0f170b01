"""Batched pair, grid and point checks against the scalar loops they replace.

The verification suites evaluate their pair and grid checks in array
calls, and their point loops through stacked metric jets.  The per-pair
and per-point loops below are the earlier form of those checks, kept
verbatim as the reference: the batched suites must report the same
checks with the same verdicts and, up to rounding, the same observed
values.
"""

import math

import numpy as np
import pytest

from tubeke import (
    BoundaryClass,
    Point,
    RegionClass,
    TangentPair,
    TubeParams,
    bis_extremes_from_jet,
    bisectional,
    bisectional_batch,
    boundary_limit_bis,
    einstein_residual,
    extremal_sectional_vector,
    metric_jet,
    origin_closed_forms,
    run_suite,
    sectional_max_from_jet,
    tensor_from_jet,
)
from tubeke import diagnostics
from tubeke import tube_geometry as geo
from tubeke.diagnostics import _ASYMPTOTIC_TOLS, CheckResult, _below, _close, _flag
from tubeke.metric_tensor import x_derivatives

EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# the scalar reference loops
# ---------------------------------------------------------------------------

def reference_boundary_limit(jet, v, w):
    g = jet.metric
    ip_vw = (g[0, 0] * v[0] * np.conjugate(w[0]) + g[0, 1] * v[0] * np.conjugate(w[1])
             + g[1, 0] * v[1] * np.conjugate(w[0]) + g[1, 1] * v[1] * np.conjugate(w[1]))
    ip_vv = (g[0, 0] * abs(v[0]) ** 2 + g[1, 1] * abs(v[1]) ** 2
             + 2.0 * (g[0, 1] * v[0] * np.conjugate(v[1])).real)
    ip_ww = (g[0, 0] * abs(w[0]) ** 2 + g[1, 1] * abs(w[1]) ** 2
             + 2.0 * (g[0, 1] * w[0] * np.conjugate(w[1])).real)
    return -1.0 - abs(ip_vw) ** 2 / (ip_vv * ip_ww)


def reference_random_points(params, rng, n, x_cap=0.99):
    p = params.p
    pts = []
    for _ in range(n):
        x = rng.uniform(-x_cap, x_cap)
        r = rng.uniform(0.2, 3.0)
        y1, y2 = rng.uniform(-2.0, 2.0, 2)
        z1 = complex((1.0 - r) / (4 * p), y1)
        z2 = complex(x * np.power(r, 1.0 / (2 * p)), y2)
        pts.append(Point(z1, z2))
    return pts


def reference_asymptotics(params, sol, rng):
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
    worst = 0.0
    for x in np.linspace(-0.99, 0.99, 41):
        h = 1e-5
        vals = sol.eval_f_derivs(x, 3)
        for k in (1, 2, 3):
            fd = (sol.eval_f_derivs(x + h, k - 1)[k - 1]
                  - sol.eval_f_derivs(x - h, k - 1)[k - 1]) / (2.0 * h)
            if abs(vals[k]) > 1e-6:
                worst = max(worst, abs(fd - vals[k]) / abs(vals[k]))
    checks.append(_below("derivs_match_finite_differences", worst, 1e-5))
    return checks


def reference_origin(params, sol, rng):
    p = params.p
    K = params.K_float
    checks = []
    origin = Point(0j, 0j)
    jet = metric_jet(sol, origin)
    f1_0 = sol.eval_f_derivs(0.0, 1)[1]
    f3_0 = sol.eval_f_derivs(0.0, 3)[3]
    closed = origin_closed_forms(params)
    checks.append(_close("g11_is_4pK", 4 * p * K, jet.metric[0, 0], 1e-10))
    checks.append(_close("g22_is_f1_over_4", f1_0 / 4.0, jet.metric[1, 1], 1e-12))
    checks.append(_below("g12_vanishes", abs(jet.metric[0, 1]), 1e-12))
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
    f0, _, f2_0 = sol.eval_f_derivs(0.0, 2)[:3]
    checks.append(_below("f_vanishes_at_0", abs(f0), 0.0))
    checks.append(_below("f2_vanishes_at_0", abs(f2_0), 0.0))
    ext = bis_extremes_from_jet(jet, tensor)
    checks.append(_close("bis_min_closed_form", float(closed.bis_min), ext.min, 1e-6))
    checks.append(_close("bis_max_closed_form", float(closed.bis_max), ext.max, 1e-6))
    sm, _ = sectional_max_from_jet(jet, tensor)
    checks.append(_close("sect_max_closed_form", float(closed.sect_max), sm, 1e-6))
    e1 = np.array([1.0, 0.0], complex)
    e2 = np.array([0.0, 1.0], complex)
    checks.append(_close("bis_e1_e1", float(closed.bis_min),
                         bisectional(sol, origin, TangentPair(v=e1, w=e1)), 1e-10))
    checks.append(_close("bis_e1_e2", float(closed.bis_max),
                         bisectional(sol, origin, TangentPair(v=e1, w=e2)), 1e-10))
    vstar = extremal_sectional_vector(sol)
    checks.append(_close("sect_at_balanced_vector", float(closed.sect_max),
                         bisectional(sol, origin, TangentPair(v=vstar, w=vstar)), 1e-9))
    vs = diagnostics._random_vectors(rng, 4000)
    values = bisectional_batch(sol, origin, vs[:2000], vs[2000:])
    violation = max(float(closed.bis_min) - values.min(),
                    values.max() - float(closed.bis_max), 0.0)
    checks.append(_below("random_pairs_respect_pinching", violation, 1e-9))
    return checks


def reference_invariance(params, sol, rng):
    p = params.p
    checks = []
    worst = 0.0
    for z in reference_random_points(params, rng, 334):
        x0 = geo.x_invariant(params, z)
        tau = geo.TubeAutomorphism(params=params, u=tuple(rng.uniform(-3, 3, 2)))
        dil = geo.TubeAutomorphism(params=params, lam=float(rng.uniform(0.2, 5.0)))
        flip = geo.TubeAutomorphism(params=params, flip=True)
        worst = max(worst,
                    abs(geo.x_invariant(params, geo.apply(tau, z)) - x0),
                    abs(geo.x_invariant(params, geo.apply(dil, z)) - x0),
                    abs(geo.x_invariant(params, geo.apply(flip, z)) + x0))
    checks.append(_below("x_invariant_along_orbits", worst, 1e-12))
    ok = True
    for z in reference_random_points(params, rng, 100):
        for a in (geo.TubeAutomorphism(params=params, u=(1.3, -0.4)),
                  geo.TubeAutomorphism(params=params, lam=0.35),
                  geo.TubeAutomorphism(params=params, lam=2.6),
                  geo.TubeAutomorphism(params=params, flip=True)):
            ok = ok and geo.in_domain(params, geo.apply(a, z))
    checks.append(_flag("generators_preserve_domain", ok))
    worst_norm = worst_jac = worst_pot = 0.0
    for z in reference_random_points(params, rng, 100):
        psi = geo.normalizing_automorphism(params, z)
        img = geo.apply(psi, z)
        x0 = geo.x_invariant(params, z)
        worst_norm = max(worst_norm, abs(img.z1), abs(img.z2 - x0))
        r = 1.0 - 4 * p * z.z1.real
        worst_jac = max(worst_jac,
                        abs(geo.jacobian_det(psi) - r ** (-(2 * p + 1) / (2 * p))))
        tab = x_derivatives(params, z, 0)
        g_z = sol.eval_F(tab.x_value) + tab.L()
        g_img = sol.eval_F(x0)
        shift = (2.0 / 3.0) * math.log(abs(geo.jacobian_det(psi)))
        worst_pot = max(worst_pot, abs(g_z - g_img - shift))
    checks.append(_below("normalization_sends_z_to_axis", worst_norm, 1e-12))
    checks.append(_below("jacobian_det_closed_form", worst_jac, 1e-12))
    checks.append(_below("potential_transformation", worst_pot, 1e-12))
    worst_g = 0.0
    for z in reference_random_points(params, rng, 20):
        psi = geo.normalizing_automorphism(params, z)
        jac = geo.jacobian(psi)
        g_here = metric_jet(sol, z).metric
        g_axis = metric_jet(sol, geo.apply(psi, z)).metric
        pulled = (jac.T @ g_axis @ np.conjugate(jac)).real
        worst_g = max(worst_g, float(np.max(np.abs(pulled - g_here))
                                     / np.max(np.abs(g_here))))
    checks.append(_below("metric_transformation_law", worst_g, 1e-8))
    exact = 0.0
    for z in reference_random_points(params, rng, 20):
        shifted = Point(z.z1 + 1j * rng.uniform(-5, 5), z.z2 + 1j * rng.uniform(-5, 5))
        j1, j2 = metric_jet(sol, z), metric_jet(sol, shifted)
        exact = max(exact, float(np.max(np.abs(j1.metric - j2.metric))),
                    max(abs(a - b) for a, b in zip(j1.d4, j2.d4)))
    checks.append(_below("jets_translation_invariant", exact, 0.0))
    worst_bis = worst_scale = worst_formula = worst_raw_formula = 0.0
    for z in reference_random_points(params, rng, 100):
        v, w = diagnostics._random_vectors(rng, 2)
        pair = TangentPair(v=v, w=w)
        raw = bisectional(sol, z, pair, normalize=False)
        normalized = bisectional(sol, z, pair, normalize=True)
        worst_bis = max(worst_bis, abs(raw - normalized) / abs(raw))
        c, d = rng.normal(size=2) + 1j * rng.normal(size=2)
        scaled = bisectional(sol, z, TangentPair(v=c * v, w=d * w))
        worst_scale = max(worst_scale, abs(scaled - normalized) / abs(normalized))
        direct = bisectional(sol, z, pair, formula="direct")
        worst_formula = max(worst_formula, abs(direct - normalized) / abs(normalized))
        raw_direct = bisectional(sol, z, pair, normalize=False, formula="direct")
        worst_raw_formula = max(worst_raw_formula, abs(raw_direct - raw) / abs(raw))
    checks.append(_below("bis_automorphism_invariance_rel", worst_bis, 1e-7))
    checks.append(_below("bis_scale_invariance_rel", worst_scale, 1e-10))
    checks.append(_below("bis_formula_agreement_rel", worst_formula, 1e-10))
    checks.append(_below("bis_raw_formula_agreement_rel", worst_raw_formula, 1e-10))
    return checks


def reference_boundary_limit_suite(params, sol, rng):
    checks = []
    vs = diagnostics._random_vectors(rng, 2000)
    E = {}
    for x in (0.9, 0.99, 0.999):
        z = Point(0j, complex(x))
        jet = metric_jet(sol, z)
        values = bisectional(sol, z, TangentPair(v=vs[::2], w=vs[1::2]))
        gap = 0.0
        for i in range(1000):
            gap = max(gap, abs(values[i] - reference_boundary_limit(jet, vs[2 * i], vs[2 * i + 1])))
        E[x] = gap
    checks.append(_below("E(0.9)", E[0.9], 1.0))
    checks.append(_below("E(0.99)", E[0.99], 0.1))
    checks.append(_below("E(0.999)", E[0.999], 0.05))
    increase = max(E[0.99] - E[0.9], E[0.999] - E[0.99])
    degenerate = max(E.values()) <= 1e-8
    checks.append(_flag("E_strictly_decreasing_or_noise_floor",
                        (increase < 0.0) or degenerate, increase))
    jet = metric_jet(sol, Point(0j, 0.4 + 0j))
    worst_range = 0.0
    for i in range(200):
        val = reference_boundary_limit(jet, vs[2 * i], vs[2 * i + 1])
        worst_range = max(worst_range, -2.0 - val, val - (-1.0), 0.0)
    checks.append(_below("limit_value_within_[-2,-1]", worst_range, 1e-12))
    v = vs[0]
    checks.append(_close("limit_at_parallel_pair", -2.0,
                         reference_boundary_limit(jet, v, v), 1e-12))
    g = jet.metric
    w = np.array([-np.conjugate(v[1]), np.conjugate(v[0])], complex)

    def ip_g(a, b):
        return (g[0, 0] * a[0] * np.conjugate(b[0]) + g[0, 1] * a[0] * np.conjugate(b[1])
                + g[1, 0] * a[1] * np.conjugate(b[0]) + g[1, 1] * a[1] * np.conjugate(b[1]))
    w = w - (ip_g(w, v) / ip_g(v, v)) * v
    checks.append(_close("limit_at_orthogonal_pair", -1.0,
                         reference_boundary_limit(jet, v, w), 1e-12))
    return checks


def reference_einstein(params, sol, rng):
    checks = []
    worst = max(einstein_residual(sol, z) for z in reference_random_points(params, rng, 100))
    checks.append(_below("einstein_residual_random_points", worst, 1e-8))
    checks.append(_below("einstein_residual_origin",
                         einstein_residual(sol, Point(0j, 0j)), 1e-12))
    p = params.p
    worst_det = worst_inv = 0.0
    pd_ok = True
    for z in reference_random_points(params, rng, 100):
        jet = metric_jet(sol, z)
        r = 1.0 - 4 * p * z.z1.real
        det_formula = sol.eval_Z(jet.x_value, 0)[0] / r ** (3.0 * params.K_float / p)
        worst_det = max(worst_det, abs(jet.det - det_formula) / det_formula)
        worst_inv = max(worst_inv, float(np.max(np.abs(
            jet.metric @ jet.inverse - np.eye(2)))))
        pd_ok = pd_ok and jet.metric[0, 0] > 0.0 and jet.det > 0.0
    checks.append(_below("det_matches_Z_over_r_power", worst_det, 1e-8))
    checks.append(_below("metric_inverse_identity", worst_inv, 1e-10))
    checks.append(_flag("metric_positive_definite", pd_ok))
    return checks


def reference_regions(params, sol, rng):
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
    worst_min, worst_max = 0.0, -math.inf
    for x in np.linspace(0.0, 1.0 - 1e-4, 100):
        jet = metric_jet(sol, Point(0j, complex(x)))
        tensor = tensor_from_jet(jet)
        ext = bis_extremes_from_jet(jet, tensor)
        worst_min = min(worst_min, ext.min)
        worst_max = max(worst_max, ext.max)
    checks.append(CheckResult("sweep_bis_min_bounded_below", -5.0, worst_min, 0.0,
                              worst_min >= -5.0))
    checks.append(CheckResult("sweep_bis_max_bounded_away_from_0", -0.1, worst_max, 0.0,
                              worst_max <= -0.1))
    return checks


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [0.4, 0.999])
def test_stacked_boundary_limit_matches_the_scalar_loop(sol_p2, x):
    rng = np.random.default_rng(11)
    vs = rng.normal(size=(2000, 2)) + 1j * rng.normal(size=(2000, 2))
    jet = metric_jet(sol_p2, Point(0j, complex(x)))
    batch = boundary_limit_bis(jet, TangentPair(v=vs[::2], w=vs[1::2]))
    loop = np.array([boundary_limit_bis(jet, TangentPair(v=vs[2 * i], w=vs[2 * i + 1]))
                     for i in range(1000)])
    assert np.max(np.abs(batch - loop)) <= 1e-15
    # the batch forms the Gram ratio in the g-orthonormal frame, within
    # 4 EPS (1 + kappa) of exact (test_boundary_limit_is_exact_to_rounding);
    # the gap to this raw-coordinate loop is the loop's own rounding, which
    # grows with cond(g) (0.23 cond(g) EPS at x = 0.4, 0.06 at 0.999)
    reference = np.array([reference_boundary_limit(jet, vs[2 * i], vs[2 * i + 1])
                          for i in range(1000)])
    assert np.max(np.abs(batch - reference)) <= np.linalg.cond(jet.metric) * EPS
    assert np.all((batch >= -2.0 - 1e-12) & (batch <= -1.0 + 1e-12))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_random_points_match_the_per_point_loop(p):
    params = TubeParams(p=p)
    for seed in range(3):
        rng_loop, rng_block = np.random.default_rng(seed), np.random.default_rng(seed)
        loop = np.array([z.as_reals() for z in reference_random_points(params, rng_loop, 334)])
        block = np.array(diagnostics._random_stack(params, rng_block, 334).as_reals()).T
        assert np.array_equal(block, loop)
        assert rng_block.random() == rng_loop.random()


@pytest.mark.parametrize("p", [1, 2, 3])
def test_batched_suites_report_the_scalar_loops_checks(p, sols, monkeypatch):
    sol, params = sols[p], TubeParams(p=p)
    batched = [run_suite("all", params, sol, seed=seed) for seed in range(5)]
    monkeypatch.setitem(diagnostics._SUITES, "asymptotics", reference_asymptotics)
    monkeypatch.setitem(diagnostics._SUITES, "invariance", reference_invariance)
    monkeypatch.setitem(diagnostics._SUITES, "boundary_limit", reference_boundary_limit_suite)
    monkeypatch.setitem(diagnostics._SUITES, "einstein", reference_einstein)
    monkeypatch.setitem(diagnostics._SUITES, "regions", reference_regions)
    for seed, new in enumerate(batched):
        old = run_suite("all", params, sol, seed=seed)
        assert [c.name for c in new.checks] == [c.name for c in old.checks]
        for a, b in zip(new.checks, old.checks):
            assert (a.tolerance, a.passed, a.expected) == (b.tolerance, b.passed, b.expected), a.name
            assert abs(a.observed - b.observed) <= 1e-12, (a.name, a.observed, b.observed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_invariance_block_draws_equal_the_per_point_draws(seed):
    loop, block = np.random.default_rng(seed), np.random.default_rng(seed)
    orbit = [(*loop.uniform(-3, 3, 2), float(loop.uniform(0.2, 5.0))) for _ in range(334)]
    shifts = [(loop.uniform(-5, 5), loop.uniform(-5, 5)) for _ in range(20)]
    pairs = []
    for _ in range(100):
        v, w = diagnostics._random_vectors(loop, 2)
        c, d = loop.normal(size=2) + 1j * loop.normal(size=2)
        pairs.append((v, w, c, d))
    u1, u2, lam = diagnostics._orbit_draws(block, 334)
    assert np.array_equal(np.column_stack([u1, u2, lam]), np.array(orbit))
    assert np.array_equal(np.column_stack(diagnostics._shift_draws(block, 20)), np.array(shifts))
    v, w, c, d = diagnostics._pair_draws(block, 100)
    for i, (vi, wi, ci, di) in enumerate(pairs):
        assert np.array_equal(v[i], vi) and np.array_equal(w[i], wi)
        assert c[i, 0] == ci and d[i, 0] == di
    assert block.random() == loop.random()


def test_invariance_suite_makes_no_per_point_scalar_calls(sol_p2, monkeypatch):
    """The invariance suite's point loops stay array calls.

    Its samples hold 20 to 334 points; scalar jets (metric_jet's and the
    curvature doors', all built by metric_tensor._jet), tensor_from_jet,
    apply and eval_F are each allowed a fixed handful of calls (the
    generators' images, the two potential lookups), far fewer than the
    smallest sample.
    """
    from tubeke import curvature, metric_tensor, potential_solver

    counts = {}

    def counted(name, fn, scalar=lambda *args: True):
        # jets and tensors also come for stacked points: count only the
        # single-point ones
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + scalar(*args)
            return fn(*args, **kwargs)
        return wrapper

    for name, holders, scalar in (
            ("_jet", (metric_tensor, curvature), lambda sol, z, tab: np.ndim(z.z1) == 0),
            ("tensor_from_jet", (curvature, diagnostics),
             lambda jet: not isinstance(jet.x_value, np.ndarray)),
            ("apply", (geo,), lambda *args: True)):
        wrapper = counted(name, getattr(holders[0], name), scalar)
        for holder in holders:
            monkeypatch.setattr(holder, name, wrapper)
    monkeypatch.setattr(potential_solver.PotentialSolution, "eval_F",
                        counted("eval_F", potential_solver.PotentialSolution.eval_F))
    report = run_suite("invariance", sol_p2.params, sol_p2, seed=3)
    assert report.overall
    assert counts.get("_jet", 0) == 0
    assert counts.get("tensor_from_jet", 0) == 0
    assert counts.get("apply", 0) <= 9
    assert counts.get("eval_F", 0) <= 2


@pytest.mark.parametrize("p", [1, 2, 3])
def test_origin_suite_reads_its_values_off_one_jet(p, sols):
    # the origin is its own axis point, so the jet the suite reuses is the
    # one bisectional and sectional evaluate there: the values are equal
    sol, params = sols[p], TubeParams(p=p)
    for seed in range(3):
        new = diagnostics._suite_origin(params, sol, np.random.default_rng(seed))
        old = reference_origin(params, sol, np.random.default_rng(seed))
        assert new == old


# scalar metric_jet calls and stacked passes (one per x_derivatives call
# on stacked points) of one run, whatever the sample sizes: the origin
# jet (bisectional and bisectional_batch build their axis jets without
# metric_jet or its tables); one order-2 pass over both
# einstein samples; one order-4 pass over boundary_limit's four axis points;
# and invariance's potential tables, metric-law pair, two translation stacks
# and joint here/there stack
JET_PASSES = {
    "origin": (1, 0),
    "einstein": (0, 1),
    "boundary_limit": (0, 1),
    "invariance": (0, 5),
}


@pytest.mark.parametrize("name", sorted(JET_PASSES))
def test_suites_evaluate_their_jets_in_a_fixed_number_of_passes(name, sol_p2, monkeypatch):
    from tubeke import curvature, metric_tensor

    counts = {}
    # which calls count: metric_jet on one point, x_derivatives on stacked points
    for fn, stacked in (("metric_jet", False), ("x_derivatives", True)):
        original = getattr(metric_tensor, fn)

        def wrapper(first, z, *args, _fn=fn, _stacked=stacked, _original=original):
            counts[_fn] += bool(np.ndim(z.z1)) == _stacked
            return _original(first, z, *args)
        for holder in (metric_tensor, curvature, diagnostics):
            if getattr(holder, fn, None) is original:
                monkeypatch.setattr(holder, fn, wrapper)
    for seed in range(2):
        counts.update(dict.fromkeys(("metric_jet", "x_derivatives"), 0))
        assert run_suite(name, sol_p2.params, sol_p2, seed=seed).overall
        assert tuple(counts.values()) == JET_PASSES[name], counts


@pytest.mark.parametrize("p", [1, 2, 3])
def test_raw_bis_is_taken_off_the_axis(p, sols):
    # the automorphism defect is rounding-sized (~1e-14 to 1e-13), below the
    # 1e-12 of the suite comparison; it is still the defect between two
    # different evaluations, so it is nonzero and of the reference's size
    sol, params = sols[p], TubeParams(p=p)
    name = "bis_automorphism_invariance_rel"
    for seed in range(3):
        new = {c.name: c.observed for c in diagnostics._suite_invariance(
            params, sol, np.random.default_rng(seed))}[name]
        old = {c.name: c.observed for c in reference_invariance(
            params, sol, np.random.default_rng(seed))}[name]
        assert old / 4.0 <= new <= 4.0 * old, (seed, new, old)
