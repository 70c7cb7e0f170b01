"""Curvature tensor, bisectional/sectional curvatures and their extremes.

The curvature coefficients at a point follow from the metric jet as

    R_{i jbar k lbar} = -g_{i jbar k lbar}
                        + sum_{a,b} g_{i k abar} g^{abar b} g_{b jbar lbar},

all real, with the symmetries i<->k, j<->l and pair exchange leaving six
independent values.  Bisectional curvature is evaluated in the
g-orthonormal frame e1 = (alpha, beta), e2 = (0, gamma): alpha =
sqrt(g22/det g), beta = -alpha g12/g22, gamma = 1/sqrt(g22), det g the
jet's closure value (MetricJet.det).  With a g-unit v written through its
Bloch vector n in the frame (v v* = (I + n.sigma)/2), real coefficients give

    Bis(v, w) = a + b.(n + m) + n^T M m,   b_y = M_xy = M_yz = 0,

and every Bis value and the extremes are read off this form.  The Einstein
condition Ric = -3g fixes a = -3/2, b = 0 and tr M = -3/2, and M is read
off closed forms at the point's X (below), so a tube-formula Bis needs no
curvature tensor.  The boundary limit reads the same frame.  The classical
16-term curvature sum is kept as an independent cross-check path; it alone
reads the jet's tensor.  The tensor formula, the frame form, the 16-term
sum and the extremes serve single points and 1-d stacks (a MetricJet of
arrays) through one arithmetic: tensor_from_jet, bis_extremes,
sectional_max and the *_from_jet forms give arrays at stacked points.

Tangent vectors come as a TangentPair: one pair, v and w of shape (2,), or
n stacked pairs, v and w of shape (n, 2).  The three doors that take one,
bisectional, bisectional_from_jet and boundary_limit_bis, apply one
broadcast rule.  A single point takes one pair (the value is a float) or n
pairs (an array of n values).  n stacked points take one pair, which goes
with every point, or n pairs, row i with point i (an array of n values).
Any other count raises ValueError naming both.  A sectional curvature is
the pair TangentPair(v=v, w=v).

M splits into a 1x1 and a 2x2 block with closed-form eigenpairs.  The
reported values are the reduced bis_min/max = -3/2 -+ max|lambda| and
sect_max = -3/2 + max lambda.  Every frame component of R on the axis
(0, X) is a ratio of polynomials in s = f^2/Z and u = Xf
(_axis_components; tools/derive_axis_curvature.py derives them with p
symbolic), a = -3/2 and b = 0 hold identically, and the frame components
at any point equal those at its axis point (see _reduced_form).  The
defect reported is |Q1111 + Q1122 + 3|, at rounding level, and Bis values
and extremes answer up to the grid end: for p = 1 within 1e-8 of the
ball's (-2, -1, -2).  The extremes' pairs attain them at the pair doors to
rounding.

The frame and the closed forms use only +, -, *, / and sqrt,
and X has one pow for floats and arrays, so stacked extremes equal the
single point's bit for bit.  One pair at one point stays in Python complex
and float from the pull to the sum, in every mode; stacked points or pairs
take numpy columns through the same arithmetic.  The pull takes numpy's
pow for lam^{1/(2p)} on both paths, as X does, the binade scale is an exact
power of two, and Python's complex times a float rounds as numpy's does,
so the pushed vectors and their Bloch vectors agree and bisectional
(normalized, tube) at stacked points equals the single point's bit for
bit.  So does the raw jet (metric_tensor), and with it raw
(normalize=False) tube Bis and the extremes of a raw stacked jet, and so
does formula="direct", whose 16-term sum is formed from real parts in one
order on both paths.

Each door builds only the jet entries it reads.  The tube formula and the
extremes read g, det and (f, f'), so bisectional (tube, either mode),
bis_extremes and sectional_max build an order-2 jet and no tensor; on the
axis that jet comes from per-p constants with no admission, pow or log
(metric_tensor._axis_jet), with metric_jet's bits.  formula="direct" alone
builds the order-4 jet and its tensor.  The *_from_jet extremes make one
closed-form evaluation per (jet, tensor): a tensor keeps the reduced form
(frame, eigenpairs, defect) of the last jet it was evaluated with, so
sectional_max_from_jet after bis_extremes_from_jet evaluates nothing again.
They read the tensor for nothing else, and a tensor of None keeps nothing.
bis_extremes_from_jet computes the values alone, and BisExtremes builds its
attaining pairs from the frame and eigenpairs when they are first read.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .params import TubeParams
from .potential_solver import PotentialSolution
from .errors import DomainError
from .tube_geometry import Point, _all, _first, _first_point, _orbit_x, require_domain
from .metric_tensor import MetricJet, _admitted_tables, _axis_jet, _four_z, _jet
from ._axis_coefficients import NUMERATORS

__all__ = [
    "CurvatureTensor",
    "TangentPair",
    "BisExtremes",
    "tensor_from_jet",
    "bisectional",
    "bisectional_from_jet",
    "bisectional_batch",
    "bis_extremes",
    "bis_extremes_from_jet",
    "sectional_max",
    "sectional_max_from_jet",
    "boundary_limit_bis",
    "origin_closed_forms",
    "OriginValues",
    "extremal_sectional_vector",
]

_IDX = (1, 2)
_LD_ONE = np.longdouble(1.0)


@dataclass(frozen=True)
class CurvatureTensor:
    """The six independent curvature coefficients at a point.

    Naming follows the index pattern (i, jbar, k, lbar); every other
    coefficient is reached through the symmetries
    R(i,j,k,l) = R(k,j,i,l) = R(i,l,k,j) = R(j,i,l,k).
    """

    R1111: float
    R1112: float
    R1122: float
    R1212: float
    R1222: float
    R2222: float

    def coeff(self, i: int, j: int, k: int, l: int) -> float:
        """Coefficient R_{i jbar k lbar} for arbitrary indices in {1, 2}."""
        ones = (i, j, k, l).count(1)
        if ones == 4:
            return self.R1111
        if ones == 3:
            return self.R1112
        if ones == 1:
            return self.R1222
        if ones == 0:
            return self.R2222
        # two of each: like-slot pairs give R1212, crossed pairs R1122
        return self.R1212 if i == k else self.R1122

    def as_dict(self) -> dict:
        return {
            "R1111": self.R1111, "R1112": self.R1112, "R1122": self.R1122,
            "R1212": self.R1212, "R1222": self.R1222, "R2222": self.R2222,
        }


@dataclass(frozen=True)
class TangentPair:
    """One pair of tangent vectors, v and w of shape (2,), or n pairs as (n, 2) rows.

    The only validator of tangent vectors: v and w must have one shape,
    (2,) or (n, 2) with n >= 0, and every vector must be finite and
    nonzero, or ValueError.  Both are stored as read-only complex copies,
    so a later write to the caller's arrays cannot undo the checks.
    """

    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        v = np.array(self.v, dtype=complex)
        w = np.array(self.w, dtype=complex)
        if v.shape != w.shape or v.shape[-1:] != (2,) or v.ndim > 2:
            raise ValueError(f"tangent vectors must be one pair of shape (2,) or n pairs "
                             f"of shape (n, 2), alike for v and w; got {v.shape} and {w.shape}")
        if v.ndim == 1:
            # checked on Python complex entries: numpy reductions over two
            # length-2 arrays would cost most of the construction
            (v0, v1), (w0, w1) = v.tolist(), w.tolist()
            finite = all(map(cmath.isfinite, (v0, v1, w0, w1)))
            zero = (v0 == 0 and v1 == 0) or (w0 == 0 and w1 == 0)
        else:
            both = np.stack([v, w])
            finite, zero = np.isfinite(both).all(), (both == 0).all(axis=-1).any()
        if not finite:
            raise ValueError("tangent vectors must be finite")
        if zero:
            raise ValueError("tangent vectors must be nonzero")
        v.flags.writeable = w.flags.writeable = False
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class BisExtremes:
    """Extremal Bis, the closed forms' Einstein defect (see above) and the attaining pairs.

    The values come from the one closed-form evaluation of their (jet,
    tensor); argmin and argmax are TangentPairs built from the frame and
    eigenpairs kept here on first read, then kept.  Stacked points give
    arrays, and pairs of (n, 2) rows.
    """

    min: float
    max: float
    einstein_defect: float
    _form: tuple = field(repr=False, compare=False)   # (frame, eigenpairs of M)

    @property
    def argmin(self):
        return self._extremizers[0]

    @property
    def argmax(self):
        return self._extremizers[1]

    @cached_property
    def _extremizers(self) -> tuple:
        """(argmin, argmax): n^T M u = lam n.u is lam at n = u, -lam at n = -u."""
        frame, pairs = self._form
        lam, u = _largest(pairs, abs)
        m = _spinor_vector(frame, u)
        flipped = _spinor_vector(frame, tuple(-c for c in u))
        below = lam < 0.0
        if isinstance(below, np.ndarray):
            below = below[:, None]
        return (TangentPair(v=_pick(below, m, flipped), w=m),
                TangentPair(v=_pick(below, flipped, m), w=m))


# ---------------------------------------------------------------------------
# tensor assembly
# ---------------------------------------------------------------------------

def _tensor(g11, g12, g22, d3, d4) -> CurvatureTensor:
    """The six coefficients from 3 metric, 4 d3 and 5 d4 values.

    d3[m] and d4[m] are the third and fourth metric derivatives with m
    indices of z1 type; every other index word of the same count has the
    same value.  Floats give a tensor of floats, arrays over stacked
    points a tensor of arrays, through the same arithmetic.

    d3 g^{-1} d3 cancels against d4 near the boundary (by 1e4 at
    |x| = 0.99), so it runs in np.longdouble and each coefficient rounds
    once to a double: in doubles each kept 5e-14 relative error there,
    which the tensor's frame split (tests/conftest.py) and the 16-term
    sum amplified to 2e-9.
    """
    double = (lambda v: v.astype(float)) if isinstance(g11, np.ndarray) and g11.ndim else float
    g11, g12, g22 = (_LD_ONE * v for v in (g11, g12, g22))
    d3 = [_LD_ONE * v for v in d3]
    # R takes the inverse of the computed g: the jet's closure det triples its error
    det = g11 * g22 - g12 * g12
    # adj(g) d3 for the column (d3[m + 1], d3[m]) of each count m
    u = [g22 * d3[m + 1] - g12 * d3[m] for m in range(3)]
    w = [g11 * d3[m] - g12 * d3[m + 1] for m in range(3)]

    def R(i, j, k, l):
        ik, jl = (i == 1) + (k == 1), (j == 1) + (l == 1)
        return double((d3[ik + 1] * u[jl] + d3[ik] * w[jl]) / det - d4[ik + jl])

    return CurvatureTensor(
        R1111=R(1, 1, 1, 1), R1112=R(1, 1, 1, 2), R1122=R(1, 1, 2, 2),
        R1212=R(1, 2, 1, 2), R1222=R(1, 2, 2, 2), R2222=R(2, 2, 2, 2),
    )


def tensor_from_jet(jet: MetricJet) -> CurvatureTensor:
    """Curvature coefficients from a metric jet (arrays for stacked points)."""
    return _tensor(*jet.g, jet.d3, jet.d4)


# ---------------------------------------------------------------------------
# bisectional / sectional values
# ---------------------------------------------------------------------------

# the 16 terms (i, j, k, l) of the direct sum in its order, as (P index, Q index,
# coefficient index): u_i conj(u_j) is entry 2(i - 1) + (j - 1) of _outer_parts, and
# the count class of R_{i jbar k lbar} is read off coeff at a tensor that holds the
# field numbers 0..5 as its coefficients
_DIRECT_TERMS = tuple((2 * i + j - 3, 2 * k + l - 3, CurvatureTensor(*range(6)).coeff(i, j, k, l))
                      for i in _IDX for j in _IDX for k in _IDX for l in _IDX)


def _bis_direct(jet, tensor: CurvatureTensor, v, w) -> float:
    """Classical 16-term curvature sum; independent cross-check path.

    v and w are vectors of two Python complex, or (2, n) columns of them
    with a stacked jet.  The sum of R_{i jbar k lbar} v_i conj(v_j) w_k
    conj(w_l) is real: its 16 terms, in (i, j, k, l) order, are
    R Re(P_ij Q_kl) with P_ij = v_i conj(v_j) and Q_kl = w_k conj(w_l), all
    formed from real parts (numpy's complex product may fuse a multiply-add
    where Python's does not), so a stacked row equals the single call bit
    for bit.  Each term's R is read off the count-class table _DIRECT_TERMS.
    """
    P, Q = _outer_parts(v), _outer_parts(w)
    R = (tensor.R1111, tensor.R1112, tensor.R1122, tensor.R1212, tensor.R1222, tensor.R2222)
    num = 0.0
    for ij, kl, c in _DIRECT_TERMS:
        (pr, pi), (qr, qi) = P[ij], Q[kl]
        num = num + R[c] * (pr * qr - pi * qi)
    g11, g12, g22 = jet.g

    def sq_norm(U):
        return g11 * U[0][0] + g22 * U[3][0] + 2.0 * (g12 * U[1][0])

    return num / (sq_norm(P) * sq_norm(Q))


def _outer_parts(u) -> tuple:
    """(Re, Im) of u_i conj(u_j) at entry 2(i - 1) + (j - 1), of a vector or (2, n) columns."""
    a, b, c, d = u[0].real, u[0].imag, u[1].real, u[1].imag
    re, im = a * c + b * d, b * c - a * d   # u_1 conj(u_2)
    return (a * a + b * b, 0.0), (re, im), (re, -im), (c * c + d * d, 0.0)


def _columns(pair: TangentPair, stack) -> tuple:
    """The pair by the module's broadcast rule: one vector each, or (2, k) columns.

    stack is a coordinate or X of the points: a scalar for one point, an
    array for stacked points.  One pair at one point gives two lists of
    two Python complex; one pair at stacked points (2, 1) columns, which
    go with every point; n pairs (2, n) columns.
    """
    v, w = pair.v, pair.w
    if v.ndim == 2:
        if isinstance(stack, np.ndarray) and len(v) != len(stack):
            raise ValueError(f"{len(v)} vector pairs cannot go with {len(stack)} stacked "
                             f"points: give one pair, or one pair per point")
        return v.T, w.T
    if isinstance(stack, np.ndarray):
        return v[:, None], w[:, None]
    return v.tolist(), w.tolist()


def _pull_to_axis(sol: PotentialSolution, z: Point, r, vectors):
    """Axis representative (0, X(z)) and the push-forwards of the vectors, for z of depth r.

    The normalizing automorphism has the diagonal Jacobian
    diag(lam, lam^{1/(2p)}) with lam = 1/r, r = 1 - Re(4p z1); bisectional
    curvature is invariant under it, so evaluating on the axis loses
    nothing and keeps the potential evaluators at their best-conditioned
    abscissa.  The vectors come as _columns gives them, and lists are
    pushed to lists in Python arithmetic, columns by numpy.  A point whose
    depth r overflows (lam = 0) is refused.  Each vector is _binade_scaled
    before the push, so that a subnormal one is pushed at full precision.
    lam^{1/(2p)} is numpy's pow for one point and for stacked points alike,
    as X is.
    """
    lam = 1.0 / r
    x = _orbit_x(sol.params, z, r)
    ok = lam > 0.0
    if not _all(ok):
        raise DomainError(f"point {_first_point(z, ok)} is too deep to pull tangent "
                          f"vectors to the axis: 1 - Re(4p z1) overflows")
    j2 = np.power(lam, 1.0 / (2 * sol.params.p))
    scaled = map(_binade_scaled, vectors)
    if isinstance(vectors[0], list):
        j2 = float(j2)
        return _on_axis(x), [[lam * a, j2 * b] for a, b in scaled]
    return _on_axis(x), [np.array([lam * u[0], j2 * u[1]]) for u in scaled]


def _on_axis(x) -> Point:
    """The axis point (0, x), or the stacked axis points of an array x."""
    if isinstance(x, np.ndarray) and x.ndim:
        return Point(np.zeros(x.shape, dtype=complex), x.astype(complex))
    return Point(0j, complex(x))


_MIN_NORMAL = sys.float_info.min
_SUBNORMAL_LIFT = 2.0 ** 64


def _binade_scaled(u):
    """u times the power of two that brings its largest real or imaginary part into [0.5, 1).

    u is one vector, a list of two Python complex scaled by math.frexp and
    ldexp, or vectors stacked as the columns of a (2, n) array, each scaled
    by its own power.  Bis and the boundary limit are invariant under
    rescaling each vector, and the scale is exact in floating point; it
    keeps squares of entries far from 1 from over- or underflowing, as in
    the pushed vectors of deep points (lam -> 0, where lam and lam^{1/(2p)}
    part by hundreds of decades).  The scale is read off the parts, not
    the moduli: a finite entry's modulus can overflow, as |1.7e308 (1 + i)|
    does.  A vector whose largest part is subnormal, where 2^{-e} can
    overflow, is first lifted by 2^64, exactly.
    """
    if isinstance(u, list):
        a, b = u
        m = max(abs(a.real), abs(a.imag), abs(b.real), abs(b.imag))
        if m < _MIN_NORMAL:
            return _binade_scaled([a * _SUBNORMAL_LIFT, b * _SUBNORMAL_LIFT])
        scale = math.ldexp(1.0, -math.frexp(m)[1])
        return [a * scale, b * scale]
    m = np.maximum(np.abs(u.real), np.abs(u.imag)).max(axis=0)
    tiny = m < _MIN_NORMAL
    if tiny.any():
        u = u.copy()
        u[:, tiny] *= _SUBNORMAL_LIFT
        return _binade_scaled(u)
    return u * np.ldexp(1.0, -np.frexp(m)[1])


def bisectional(sol: PotentialSolution, z: Point, pair: TangentPair,
                *, normalize: bool = True, formula: str = "tube"):
    """Holomorphic bisectional curvature Bis_z(v, w); Bis_z(v, v) is the sectional one.

    Parameters
    ----------
    sol, z, pair
        Solved potential, evaluation point in T_p (single or stacked), and
        the vector pair or pairs, taken by the module's broadcast rule.
    normalize : bool
        When true (default) the evaluation is moved to the axis
        representative (0, X(z)) with push-forward vectors, which is
        exact by automorphism invariance.  False evaluates the raw jet
        at z itself — useful precisely for testing that invariance.
        For "tube" it only chooses where the frame is read: M is the
        closed forms' at X either way.
    formula : {"tube", "direct"}
        "tube" evaluates -3/2 + n^T M m in the g-orthonormal frame with M
        from the closed forms at X (see the module docstring), up to the
        grid end; "direct" the 16-term curvature sum, the one formula
        that reads the curvature tensor, which is accurate, like the jet
        it reads, for 1 - |X| >= 1e-4 and raises DomainError, naming X,
        closer to the boundary.  They agree to ~5e-12 relative for
        |X| <= 0.99 and exist so that each can certify the other.

    Returns
    -------
    float or array
        The curvature value, invariant under nonzero complex rescaling of
        either vector: a float for one point and one pair, else an array.
    """
    r = require_domain(sol.params, z)
    # a scalar z1 goes with every point of a stacked z2
    v, w = _columns(pair, z.z1 if isinstance(z.z1, np.ndarray) else z.z2)
    order = 2 if formula == "tube" else 4   # the tube formula reads g, det and (f, f')
    if normalize:
        axis, (v, w) = _pull_to_axis(sol, z, r, (v, w))
        jet = _axis_jet(sol, axis, order)
    else:
        jet = _jet(sol, z, _admitted_tables(sol.params, z, r, order))
    return _bis(jet, None, v, w, formula)


def bisectional_from_jet(jet: MetricJet, tensor: CurvatureTensor, pair: TangentPair,
                         *, formula: str = "tube"):
    """Bis(v, w) at the jet's point or points, for vectors given there.

    formula is as in bisectional; the tensor is read by "direct" only.  No
    pull to the axis is made here.  A stacked jet takes its stacked
    tensor, and the pair goes by the module's broadcast rule.
    """
    v, w = _columns(pair, jet.x_value)
    return _bis(jet, tensor, v, w, formula)


def _bis(jet: MetricJet, tensor: CurvatureTensor, v, w, formula: str):
    """Bis(v, w) for checked vectors or columns, as _columns gives them, each _binade_scaled first.

    "tube" reads the jet's _kernel_split; "direct" reads the tensor, built
    from the jet where it is None.  One pair at one point stays in Python
    complex (numpy scalars would cost most of the kernel) and gives a
    float; stacked points or pairs give arrays.
    """
    v, w = _binade_scaled(v), _binade_scaled(w)
    if formula == "tube":
        return _bis_frame(_kernel_split(jet), v, w)
    if formula != "direct":
        raise ValueError(f"unknown formula {formula!r} (expected 'tube' or 'direct')")
    ok = abs(jet.x_value) <= 1.0 - 1e-4   # the 16-term sum's accurate range
    if not _all(ok):
        raise DomainError(f"direct Bis values at X = {_first(jet.x_value, ok)!r} are "
                          f"refused: the 16-term sum is accurate for 1 - |X| >= 1e-4")
    bis = _bis_direct(jet, tensor_from_jet(jet) if tensor is None else tensor, v, w)
    return bis if isinstance(bis, np.ndarray) else float(bis)


def bisectional_batch(sol: PotentialSolution, z: Point, vs, ws,
                      *, normalize: bool = True) -> np.ndarray:
    """bisectional(sol, z, TangentPair(v=vs, w=ws), normalize=normalize).

    Kept while the benchmark names it: bench/tracer.py wraps it, and
    verify_suites expects its span from the origin suite.
    """
    return bisectional(sol, z, TangentPair(v=vs, w=ws), normalize=normalize)


# ---------------------------------------------------------------------------
# the g-orthonormal frame: Bis, boundary limit and exact extremes
# ---------------------------------------------------------------------------

def _frame(jet: MetricJet) -> tuple[float, float, float]:
    """(alpha, beta, gamma) of the g-orthonormal frame e1 = (alpha, beta), e2 = (0, gamma).

    det g is the jet's closure det: g11 g22 and g12^2 nearly cancel near
    the boundary.  A stacked jet gives arrays, through the same arithmetic.
    """
    _, g12, g22 = jet.g
    alpha = _sqrt(g22 / jet.det)
    return alpha, -alpha * g12 / g22, 1.0 / _sqrt(g22)


def _frame_coords(frame, v) -> tuple:
    """(v0, v1) with v = v0 e1 + v1 e2, for a vector or (2, n) columns.

    Times the reciprocals, as numpy divides a complex array by a real one,
    so that Python complex entries round as numpy columns do.
    """
    alpha, beta, gamma = frame
    v0 = v[0] * (1.0 / alpha)
    return v0, (v[1] - beta * v0) * (1.0 / gamma)


def _boundary_limit(frame, v, w) -> np.ndarray:
    """The Gram ratio of _binade_scaled (2, n) columns, as a Euclidean one in the frame."""
    (v0, v1), (w0, w1) = (_frame_coords(frame, _binade_scaled(u)) for u in (v, w))
    ip = v0 * np.conjugate(w0) + v1 * np.conjugate(w1)
    return -1.0 - _sq(ip) / ((_sq(v0) + _sq(v1)) * (_sq(w0) + _sq(w1)))


def _sq(u):
    """|u|^2 of complex values or arrays, without hypot's extra rounding."""
    return u.real * u.real + u.imag * u.imag


def boundary_limit_bis(jet: MetricJet, pair: TangentPair):
    """The strictly pseudoconvex boundary limit of Bis at the jet's point or points.

    Value -1 - |<v,w>_g|^2 / (|v|_g^2 |w|_g^2), always in [-2, -1]: -2 at
    proportional vectors (Cauchy-Schwarz equality), -1 at g-orthogonal
    ones.  The pair goes by the module's broadcast rule.
    """
    v, w = _columns(pair, jet.x_value)
    limit = _boundary_limit(_frame(jet), np.reshape(v, (2, -1)), np.reshape(w, (2, -1)))
    return float(limit[0]) if isinstance(v, list) else limit


# isinstance tells floats from arrays: np.ndim of a float costs more than the math
def _pick(cond, a, b):
    """a where cond holds, else b; elementwise for a bool array."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _larger(a, b):
    return np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b)


def _bloch(frame, v) -> tuple:
    """The Bloch vector of v in the frame (arrays for (2, n) columns).

    v0 conj(v1) is formed from real products: numpy's complex product may
    fuse a multiply-add where Python's does not.
    """
    v0, v1 = _frame_coords(frame, v)
    a, b, c, d = v0.real, v0.imag, v1.real, v1.imag
    s0, s1 = _sq(v0), _sq(v1)
    norm = s0 + s1
    return 2.0 * (a * c + b * d) / norm, -2.0 * (b * c - a * d) / norm, (s0 - s1) / norm


def _bis_frame(split, v, w):
    """Bis(v, w) = a + b.(n + m) + n^T M m from a _kernel_split, or a tensor's split in the tests.

    v and w are vectors, or (2, n) columns; a stacked split takes one
    column per point, or broadcasts as its arrays' shapes allow.
    """
    frame, a, (bx, bz), (lam_y, mxx, mxz, mzz) = split
    (nx, ny, nz), (mx, my, mz) = _bloch(frame, v), _bloch(frame, w)
    return (a + bx * (nx + mx) + bz * (nz + mz)
            + nx * (mxx * mx + mxz * mz) + ny * lam_y * my + nz * (mxz * mx + mzz * mz))


_AXIS_COMPONENTS = ("Q1111", "Q1112", "Q1212", "Q1122")
_AXIS_DEGREE = 3   # the largest power of s, and of u, in any row of NUMERATORS


@lru_cache(maxsize=64)
def _axis_tables(p: int) -> tuple:
    """The polynomials in u of NUMERATORS at p, padded to one shape, as tuples and as an array.

    Per component (_AXIS_COMPONENTS order) come its rows of s, highest
    power first, padded with zero rows to _AXIS_DEGREE + 1, then its n0;
    each is a polynomial in u, padded with zero coefficients to
    _AXIS_DEGREE + 1, highest power first.  The tuples hold that flat,
    20 polynomials of 4 coefficients; the array's entry [k, q, j, 0] is
    the coefficient k of polynomial j of component q.  Each integer
    polynomial in p is summed exactly, then rounded once.
    """
    def at(poly):
        return float(sum(c * p ** k for k, c in enumerate(poly)))

    def padded(rows):
        return [()] * (_AXIS_DEGREE + 1 - len(rows)) + list(rows)

    polys = [padded([at(c) for c in reversed(row)])
             for name in _AXIS_COMPONENTS
             for row in [*padded(NUMERATORS[name][0][::-1]), NUMERATORS[name][1]]]
    flat = tuple(tuple(0.0 if c == () else c for c in poly) for poly in polys)
    array = np.array(flat).T.reshape(_AXIS_DEGREE + 1, len(_AXIS_COMPONENTS), -1, 1)
    return flat, array


def _axis_components(p: int, x, f, Z) -> tuple:
    """(Q1111, Q1112, Q1212, Q1122) at the axis points (0, x) from f and Z = e^{3F}.

    The closed forms of tools/derive_axis_curvature.py, in s = f^2/Z and
    u = xf (see _axis_coefficients).  The terms free of s are taken in
    x^2 Z and x sqrt(Z), which stay finite at x = 0.  Every padded
    polynomial of _axis_tables is one Horner pass in u, then each
    component one Horner pass in s; a padded 0 adds nothing.  Floats take
    Python arithmetic, arrays numpy's, in the same order of operations,
    so each row of an array equals its float bit for bit.
    """
    flat, table = _axis_tables(p)
    s, u = f * f / Z, x * f
    P = float(8 * p * p + 4 * p) + float(6 * p - 3) * u
    t = s + 4.0
    den = 2.0 * (t * t) * (P * P * P)
    xxZ, root = (x * x) * Z, _sqrt(Z)
    if isinstance(x, np.ndarray):
        rows = table[0] * u + table[1]
        for ck in table[2:]:
            rows *= u
            rows += ck
        N = rows[:, 0] * s + rows[:, 1]
        for j in range(2, _AXIS_DEGREE + 1):
            N *= s
            N += rows[:, j]
        n0 = rows[:, -1]
        q = (N + xxZ * n0) / den
        return q[0], ((f / root) * N[1] + (x * root) * n0[1]) / den, q[2], q[3]
    r = [((a * u + b) * u + c) * u + d for a, b, c, d in flat]
    N = [((r[j] * s + r[j + 1]) * s + r[j + 2]) * s + r[j + 3]
         for j in range(0, len(r), _AXIS_DEGREE + 2)]
    return ((N[0] + xxZ * r[4]) / den, ((f / root) * N[1] + (x * root) * r[9]) / den,
            (N[2] + xxZ * r[14]) / den, (N[3] + xxZ * r[19]) / den)


def _axis_form(jet: MetricJet) -> tuple:
    """(frame, M, Einstein defect) of a jet from _axis_components at its X (see _reduced_form).

    Z is read off the jet's profile (metric_tensor._four_z), so a jet off
    the axis gives the form of its axis point; on the axis this Z is the
    jet's closure det.
    """
    p, x = jet.p, jet.x_value
    f, f1 = jet.profile[:2]
    q1111, q1112, q1212, own = _axis_components(p, x, f, 0.25 * _four_z(p, x, f, f1))
    q1122 = -3.0 - q1111
    M = (0.5 * (q1122 - q1212), 0.5 * (q1122 + q1212), q1112, q1111 + 1.5)
    return _frame(jet), M, abs(q1111 + own + 3.0)


def _kernel_split(jet: MetricJet) -> tuple:
    """(frame, a, b, M) of the Bloch form from _axis_form: a = -3/2 and b = 0 hold identically.

    b is (b_x, b_z) and M is (lam_y, Mxx, Mxz, Mzz): the 1x1 block and the
    2x2 (x, z) block of M; every other entry vanishes.
    """
    frame, M, _ = _axis_form(jet)
    return frame, -1.5, (0.0, 0.0), M


def _reduced_form(jet, tensor: CurvatureTensor | None) -> tuple:
    """(frame, ((eigenvalue, unit eigenvector), ...) of M, Einstein defect) of a jet.

    M comes from the closed forms of _axis_components at the jet's X
    (_axis_form), at any point: the pull to the axis is diagonal and the
    translations have the identity differential, so both keep the jet's
    triangular frame, and M in it is M at the axis point (0, X).  With
    Q2222 = Q1111, Q1122 = -3 - Q1111 and Q1222 = -Q1112, which hold
    identically, M = ((Q1122 - Q1212)/2, (Q1122 + Q1212)/2, Q1112,
    Q1111 + 3/2), and the defect is |Q1111 + Q1122 + 3| with Q1122 from
    its own closed form.  The frame is the jet's own, for the attaining
    pairs at its point.

    The 2x2 block's eigenvalues are mean +- h, h = |(d, Mxz)| with d =
    (Mxx - Mzz)/2; the larger one's eigenvector, x entry >= 0, lies along
    (h + d, Mxz), or (|Mxz|, +-(h - d)) where d < 0 (no cancellation), or
    (1, 0) for h = 0.  The tensor keeps the form of the last jet it was
    evaluated with, so a second call with the same jet and tensor
    evaluates nothing again; with tensor None nothing is kept.
    """
    kept = getattr(tensor, "_reduced", None)
    if kept is not None and kept[0] is jet:
        return kept[1]
    frame, (lam_y, mxx, mxz, mzz), defect = _axis_form(jet)
    mean, d = 0.5 * (mxx + mzz), 0.5 * (mxx - mzz)
    h = _sqrt(d * d + mxz * mxz)
    ex = _pick(d < 0.0, abs(mxz), h + d) + (h == 0.0)
    ez = _pick(d < 0.0, _pick(mxz < 0.0, d - h, h - d), mxz)
    norm = _sqrt(ex * ex + ez * ez)
    c, s, zero = ex / norm, ez / norm, 0.0 * h
    form = frame, ((lam_y, (zero, 1.0 + zero, zero)), (mean + h, (c, zero, s)),
                   (mean - h, (-s, zero, c))), defect
    if tensor is not None:
        # not a field: the tensor's eq and repr stay its six coefficients
        object.__setattr__(tensor, "_reduced", (jet, form))
    return form


def _largest(pairs, key) -> tuple:
    """The first (eigenvalue, eigenvector) of pairs with the largest key(eigenvalue)."""
    lam, u = pairs[0]
    for other, v in pairs[1:]:
        keep = key(lam) >= key(other)
        lam, u = _pick(keep, lam, other), tuple(_pick(keep, a, b) for a, b in zip(u, v))
    return lam, u


def _spinor_vector(frame, n) -> np.ndarray:
    """The g-unit vector with Bloch vector n, in raw coordinates (rows for arrays).

    Its larger entry is real: v0 = sqrt((1 + n_z)/2) if n_z >= 0, else v1.
    """
    nx, ny, nz = n
    top = _sqrt(0.5 * (1.0 + abs(nz)))
    re, im, zero = nx / (2.0 * top), ny / (2.0 * top), 0.0 * top
    v0r, v0i, v1r, v1i = _pick(nz >= 0.0, (top, zero, re, im), (re, -im, top, zero))
    alpha, beta, gamma = frame
    return np.array([alpha * v0r + 1j * (alpha * v0i),
                     beta * v0r + gamma * v1r + 1j * (beta * v0i + gamma * v1i)]).T


def bis_extremes_from_jet(jet, tensor: CurvatureTensor | None) -> BisExtremes:
    """Extremes of Bis over all nonzero pairs at a fixed point.

    n^T M m ranges over [-|lam|, |lam|] for the eigenvalue lam of M of
    largest modulus, reached at m = u, n = -+sign(lam) u for its
    eigenvector u; the values reported are the Einstein-reduced -3/2 -+ |lam|.
    The attaining pairs are built when first read (see BisExtremes).  The
    tensor's coefficients are not read: it keeps the reduced form for a
    later call with the same jet (see _reduced_form), and None keeps nothing.
    """
    frame, pairs, defect = _reduced_form(jet, tensor)
    (lam_y, _), (upper, _), (lower, _) = pairs
    top = _larger(_larger(abs(lam_y), abs(upper)), abs(lower))
    return BisExtremes(min=-1.5 - top, max=-1.5 + top, einstein_defect=defect,
                       _form=(frame, pairs))


def bis_extremes(sol: PotentialSolution, z: Point) -> BisExtremes:
    """Extremes of Bis_z over vector pairs, on the axis orbit (arrays for stacked z)."""
    return bis_extremes_from_jet(_extremes_jet(sol, z), None)


def _extremes_jet(sol: PotentialSolution, z: Point) -> MetricJet:
    """The order-2 jet at z's axis point (0, X(z)), or at the axis points of stacked z.

    The extremes read its g, det and (f, f'), and no tensor.
    """
    return _axis_jet(sol, _on_axis(_orbit_x(sol.params, z, require_domain(sol.params, z))), 2)


def sectional_max_from_jet(jet, tensor: CurvatureTensor | None) -> tuple[float, np.ndarray]:
    """Maximum of S(v) = Bis(v, v) at a fixed point, with a maximizer.

    n^T M n peaks at the top eigenvector of M; the reported value is the
    Einstein-reduced -3/2 + lambda_max.  The tensor is as in
    bis_extremes_from_jet.
    """
    frame, pairs, _ = _reduced_form(jet, tensor)
    lam, n = _largest(pairs, lambda lam: lam)
    return -1.5 + lam, _spinor_vector(frame, n)


def sectional_max(sol: PotentialSolution, z: Point) -> tuple[float, np.ndarray]:
    """Maximum holomorphic sectional curvature at z, with a maximizer (rows for stacked z)."""
    return sectional_max_from_jet(_extremes_jet(sol, z), None)


# ---------------------------------------------------------------------------
# exact center values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OriginValues:
    """Exact center-point curvature data as rationals.

    R1111, bis_min, bis_max and sect_max are absolute values; R1122 and
    R1212 are the coefficients multiplying f'(0), R2222_coeff the
    coefficient multiplying f'(0)^2, and f3_coeff the coefficient in
    f'''(0) = f3_coeff * f'(0)^2 — the solver-independent shapes of those
    entries.
    """

    bis_min: Fraction
    bis_max: Fraction
    sect_max: Fraction
    R1111: Fraction
    R1122: Fraction
    R1212: Fraction
    R2222_coeff: Fraction
    f3_coeff: Fraction


def origin_closed_forms(params: TubeParams) -> OriginValues:
    """Closed-form center values: pinching bounds and tensor coefficients.

    bis_min = -3 + 3/(2p+1) (attained at v = w along an extremal
    direction), bis_max = -3/(2p+1) (attained at "orthogonal" axis
    vectors), sect_max = -3/2 - 1/(2pK); R1111 = -32 p^3 K,
    R1122 = -p f'(0), R1212 = (p-1) f'(0), R2222 = -3p/(8(2p+1)) f'(0)^2.
    """
    p = params.p
    K = params.K
    return OriginValues(
        bis_min=Fraction(-6 * p, 2 * p + 1),
        bis_max=Fraction(-3, 2 * p + 1),
        sect_max=Fraction(-3, 2) - Fraction(3, 2 * p * (2 * p + 1)),
        R1111=-32 * p**3 * K,
        R1122=Fraction(-p),
        R1212=Fraction(p - 1),
        R2222_coeff=Fraction(-3 * p, 8 * (2 * p + 1)),
        f3_coeff=Fraction(3) - Fraction(3 * (p - 1), p * (2 * p + 1)),
    )


def extremal_sectional_vector(sol: PotentialSolution) -> np.ndarray:
    """A center vector attaining the sectional maximum -3/2 - 1/(2pK).

    The maximizer balances the two metric directions: with
    g = diag(4pK, f'(0)/4) at the center, the components are chosen so
    that g11 |v1|^2 = g22 |v2|^2 = 1, i.e. (1/sqrt(4pK), 2/sqrt(f'(0))).
    """
    p = sol.params.p
    f1_0 = sol.eval_f_derivs(0.0, 1)[1]
    return np.array([1.0 / math.sqrt(4 * p * sol.params.K_float),
                     2.0 / math.sqrt(f1_0)], dtype=complex)
