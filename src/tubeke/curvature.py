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

and every Bis value, the extremes and the boundary limit are read off this
split.  The classical 16-term curvature sum is kept as an independent
cross-check path.  The tensor formula, the split, the 16-term sum and the
extremes serve single points and 1-d stacks (a MetricJet of arrays) through
one arithmetic: tensor_from_jet, bis_extremes, sectional_max and the
*_from_jet forms give arrays at stacked points.

Tangent vectors come as a TangentPair: one pair, v and w of shape (2,), or
n stacked pairs, v and w of shape (n, 2).  The three doors that take one,
bisectional, bisectional_from_jet and boundary_limit_bis, apply one
broadcast rule.  A single point takes one pair (the value is a float) or n
pairs (an array of n values).  n stacked points take one pair, which goes
with every point, or n pairs, row i with point i (an array of n values).
Any other count raises ValueError naming both.  A sectional curvature is
the pair TangentPair(v=v, w=v).

M splits into a 1x1 and a 2x2 block with closed-form eigenpairs.  The
Einstein condition Ric = -3g fixes a = -3/2, b = 0 and tr M = -3/2, and the
reported values are the reduced bis_min/max = -3/2 -+ max|lambda| and
sect_max = -3/2 + max lambda; their pairs attain them up to three times the
Einstein defect max(|a + 3/2|, ||b||, |tr M + 3/2|).  The jet path's defect
is about 1e-10 for |X| <= 0.99 and at most 1.3e-4 for 1 - |X| >= 1e-4; where
it exceeds 1e-3 (p=1 from 1 - |X| = 5e-5) the extremes and every tube-formula
Bis raise DomainError.  The frame and the split use only +, -, *, / and
sqrt, and X has one pow for floats and arrays, so stacked extremes equal the
single point's bit for bit.  The pull to the axis has the same one pow, and
the Bloch vectors round alike on Python complex and on numpy columns, so
bisectional (normalized, tube) at stacked points equals the single point's
bit for bit too.

The extremes make one split per (jet, tensor): the tensor keeps the reduced
form (frame, eigenpairs, defect) of the last jet it was split with, so
sectional_max_from_jet after bis_extremes_from_jet splits nothing again.
bis_extremes_from_jet computes the values alone, and BisExtremes builds its
attaining pairs from the kept frame and eigenpairs when they are first read.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .params import TubeParams
from .potential_solver import PotentialSolution
from .errors import DomainError
from .tube_geometry import Point, _all, _first, _first_point, require_domain, x_invariant
from .metric_tensor import MetricJet, metric_jet

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
    """Extremal Bis, the jet's Einstein defect (see above) and the attaining pairs.

    The values come from the one split of their (jet, tensor); argmin and
    argmax are TangentPairs built from the frame and eigenpairs kept here
    on first read, then kept.  Stacked points give arrays, and pairs of
    (n, 2) rows.
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
    """
    # R takes the inverse of the computed g: the jet's closure det triples its error
    det = g11 * g22 - g12 * g12
    inv = ((g22 / det, -g12 / det), (-g12 / det, g11 / det))

    def R(i, j, k, l):
        ik, jl = (i == 1) + (k == 1), (j == 1) + (l == 1)
        s = 0.0
        for a in _IDX:
            for b in _IDX:
                s += d3[ik + (a == 1)] * inv[a - 1][b - 1] * d3[jl + (b == 1)]
        return -d4[ik + jl] + s

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

def _bis_direct(jet, tensor: CurvatureTensor, v, w) -> float:
    """Classical 16-term curvature sum; independent cross-check path.

    v and w are vectors, or (2, n) columns of them with a stacked jet.
    """
    num = 0.0 + 0.0j
    for i in _IDX:
        for j in _IDX:
            for k in _IDX:
                for l in _IDX:
                    num += (tensor.coeff(i, j, k, l)
                            * v[i - 1] * np.conjugate(v[j - 1])
                            * w[k - 1] * np.conjugate(w[l - 1]))
    g11, g12, g22 = jet.g

    def sq_norm(u):
        return (g11 * abs(u[0]) ** 2 + g22 * abs(u[1]) ** 2
                + 2.0 * (g12 * u[0] * np.conjugate(u[1])).real)

    return num.real / (sq_norm(v) * sq_norm(w))


def _columns(pair: TangentPair, x) -> tuple:
    """The pair's (2,) vectors, or (2, n) columns of n pairs, by the module's broadcast rule.

    x is the points' X: a float, or a 1-d stack (else ValueError).
    """
    v, w = pair.v, pair.w
    if _stacked(x) and v.ndim == 2 and len(v) != len(x):
        raise ValueError(f"{len(v)} vector pairs cannot go with {len(x)} stacked points: "
                         f"give one pair, or one pair per point")
    return (v, w) if v.ndim == 1 else (v.T, w.T)


def _pull_to_axis(sol: PotentialSolution, z: Point, vectors):
    """Axis representative (0, X(z)) and the push-forwards of the vectors.

    The normalizing automorphism has the diagonal Jacobian
    diag(lam, lam^{1/(2p)}) with lam = 1/(1 - Re(4p z1)); bisectional
    curvature is invariant under it, so evaluating on the axis loses
    nothing and keeps the potential evaluators at their best-conditioned
    abscissa.  The vectors are (2,) or (2, n) columns, as _columns gives them.
    A point whose depth 1 - Re(4p z1) overflows (lam = 0) is refused.
    Each vector is _binade_scaled before the push, so that a subnormal one
    is pushed at full precision.  lam^{1/(2p)} is numpy's pow for one point
    and for stacked points alike, as X is.
    """
    p = sol.params.p
    lam = 1.0 / (1.0 - 4 * p * z.z1.real)
    x = x_invariant(sol.params, z)
    ok = lam > 0.0
    if not _all(ok):
        raise DomainError(f"point {_first_point(z, ok)} is too deep to pull tangent "
                          f"vectors to the axis: 1 - Re(4p z1) overflows")
    j1, j2 = lam, np.power(lam, 1.0 / (2 * p))
    return _on_axis(x), [np.array([j1 * u[0], j2 * u[1]]) for u in map(_binade_scaled, vectors)]


def _on_axis(x) -> Point:
    """The axis point (0, x), or the stacked axis points of an array x."""
    if np.ndim(x):
        return Point(np.zeros(x.shape, dtype=complex), x.astype(complex))
    return Point(0j, complex(x))


_MIN_NORMAL = sys.float_info.min
_SUBNORMAL_LIFT = 2.0 ** 64


def _binade_scaled(u: np.ndarray) -> np.ndarray:
    """u times the power of two that brings its largest real or imaginary part into [0.5, 1).

    u is one vector, or vectors stacked as the columns of a (2, n) array,
    each scaled by its own power.  Bis and the boundary limit are invariant
    under rescaling each vector, and the scale is exact in floating point;
    it keeps squares of entries far from 1 from over- or underflowing, as
    in the pushed vectors of deep points (lam -> 0, where lam and
    lam^{1/(2p)} part by hundreds of decades).  The scale is read off the
    parts, not the moduli: a finite entry's modulus can overflow, as
    |1.7e308 (1 + i)| does.  A vector whose largest part is subnormal,
    where 2^{-e} can overflow, is first lifted by 2^64, exactly.
    """
    if u.ndim == 1:
        a, b = u.tolist()
        m = max(abs(a.real), abs(a.imag), abs(b.real), abs(b.imag))
        if m < _MIN_NORMAL:
            return _binade_scaled(u * _SUBNORMAL_LIFT)
        return u * math.ldexp(1.0, -math.frexp(m)[1])
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
    formula : {"tube", "direct"}
        "tube" evaluates a + b.(n + m) + n^T M m in the g-orthonormal
        frame (see the module docstring) and raises DomainError, naming
        X, where the jet's Einstein defect exceeds 1e-3; "direct" the
        16-term curvature sum, which is accurate, like the jet it reads,
        for 1 - |X| >= 1e-4 and raises DomainError, naming X, closer to
        the boundary.  They agree to ~1e-13 relative for |X| <= 0.99 and
        exist so that each can certify the other.

    Returns
    -------
    float or array
        The curvature value, invariant under nonzero complex rescaling of
        either vector: a float for one point and one pair, else an array.
    """
    require_domain(sol.params, z)
    v, w = _columns(pair, z.z1)
    if normalize:
        z, (v, w) = _pull_to_axis(sol, z, (v, w))
    jet = metric_jet(sol, z)
    return _bis(jet, tensor_from_jet(jet), v, w, formula)


def bisectional_from_jet(jet: MetricJet, tensor: CurvatureTensor, pair: TangentPair,
                         *, formula: str = "tube"):
    """Bis(v, w) at the jet's point or points, for vectors given there.

    formula is as in bisectional; no pull to the axis is made here.  A
    stacked jet takes its stacked tensor, and the pair goes by the
    module's broadcast rule.
    """
    v, w = _columns(pair, jet.x_value)
    return _bis(jet, tensor, v, w, formula)


def _bis(jet: MetricJet, tensor: CurvatureTensor, v, w, formula: str):
    """Bis(v, w) for checked (2,) vectors, or (2, n) columns, each _binade_scaled first.

    Stacked points give arrays.
    """
    v, w = _binade_scaled(v), _binade_scaled(w)
    if formula == "tube":
        if v.ndim == 1:
            # Python complex entries: numpy scalars would cost most of the kernel
            v, w = v.tolist(), w.tolist()
        return _bis_frame(_checked_split(jet, tensor, "Bis values")[0], v, w)
    if formula != "direct":
        raise ValueError(f"unknown formula {formula!r} (expected 'tube' or 'direct')")
    ok = abs(jet.x_value) <= 1.0 - 1e-4   # the 16-term sum's accurate range
    if not _all(ok):
        raise DomainError(f"direct Bis values at X = {_first(jet.x_value, ok)!r} are "
                          f"refused: the 16-term sum is accurate for 1 - |X| >= 1e-4")
    bis = _bis_direct(jet, tensor, v, w)
    return bis if isinstance(bis, np.ndarray) else float(bis)


def _stacked(x) -> bool:
    """Whether x, a point's value, is stacked; ValueError unless a 1-d stack."""
    if not isinstance(x, np.ndarray):
        return False
    if x.ndim != 1:
        raise ValueError(f"stacked points must form a 1-d stack, got shape {x.shape}")
    return True


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
    limit = _boundary_limit(_frame(jet), v.reshape(2, -1), w.reshape(2, -1))
    return float(limit[0]) if v.ndim == 1 and not _stacked(jet.x_value) else limit


_DEFECT_TOL = 1e-3   # the largest Einstein defect the tube formula accepts


# isinstance tells floats from arrays: np.ndim of a float costs more than the math
def _pick(cond, a, b):
    """a where cond holds, else b; elementwise for a bool array."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _larger(a, b):
    return np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b)


def _bloch_split(jet, tensor: CurvatureTensor) -> tuple:
    """(frame, a, b, M) with Bis(v, w) = a + b.(n + m) + n^T M m in the frame.

    b is (b_x, b_z) and M is (lam_y, Mxx, Mxz, Mzz): the 1x1 block and
    the 2x2 (x, z) block of M; every other entry vanishes.  A stacked jet
    (a 1-d stack, or ValueError) gives arrays.
    """
    _stacked(jet.x_value)
    al, be, ga = frame = _frame(jet)
    t = tensor
    R1111, R1112, R1122, R1212, R1222, R2222 = (t.R1111, t.R1112, t.R1122, t.R1212,
                                                t.R1222, t.R2222)
    al2, be2, ga2 = al * al, be * be, ga * ga
    al3, be3, two_ab_R1222 = al2 * al, be2 * be, 2.0 * al * be * R1222
    Q2222 = ga2 * ga2 * R2222
    Q1222 = ga2 * ga * (al * R1222 + be * R2222)
    Q1122 = ga2 * (al2 * R1122 + two_ab_R1222 + be2 * R2222)
    Q1212 = ga2 * (al2 * R1212 + two_ab_R1222 + be2 * R2222)
    Q1112 = ga * (al3 * R1112 + al2 * be * (2.0 * R1122 + R1212)
                  + 3.0 * al * be2 * R1222 + be3 * R2222)
    Q1111 = (al2 * al2 * R1111 + 4.0 * al3 * be * R1112
             + al2 * be2 * (4.0 * R1122 + 2.0 * R1212)
             + 4.0 * al * be3 * R1222 + be2 * be2 * R2222)
    a = 0.25 * (Q1111 + 2.0 * Q1122 + Q2222)
    b = (0.5 * (Q1112 + Q1222), 0.25 * (Q1111 - Q2222))
    M = (0.5 * (Q1122 - Q1212), 0.5 * (Q1122 + Q1212), 0.5 * (Q1112 - Q1222),
         0.25 * (Q1111 - 2.0 * Q1122 + Q2222))
    return frame, a, b, M


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
    """Bis(v, w) = a + b.(n + m) + n^T M m from a _bloch_split.

    v and w are vectors, or (2, n) columns; a stacked split takes one
    column per point, or broadcasts as its arrays' shapes allow.
    """
    frame, a, (bx, bz), (lam_y, mxx, mxz, mzz) = split
    (nx, ny, nz), (mx, my, mz) = _bloch(frame, v), _bloch(frame, w)
    return (a + bx * (nx + mx) + bz * (nz + mz)
            + nx * (mxx * mx + mxz * mz) + ny * lam_y * my + nz * (mxz * mx + mzz * mz))


def _checked_split(jet, tensor: CurvatureTensor, what: str) -> tuple:
    """(_bloch_split, Einstein defect), or DomainError where the defect exceeds _DEFECT_TOL.

    The defect is max(|a + 3/2|, ||b||, |tr M + 3/2|).  what names the
    refused values; a refusal of stacked points names the first X.
    """
    split = _bloch_split(jet, tensor)
    _, a, (bx, bz), (lam_y, mxx, _, mzz) = split
    defect = _larger(_larger(abs(a + 1.5), _sqrt(bx * bx + bz * bz)),
                     abs(lam_y + mxx + mzz + 1.5))
    ok = defect <= _DEFECT_TOL
    if not _all(ok):
        raise DomainError(
            f"{what} at X = {_first(jet.x_value, ok)!r} are refused: the jet "
            f"path's Einstein defect {_first(defect, ok):.2g} exceeds {_DEFECT_TOL:g} (it is "
            f"accurate, with defect <= 1.3e-4, for 1 - |X| >= 1e-4)")
    return split, defect


def _reduced_form(jet, tensor: CurvatureTensor) -> tuple:
    """(frame, ((eigenvalue, unit eigenvector), ...) of M, Einstein defect), or DomainError.

    The 2x2 block's eigenvalues are mean +- h, h = |(d, Mxz)| with d =
    (Mxx - Mzz)/2; the larger one's eigenvector, x entry >= 0, lies along
    (h + d, Mxz), or (|Mxz|, +-(h - d)) where d < 0 (no cancellation), or
    (1, 0) for h = 0.  The tensor keeps the form of the last jet it was
    split with (a refusal is not kept), so a second call with the same
    jet and tensor makes no second split.
    """
    kept = getattr(tensor, "_reduced", None)
    if kept is not None and kept[0] is jet:
        return kept[1]
    (frame, _, _, (lam_y, mxx, mxz, mzz)), defect = _checked_split(
        jet, tensor, "curvature extremes")
    mean, d = 0.5 * (mxx + mzz), 0.5 * (mxx - mzz)
    h = _sqrt(d * d + mxz * mxz)
    ex = _pick(d < 0.0, abs(mxz), h + d) + (h == 0.0)
    ez = _pick(d < 0.0, _pick(mxz < 0.0, d - h, h - d), mxz)
    norm = _sqrt(ex * ex + ez * ez)
    c, s, zero = ex / norm, ez / norm, 0.0 * h
    form = frame, ((lam_y, (zero, 1.0 + zero, zero)), (mean + h, (c, zero, s)),
                   (mean - h, (-s, zero, c))), defect
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


def bis_extremes_from_jet(jet, tensor: CurvatureTensor) -> BisExtremes:
    """Extremes of Bis over all nonzero pairs at a fixed point.

    n^T M m ranges over [-|lam|, |lam|] for the eigenvalue lam of M of
    largest modulus, reached at m = u, n = -+sign(lam) u for its
    eigenvector u; the values reported are the Einstein-reduced -3/2 -+ |lam|.
    The attaining pairs are built when first read (see BisExtremes).
    """
    frame, pairs, defect = _reduced_form(jet, tensor)
    (lam_y, _), (upper, _), (lower, _) = pairs
    top = _larger(_larger(abs(lam_y), abs(upper)), abs(lower))
    return BisExtremes(min=-1.5 - top, max=-1.5 + top, einstein_defect=defect,
                       _form=(frame, pairs))


def _pair_defect(sol: PotentialSolution, z: Point) -> float:
    """The Einstein defect of the jet that bisectional(sol, z, ...) evaluates, at z's axis point."""
    jet = _axis_jet(sol, z)
    return _checked_split(jet, tensor_from_jet(jet), "Bis values")[1]


def bis_extremes(sol: PotentialSolution, z: Point) -> BisExtremes:
    """Extremes of Bis_z over vector pairs, on the axis orbit (arrays for stacked z)."""
    jet = _axis_jet(sol, z)
    return bis_extremes_from_jet(jet, tensor_from_jet(jet))


def _axis_jet(sol: PotentialSolution, z: Point) -> MetricJet:
    """The jet at z's axis point (0, X(z)), or at the axis points of stacked z."""
    require_domain(sol.params, z)
    return metric_jet(sol, _on_axis(x_invariant(sol.params, z)))


def sectional_max_from_jet(jet, tensor: CurvatureTensor) -> tuple[float, np.ndarray]:
    """Maximum of S(v) = Bis(v, v) at a fixed point, with a maximizer.

    n^T M n peaks at the top eigenvector of M; the reported value is the
    Einstein-reduced -3/2 + lambda_max.
    """
    frame, pairs, _ = _reduced_form(jet, tensor)
    lam, n = _largest(pairs, lambda lam: lam)
    return -1.5 + lam, _spinor_vector(frame, n)


def sectional_max(sol: PotentialSolution, z: Point) -> tuple[float, np.ndarray]:
    """Maximum holomorphic sectional curvature at z, with a maximizer (rows for stacked z)."""
    jet = _axis_jet(sol, z)
    return sectional_max_from_jet(jet, tensor_from_jet(jet))


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
