"""Curvature tensor, bisectional/sectional curvatures and their extremes.

The curvature coefficients at a point follow from the metric jet as

    R_{i jbar k lbar} = -g_{i jbar k lbar}
                        + sum_{a,b} g_{i k abar} g^{abar b} g_{b jbar lbar},

all real, with the symmetries i<->k, j<->l and pair exchange leaving six
independent values.  Bisectional curvature is evaluated in the
g-orthonormal frame e1 = (alpha, beta), e2 = (0, gamma): alpha =
sqrt(g22/det g), beta = -alpha g12/g22, gamma = 1/sqrt(g22).  With a g-unit
v written through its Bloch vector n in the frame (v v* = (I + n.sigma)/2),
real coefficients give

    Bis(v, w) = a + b.(n + m) + n^T M m,   b_y = M_xy = M_yz = 0,

and every Bis value, the extremes and the boundary limit are read off this
split.  The classical 16-term curvature sum is kept as an independent
cross-check path.  The tensor formula, the split, the 16-term sum and the
extremes serve single points and 1-d stacks (a MetricJet of arrays) through
one arithmetic: tensor_from_jet, bisectional_from_jet (one vector pair per
point), bis_extremes, sectional_max and the *_from_jet forms give arrays.

M splits into a 1x1 and a 2x2 block with closed-form eigenpairs.  The
Einstein condition Ric = -3g fixes a = -3/2, b = 0 and tr M = -3/2, and the
reported values are the reduced bis_min/max = -3/2 -+ max|lambda| and
sect_max = -3/2 + max lambda; their pairs attain them up to three times the
Einstein defect max(|a + 3/2|, ||b||, |tr M + 3/2|).  The jet path's defect
is about 1e-10 for |X| <= 0.99 and at most 1.3e-4 for 1 - |X| >= 1e-4; where
it exceeds 1e-3 (p=1 from 1 - |X| = 5e-5) the extremes raise DomainError.
The split uses only +, -, *, / and sqrt (numpy's pow and hypot round unlike
libm's), so stacked extremes equal the single point's bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

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
    "curvature_tensor",
    "tensor_from_jet",
    "bisectional",
    "bisectional_from_jet",
    "bisectional_batch",
    "sectional",
    "bis_extremes",
    "bis_extremes_from_jet",
    "sectional_max",
    "sectional_max_from_jet",
    "boundary_limit_bis",
    "boundary_limit_batch",
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
    """Two nonzero finite tangent vectors, each stored as a complex (2,) array."""

    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=complex).reshape(2)
        w = np.asarray(self.w, dtype=complex).reshape(2)
        # checked on Python complex entries: numpy reductions over two
        # length-2 arrays would cost most of the construction
        (v0, v1), (w0, w1) = v.tolist(), w.tolist()
        if not all(map(cmath.isfinite, (v0, v1, w0, w1))):
            raise ValueError("tangent vectors must be finite")
        if (v0 == 0 and v1 == 0) or (w0 == 0 and w1 == 0):
            raise ValueError("tangent vectors must be nonzero")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class BisExtremes:
    """Extremal Bis with attaining pairs and the jet's Einstein defect (see above);
    stacked points give arrays, and each pair as (v rows, w rows).
    """

    min: float
    argmin: TangentPair
    max: float
    argmax: TangentPair
    einstein_defect: float


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


def curvature_tensor(sol: PotentialSolution, z: Point) -> CurvatureTensor:
    """The six curvature coefficients of the metric at z."""
    return tensor_from_jet(metric_jet(sol, z))


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


def _tangent_rows(vs, ndim: int = 2) -> np.ndarray:
    """vs as (n, 2) rows, or for ndim 1 one (2,) vector, nonzero and finite; or ValueError."""
    vs = np.asarray(vs, dtype=complex)
    if vs.ndim != ndim or vs.shape[-1] != 2:
        form = "stacked as (n, 2) rows" if ndim == 2 else "of shape (2,)"
        raise ValueError(f"tangent vectors must be {form}, got shape {vs.shape}")
    if not np.isfinite(vs).all():
        raise ValueError("tangent vectors must be finite")
    if ((vs[..., 0] == 0) & (vs[..., 1] == 0)).any():
        raise ValueError("tangent vectors must be nonzero")
    return vs


def _tangent_pairs(vs, ws) -> tuple[np.ndarray, np.ndarray]:
    vs, ws = _tangent_rows(vs), _tangent_rows(ws)
    if vs.shape != ws.shape:
        raise ValueError(f"vs and ws must hold the same number of vectors, "
                         f"got {len(vs)} and {len(ws)}")
    return vs, ws


def _pull_to_axis(sol: PotentialSolution, z: Point, vectors):
    """Axis representative (0, X(z)) and the push-forwards of the vectors.

    The normalizing automorphism has the diagonal Jacobian
    diag(lam, lam^{1/(2p)}) with lam = 1/(1 - Re(4p z1)); bisectional
    curvature is invariant under it, so evaluating on the axis loses
    nothing and keeps the potential evaluators at their best-conditioned
    abscissa.  A stacked z takes vectors of shape (2, n), one per point.

    Bis is also invariant under rescaling each vector, so each pushed
    vector is divided by the power of two that brings its larger entry
    into [0.5, 1).  That is exact in floating point, and it keeps the
    frame coordinates of deep points (lam -> 0, where lam and lam^{1/(2p)}
    part by hundreds of decades) from underflowing.  A point whose depth
    1 - Re(4p z1) overflows (lam = 0) is refused.
    """
    p = sol.params.p
    lam = 1.0 / (1.0 - 4 * p * z.z1.real)
    x = x_invariant(sol.params, z)
    ok = lam > 0.0
    if not _all(ok):
        raise DomainError(f"point {_first_point(z, ok)} is too deep to pull tangent "
                          f"vectors to the axis: 1 - Re(4p z1) overflows")
    j1, j2 = lam, lam ** (1.0 / (2 * p))
    pushed = [_binade_scaled(np.array([j1 * u[0], j2 * u[1]])) for u in vectors]
    return _on_axis(x), pushed


def _on_axis(x) -> Point:
    """The axis point (0, x), or the stacked axis points of an array x."""
    if np.ndim(x):
        return Point(np.zeros(x.shape, dtype=complex), x.astype(complex))
    return Point(0j, complex(x))


def _binade_scaled(u: np.ndarray) -> np.ndarray:
    """u times the power of two that brings max |u_i| into [0.5, 1).

    u is one vector, or vectors stacked as the columns of a (2, n) array,
    each scaled by its own power.
    """
    if u.ndim == 1:
        return u * math.ldexp(1.0, -math.frexp(max(abs(u[0]), abs(u[1])))[1])
    return u * np.ldexp(1.0, -np.frexp(np.abs(u).max(axis=0))[1])


def bisectional(sol: PotentialSolution, z: Point, pair: TangentPair,
                *, normalize: bool = True, formula: str = "tube") -> float:
    """Holomorphic bisectional curvature Bis_z(v, w).

    Parameters
    ----------
    sol, z, pair
        Solved potential, evaluation point in T_p, and the vector pair.
    normalize : bool
        When true (default) the evaluation is moved to the axis
        representative (0, X(z)) with push-forward vectors, which is
        exact by automorphism invariance.  False evaluates the raw jet
        at z itself — useful precisely for testing that invariance.
    formula : {"tube", "direct"}
        "tube" evaluates a + b.(n + m) + n^T M m in the g-orthonormal
        frame (see the module docstring); "direct" the 16-term curvature
        sum.  They agree to ~1e-13 relative and exist so that each can
        certify the other.

    Returns
    -------
    float
        The curvature value; invariant under nonzero complex rescaling
        of either vector.  Stacked z give an array, one value per point.
    """
    require_domain(sol.params, z)
    if normalize:
        z, (v, w) = _pull_to_axis(sol, z, (pair.v, pair.w))
    else:
        v, w = pair.v, pair.w
    jet = metric_jet(sol, z)
    return _bis(jet, tensor_from_jet(jet), v, w, formula)


def bisectional_from_jet(jet: MetricJet, tensor: CurvatureTensor, v, w,
                         *, formula: str = "tube"):
    """Bis(v, w) at the jet's point, for vectors given at that point.

    formula is as in bisectional; no pull to the axis is made here.  A
    single point takes (2,) vectors; a stacked jet, with its stacked
    tensor, takes (n, 2) arrays v and w holding one vector pair per point
    and gives an array.  Other shapes, zero and non-finite vectors raise
    ValueError.
    """
    if not _stacked(jet):
        return _bis(jet, tensor, _tangent_rows(v, 1), _tangent_rows(w, 1), formula)
    vs, ws = _tangent_pairs(v, w)
    if len(vs) != len(jet.x_value):
        raise ValueError(f"expected one vector pair per point ({len(jet.x_value)}), "
                         f"got {len(vs)}")
    return _bis(jet, tensor, vs.T, ws.T, formula)


def _bis(jet: MetricJet, tensor: CurvatureTensor, v, w, formula: str):
    """Bis(v, w) for checked (2,) vectors, or (2, n) columns; arrays at stacked points."""
    if formula == "tube":
        if v.ndim == 1:
            # Python complex entries: numpy scalars would cost most of the kernel
            v, w = v.tolist(), w.tolist()
        return _bis_frame(_bloch_split(jet, tensor), v, w)
    if formula != "direct":
        raise ValueError(f"unknown formula {formula!r} (expected 'tube' or 'direct')")
    bis = _bis_direct(jet, tensor, v, w)
    return bis if isinstance(bis, np.ndarray) else float(bis)


def _stacked(jet: MetricJet) -> bool:
    """Whether the jet is over stacked points; ValueError unless they form a 1-d stack."""
    x = jet.x_value
    if not isinstance(x, np.ndarray):
        return False
    if x.ndim != 1:
        raise ValueError(f"stacked points must form a 1-d stack, got shape {x.shape}")
    return True


def bisectional_batch(sol: PotentialSolution, z: Point, vs, ws,
                      *, normalize: bool = True) -> np.ndarray:
    """Bis_z(v_i, w_i) for stacked vector pairs, from one frame split at z.

    vs, ws : (n, 2) complex arrays of nonzero finite vectors; other
    shapes, zero rows and non-finite rows raise ValueError.
    """
    vs, ws = _tangent_pairs(vs, ws)
    require_domain(sol.params, z)
    vs, ws = vs.T, ws.T
    if normalize:
        z, (vs, ws) = _pull_to_axis(sol, z, (vs, ws))
    jet = metric_jet(sol, z)
    return _bis_frame(_bloch_split(jet, tensor_from_jet(jet)), vs, ws)


def sectional(sol: PotentialSolution, z: Point, v) -> float:
    """Holomorphic sectional curvature S_z(v) = Bis_z(v, v)."""
    return bisectional(sol, z, TangentPair(v=v, w=v))


# ---------------------------------------------------------------------------
# the g-orthonormal frame: Bis, boundary limit and exact extremes
# ---------------------------------------------------------------------------

def _frame(g11, g12, g22) -> tuple[float, float, float]:
    """(alpha, beta, gamma) of the g-orthonormal frame e1 = (alpha, beta), e2 = (0, gamma).

    det g is the exact value, in integers, rounded once: g11 g22 and g12^2
    nearly cancel near the boundary.
    """
    (n11, d11), (n12, d12), (n22, d22) = (g11.as_integer_ratio(), g12.as_integer_ratio(),
                                          g22.as_integer_ratio())
    det = (n11 * n22 * d12 * d12 - n12 * n12 * d11 * d22) / (d11 * d22 * d12 * d12)
    alpha = math.sqrt(g22 / det)
    return alpha, -alpha * g12 / g22, 1.0 / math.sqrt(g22)


def boundary_limit_batch(jet: MetricJet, vs, ws) -> np.ndarray:
    """The strictly pseudoconvex boundary limit of Bis for stacked pairs.

    Value -1 - |<v,w>_g|^2 / (|v|_g^2 |w|_g^2) for each row pair of the
    (n, 2) complex arrays vs, ws, always in [-2, -1]: -2 at proportional
    vectors (Cauchy-Schwarz equality), -1 at g-orthogonal ones.  Other
    shapes, zero rows and non-finite rows raise ValueError.
    """
    vs, ws = _tangent_pairs(vs, ws)
    return _boundary_limit(_point_frame(jet), vs.T, ws.T)


def _point_frame(jet: MetricJet) -> tuple[float, float, float]:
    """The _frame of a single point's jet; stacked points raise ValueError."""
    if isinstance(jet.x_value, np.ndarray):
        raise ValueError(f"the boundary limit takes a single point's jet, got stacked "
                         f"points of shape {jet.x_value.shape}")
    return _frame(*jet.g)


def _frame_coords(frame, v) -> tuple:
    """(v0, v1) with v = v0 e1 + v1 e2, for a vector or (2, n) columns."""
    alpha, beta, gamma = frame
    v0 = v[0] / alpha
    return v0, (v[1] - beta * v0) / gamma


def _boundary_limit(frame, v, w) -> np.ndarray:
    """The Gram ratio of (2, n) columns as the Euclidean one of their frame coordinates."""
    (v0, v1), (w0, w1) = _frame_coords(frame, v), _frame_coords(frame, w)
    ip = v0 * np.conjugate(w0) + v1 * np.conjugate(w1)
    return -1.0 - _sq(ip) / ((_sq(v0) + _sq(v1)) * (_sq(w0) + _sq(w1)))


def _sq(u):
    """|u|^2 of complex values or arrays, without hypot's extra rounding."""
    return u.real * u.real + u.imag * u.imag


def boundary_limit_bis(jet: MetricJet, pair: TangentPair) -> float:
    """boundary_limit_batch for a single pair (validated by TangentPair)."""
    return float(_boundary_limit(_point_frame(jet), pair.v[:, None], pair.w[:, None])[0])


_DEFECT_TOL = 1e-3   # the largest Einstein defect the extremes accept


# isinstance tells floats from arrays: np.ndim of a float costs more than the math
def _pick(cond, a, b):
    """a where cond holds, else b; elementwise for a bool array."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _bloch_split(jet, tensor: CurvatureTensor) -> tuple:
    """(frame, a, b, M) with Bis(v, w) = a + b.(n + m) + n^T M m in the frame.

    b is (b_x, b_z) and M is (lam_y, Mxx, Mxz, Mzz): the 1x1 block and
    the 2x2 (x, z) block of M; every other entry vanishes.  A stacked jet
    gives arrays, with one _frame per point.
    """
    if _stacked(jet):
        frame = tuple(map(np.array, zip(*map(_frame, *(g.tolist() for g in jet.g)))))
    else:
        frame = _frame(*jet.g)
    al, be, ga = frame
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
    """The Bloch vector of v in the frame (arrays for (2, n) columns)."""
    v0, v1 = _frame_coords(frame, v)
    cross, s0, s1 = v0 * v1.conjugate(), _sq(v0), _sq(v1)
    norm = s0 + s1
    return 2.0 * cross.real / norm, -2.0 * cross.imag / norm, (s0 - s1) / norm


def _bis_frame(split, v, w):
    """Bis(v, w) = a + b.(n + m) + n^T M m from a _bloch_split.

    v and w are vectors, or (2, n) columns; a stacked split takes one
    column per point, or broadcasts as its arrays' shapes allow.
    """
    frame, a, (bx, bz), (lam_y, mxx, mxz, mzz) = split
    (nx, ny, nz), (mx, my, mz) = _bloch(frame, v), _bloch(frame, w)
    return (a + bx * (nx + mx) + bz * (nz + mz)
            + nx * (mxx * mx + mxz * mz) + ny * lam_y * my + nz * (mxz * mx + mzz * mz))


def _reduced_form(jet, tensor: CurvatureTensor) -> tuple:
    """(frame, [(eigenvalue, unit eigenvector)] of M, Einstein defect), or DomainError.

    The 2x2 block's eigenvalues are mean +- h, h = |(d, Mxz)| with d =
    (Mxx - Mzz)/2; the larger one's eigenvector, x entry >= 0, lies along
    (h + d, Mxz), or (|Mxz|, +-(h - d)) where d < 0 (no cancellation), or
    (1, 0) for h = 0.  A refusal of stacked points names the first X.
    """
    frame, a, (bx, bz), (lam_y, mxx, mxz, mzz) = _bloch_split(jet, tensor)
    larger = np.maximum if isinstance(a, np.ndarray) else max
    defect = larger(larger(abs(a + 1.5), _sqrt(bx * bx + bz * bz)),
                    abs(lam_y + mxx + mzz + 1.5))
    ok = defect <= _DEFECT_TOL
    if not _all(ok):
        raise DomainError(
            f"curvature extremes at X = {_first(jet.x_value, ok)!r} are refused: the jet "
            f"path's Einstein defect {_first(defect, ok):.2g} exceeds {_DEFECT_TOL:g} (it is "
            f"accurate, with defect <= 1.3e-4, for 1 - |X| >= 1e-4)")
    mean, d = 0.5 * (mxx + mzz), 0.5 * (mxx - mzz)
    h = _sqrt(d * d + mxz * mxz)
    ex = _pick(d < 0.0, abs(mxz), h + d) + (h == 0.0)
    ez = _pick(d < 0.0, _pick(mxz < 0.0, d - h, h - d), mxz)
    norm = _sqrt(ex * ex + ez * ez)
    c, s, zero = ex / norm, ez / norm, 0.0 * h
    return frame, [(lam_y, (zero, 1.0 + zero, zero)), (mean + h, (c, zero, s)),
                   (mean - h, (-s, zero, c))], defect


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
    """
    frame, pairs, defect = _reduced_form(jet, tensor)
    lam, u = _largest(pairs, abs)
    # n^T M u = lam n.u: lam at n = u, -lam at n = -u
    m = _spinor_vector(frame, u)
    flipped = _spinor_vector(frame, tuple(-c for c in u))
    if isinstance(jet.x_value, np.ndarray):
        below = (lam < 0.0)[:, None]
        argmin, argmax = (np.where(below, m, flipped), m), (np.where(below, flipped, m), m)
    else:
        same, flipped = TangentPair(v=m, w=m), TangentPair(v=flipped, w=m)
        argmin, argmax = (same, flipped) if lam < 0.0 else (flipped, same)
    return BisExtremes(min=-1.5 - abs(lam), argmin=argmin, max=-1.5 + abs(lam),
                       argmax=argmax, einstein_defect=defect)


def bis_extremes(sol: PotentialSolution, z: Point) -> BisExtremes:
    """Extremes of Bis_z over vector pairs, on the axis orbit (arrays for stacked z)."""
    jet = _axis_jet(sol, z)
    return bis_extremes_from_jet(jet, tensor_from_jet(jet))


def _axis_jet(sol: PotentialSolution, z: Point) -> MetricJet:
    """The jet at z's axis point (0, X(z)), or at the axis points of stacked z.

    Each stacked X is the single point's x_invariant, so that each row is
    the single-point call's: numpy's vector pow can miss libm's by an ulp.
    """
    require_domain(sol.params, z)
    if np.ndim(z.z1) == 0:
        return metric_jet(sol, _on_axis(x_invariant(sol.params, z)))
    x = [x_invariant(sol.params, Point(a, b))
         for a, b in zip(z.z1.ravel().tolist(), z.z2.ravel().tolist())]
    return metric_jet(sol, _on_axis(np.reshape(x, z.z1.shape)))


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
