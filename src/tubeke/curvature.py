"""Curvature tensor, bisectional/sectional curvatures and their extremes.

The curvature coefficients at a point follow from the metric jet as

    R_{i jbar k lbar} = -g_{i jbar k lbar}
                        + sum_{a,b} g_{i k abar} g^{abar b} g_{b jbar lbar},

all real, with the symmetries i<->k, j<->l and pair exchange leaving six
independent values.  The bisectional curvature of a vector pair then only
sees each vector through four real features

    u(v) = [|v1|^2, |v2|^2, Re(v1 conj(v2)), Im(v1 conj(v2))],

giving Bis(v, w) = u(v)^T C u(w) / ((u(v).gvec)(u(w).gvec)) for a fixed
4x4 symmetric matrix C built from the six coefficients and
gvec = [g11, g22, 2 g12, 0].  The classical 16-term curvature sum is kept
as an independent cross-check path.

The tensor formula, the feature form and the 16-term sum serve single
points and stacked ones alike: stacked_tensor and stacked_bisectional
evaluate them on a StackedJet (one array per count class) with one
vector pair per point, which is how the invariance suite runs.

The extremes are exact.  Write a g-unit vector through its Bloch vector
n on the unit sphere, v v* = K (I + n.sigma) K^T / 2 with g = L L^T and
K = L^{-T}; in that basis the form becomes

    Bis(v, w) = a + b.(n + m) + n^T M m

with M a symmetric 3x3 matrix.  The Einstein condition Ric = -3g fixes
a = -3/2, b = 0 and tr M = -3/2, so bis_min/max = a -+ ||M||_2 at the
top singular pair of M and sect_max = a + lambda_max(M) at its top
eigenvector.  The computed b is not exactly 0: each reported value is
the full form at the pair it reports, so it is attained, and lies within
4||b|| of the true extreme (||b|| <= 7e-10 for |x| <= 0.99, p = 1, 2, 3).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .params import TubeParams
from .potential_solver import PotentialSolution
from .errors import DomainError
from .tube_geometry import Point, _all, _first_point, require_domain, x_invariant
from .metric_tensor import MetricJet, StackedJet, metric_jet

__all__ = [
    "CurvatureTensor",
    "TangentPair",
    "BisExtremes",
    "curvature_tensor",
    "tensor_from_jet",
    "stacked_tensor",
    "bisectional",
    "bisectional_from_jet",
    "bisectional_batch",
    "stacked_bisectional",
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
    """Two nonzero tangent vectors with their feature angles.

    alpha (resp. beta) is an argument of v1*conj(v2) (resp. w1*conj(w2))
    when that product is nonzero, else 0; only the features
    (|v1|, |v2|, alpha) enter any curvature value.
    """

    v: np.ndarray
    w: np.ndarray
    alpha: float = field(init=False)
    beta: float = field(init=False)

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
        object.__setattr__(self, "alpha", cmath.phase(v0 * v1.conjugate()))
        object.__setattr__(self, "beta", cmath.phase(w0 * w1.conjugate()))


@dataclass(frozen=True)
class BisExtremes:
    min: float
    argmin: TangentPair
    max: float
    argmax: TangentPair


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
    """Curvature coefficients from an already computed metric jet."""
    d3, d4, g = jet.d3, jet.d4, jet.metric
    return _tensor(g[0, 0], g[0, 1], g[1, 1],
                   [d3[(2, 2, 2)], d3[(1, 2, 2)], d3[(1, 1, 2)], d3[(1, 1, 1)]],
                   [d4[(2, 2, 2, 2)], d4[(1, 2, 2, 2)], d4[(1, 1, 2, 2)],
                    d4[(1, 1, 1, 2)], d4[(1, 1, 1, 1)]])


def stacked_tensor(jet: StackedJet) -> CurvatureTensor:
    """tensor_from_jet at stacked points: each coefficient is an array."""
    return _tensor(*jet.metric, jet.d3, jet.d4)


def curvature_tensor(sol: PotentialSolution, z: Point) -> CurvatureTensor:
    """The six curvature coefficients of the metric at z."""
    return tensor_from_jet(metric_jet(sol, z))


# ---------------------------------------------------------------------------
# bisectional / sectional values
# ---------------------------------------------------------------------------

def _metric(jet) -> tuple:
    """(g11, g12, g22) of a MetricJet, or arrays of them of a StackedJet."""
    if isinstance(jet, StackedJet):
        return jet.metric
    g = jet.metric
    return g[0, 0], g[0, 1], g[1, 1]


def _features(v) -> np.ndarray:
    """u(v) of a vector, or a (4, n) array of them for v of shape (2, n)."""
    cross = v[0] * np.conjugate(v[1])
    return np.array([abs(v[0]) ** 2, abs(v[1]) ** 2, cross.real, cross.imag])


def _form(jet, tensor: CurvatureTensor) -> tuple[np.ndarray, np.ndarray]:
    """(C, gvec) of the feature bilinear form, conditioned near x = 1.

    Beyond |x| = 0.999 both are pre-scaled by powers of 1/g22 (the same
    magnitude as the 1/f^2 normalization natural near the boundary); the
    Bis ratio is invariant under this joint rescaling but the intermediate
    products stay in comfortable double range.  A StackedJet with a
    stacked tensor gives C of shape (4, 4, n) and gvec of shape (4, n),
    scaled point by point.
    """
    g11, g12, g22 = _metric(jet)
    x = jet.x_value
    if np.ndim(x):
        sc = np.where(np.abs(x) > 0.999, 1.0 / g22, 1.0)
    else:
        sc = 1.0 / g22 if abs(x) > 0.999 else 1.0
    g11, g12, g22 = g11 * sc, g12 * sc, g22 * sc
    sc2 = sc * sc
    R1111 = tensor.R1111 * sc2
    R1112 = tensor.R1112 * sc2
    R1122 = tensor.R1122 * sc2
    R1212 = tensor.R1212 * sc2
    R1222 = tensor.R1222 * sc2
    R2222 = tensor.R2222 * sc2
    zero = 0.0 * sc
    C = np.array([
        [R1111,        R1122,        2.0 * R1112,           zero],
        [R1122,        R2222,        2.0 * R1222,           zero],
        [2.0 * R1112,  2.0 * R1222,  2.0 * (R1122 + R1212), zero],
        [zero,         zero,         zero,                  2.0 * (R1122 - R1212)],
    ])
    gvec = np.array([g11, g22, 2.0 * g12, zero])
    return C, gvec


def _bis_from_form(C, gvec, uv, uw) -> float:
    return float(uv @ C @ uw) / (float(uv @ gvec) * float(uw @ gvec))


def _bis_direct(jet, tensor: CurvatureTensor, v, w) -> float:
    """Classical 16-term curvature sum; independent cross-check path.

    v and w are vectors, or (2, n) arrays of them with a stacked jet.
    """
    num = 0.0 + 0.0j
    for i in _IDX:
        for j in _IDX:
            for k in _IDX:
                for l in _IDX:
                    num += (tensor.coeff(i, j, k, l)
                            * v[i - 1] * np.conjugate(v[j - 1])
                            * w[k - 1] * np.conjugate(w[l - 1]))
    g11, g12, g22 = _metric(jet)

    def sq_norm(u):
        return (g11 * abs(u[0]) ** 2 + g22 * abs(u[1]) ** 2
                + 2.0 * (g12 * u[0] * np.conjugate(u[1])).real)

    return num.real / (sq_norm(v) * sq_norm(w))


def _tangent_rows(vs) -> np.ndarray:
    """vs as an (n, 2) complex array of nonzero finite vectors, or ValueError."""
    vs = np.asarray(vs, dtype=complex)
    if vs.ndim != 2 or vs.shape[1] != 2:
        raise ValueError(f"tangent vectors must be stacked as (n, 2) rows, got shape {vs.shape}")
    if not np.isfinite(vs).all():
        raise ValueError("tangent vectors must be finite")
    if ((vs[:, 0] == 0) & (vs[:, 1] == 0)).any():
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
    features of deep points (lam -> 0, where lam and lam^{1/(2p)} part by
    hundreds of decades) from underflowing.  A point whose depth
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
    if np.ndim(x):
        return Point(np.zeros(x.shape, dtype=complex), x.astype(complex)), pushed
    return Point(0j, complex(x)), pushed


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
        "tube" uses the feature bilinear form; "direct" the 16-term
        curvature sum.  They agree to ~1e-10 relative and exist so that
        each can certify the other.

    Returns
    -------
    float
        The curvature value; invariant under nonzero complex rescaling
        of either vector.
    """
    require_domain(sol.params, z)
    if normalize:
        z, (v, w) = _pull_to_axis(sol, z, (pair.v, pair.w))
    else:
        v, w = pair.v, pair.w
    jet = metric_jet(sol, z)
    return bisectional_from_jet(jet, tensor_from_jet(jet), v, w, formula=formula)


def bisectional_from_jet(jet: MetricJet, tensor: CurvatureTensor, v, w,
                         *, formula: str = "tube") -> float:
    """Bis(v, w) at the jet's point, for vectors given at that point.

    formula is as in bisectional; no pull to the axis is made here.
    """
    if formula == "tube":
        C, gvec = _form(jet, tensor)
        return _bis_from_form(C, gvec, _features(v), _features(w))
    if formula == "direct":
        return float(_bis_direct(jet, tensor, v, w))
    raise ValueError(f"unknown formula {formula!r} (expected 'tube' or 'direct')")


def bisectional_batch(sol: PotentialSolution, z: Point, vs, ws,
                      *, normalize: bool = True) -> np.ndarray:
    """Bis_z(v_i, w_i) for stacked vector pairs, via the feature form.

    vs, ws : (n, 2) complex arrays of nonzero finite vectors; other
    shapes, zero rows and non-finite rows raise ValueError.
    """
    vs, ws = _tangent_pairs(vs, ws)
    require_domain(sol.params, z)
    if normalize:
        z, (vs, ws) = _pull_to_axis(sol, z, (vs.T, ws.T))
        vs, ws = vs.T, ws.T
    jet = metric_jet(sol, z)
    return _form_bisectional(*_form(jet, tensor_from_jet(jet)), vs, ws)


def _form_bisectional(C, gvec, vs, ws) -> np.ndarray:
    """Bis of the (n, 2) rows vs, ws from one point's feature form (C, gvec).

    einsum's summation order follows the memory layout, so the features
    are C-ordered rows and the form is made contiguous (a no-op for
    _form's own output; a slice of a stacked form is copied).
    """
    C, gvec = np.ascontiguousarray(C), np.ascontiguousarray(gvec)
    Uv = np.ascontiguousarray(_features(vs.T).T)
    Uw = np.ascontiguousarray(_features(ws.T).T)
    num = np.einsum("ij,jk,ik->i", Uv, C, Uw)
    return num / ((Uv @ gvec) * (Uw @ gvec))


def stacked_bisectional(jet: StackedJet, tensor: CurvatureTensor, vs, ws,
                        *, formula: str = "tube") -> np.ndarray:
    """Bis(vs[i], ws[i]) at point i of a stacked jet, for vectors given there.

    tensor is stacked_tensor(jet); vs and ws are (n, 2) arrays with one
    pair per point.  formula is as in bisectional: "tube" applies the
    feature form, with its |x| > 0.999 rescaling point by point, and
    "direct" the 16-term sum.  No pull to the axis is made here.
    """
    vs, ws = _tangent_pairs(vs, ws)
    if len(vs) != np.size(jet.x_value):
        raise ValueError(f"expected one vector pair per point ({np.size(jet.x_value)}), "
                         f"got {len(vs)}")
    if formula == "tube":
        C, gvec = _form(jet, tensor)
        uv, uw = _features(vs.T), _features(ws.T)
        num = np.einsum("in,ijn,jn->n", uv, C, uw)
        return num / (np.einsum("in,in->n", uv, gvec) * np.einsum("in,in->n", uw, gvec))
    if formula == "direct":
        return _bis_direct(jet, tensor, vs.T, ws.T)
    raise ValueError(f"unknown formula {formula!r} (expected 'tube' or 'direct')")


def sectional(sol: PotentialSolution, z: Point, v) -> float:
    """Holomorphic sectional curvature S_z(v) = Bis_z(v, v)."""
    return bisectional(sol, z, TangentPair(v=v, w=v))


def boundary_limit_batch(jet: MetricJet, vs, ws) -> np.ndarray:
    """The strictly pseudoconvex boundary limit of Bis for stacked pairs.

    Value -1 - |<v,w>_g|^2 / (|v|_g^2 |w|_g^2) for each row pair of the
    (n, 2) complex arrays vs, ws, always in [-2, -1]: -2 at proportional
    vectors (Cauchy-Schwarz equality), -1 at g-orthogonal ones.  Other
    shapes, zero rows and non-finite rows raise ValueError.
    """
    vs, ws = _tangent_pairs(vs, ws)
    return _boundary_limit(jet.metric, vs, ws)


def _boundary_limit(g, vs, ws) -> np.ndarray:
    v0, v1, w0, w1 = vs[:, 0], vs[:, 1], ws[:, 0], ws[:, 1]
    ip_vw = (g[0, 0] * v0 * np.conjugate(w0) + g[0, 1] * v0 * np.conjugate(w1)
             + g[1, 0] * v1 * np.conjugate(w0) + g[1, 1] * v1 * np.conjugate(w1))
    ip_vv = (g[0, 0] * np.abs(v0) ** 2 + g[1, 1] * np.abs(v1) ** 2
             + 2.0 * (g[0, 1] * v0 * np.conjugate(v1)).real)
    ip_ww = (g[0, 0] * np.abs(w0) ** 2 + g[1, 1] * np.abs(w1) ** 2
             + 2.0 * (g[0, 1] * w0 * np.conjugate(w1)).real)
    return -1.0 - np.abs(ip_vw) ** 2 / (ip_vv * ip_ww)


def boundary_limit_bis(jet: MetricJet, pair: TangentPair) -> float:
    """boundary_limit_batch for a single pair (validated by TangentPair)."""
    return float(_boundary_limit(jet.metric, pair.v[None], pair.w[None])[0])


# ---------------------------------------------------------------------------
# exact extremes
# ---------------------------------------------------------------------------

# the Pauli basis (I, sigma_x, sigma_y, sigma_z) of the Hermitian 2x2 matrices
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _bloch_form(jet: MetricJet, tensor: CurvatureTensor) -> tuple[float, np.ndarray, np.ndarray]:
    """(a, b, M) with Bis(v, w) = a + b.(n + m) + n^T M m.

    n and m are the Bloch vectors of g-unit v and w.  With g = L L^T and
    K = L^{-T}, v v* = K (I + n.sigma) K^T / 2, so column k of P holds the
    features of K sigma_k K^T / 2 and the 4x4 form P^T C P carries a in
    its corner, b in its border and M in its 3x3 block.
    """
    C, gvec = _form(jet, tensor)
    g12 = 0.5 * gvec[2]
    K = np.linalg.inv(np.linalg.cholesky(np.array([[gvec[0], g12], [g12, gvec[1]]]))).T
    H = 0.5 * (K @ _PAULI @ K.T)
    P = np.array([H[:, 0, 0].real, H[:, 1, 1].real, H[:, 0, 1].real, H[:, 0, 1].imag])
    T = P.T @ C @ P
    return float(T[0, 0]), T[0, 1:], T[1:, 1:]


def _unit_vector(jet: MetricJet, n: np.ndarray) -> np.ndarray:
    """The g-unit vector L^{-T} (cos(t/2), e^{i phi} sin(t/2)) with Bloch vector n."""
    theta = math.acos(min(1.0, max(-1.0, float(n[2]))))
    phi = math.atan2(n[1], n[0])
    unit = np.array([math.cos(0.5 * theta), cmath.exp(1j * phi) * math.sin(0.5 * theta)])
    return np.linalg.solve(np.linalg.cholesky(jet.metric).T, unit)


def bis_extremes_from_jet(jet: MetricJet, tensor: CurvatureTensor) -> BisExtremes:
    """Extremes of Bis over all nonzero pairs at a fixed point.

    n^T M m ranges over [-s, s] for the top singular value s of M, reached
    at n = -+u, m = v for the top singular pair; each value reported is
    the form at the pair it reports, so it is attained exactly.
    """
    a, b, M = _bloch_form(jet, tensor)
    U, _, Vt = np.linalg.svd(M)
    m = Vt[0]
    found = []
    for n in (-U[:, 0], U[:, 0]):
        value = float(a + b @ (n + m) + n @ M @ m)
        found.append((value, TangentPair(v=_unit_vector(jet, n), w=_unit_vector(jet, m))))
    (low, argmin), (high, argmax) = found
    return BisExtremes(min=low, argmin=argmin, max=high, argmax=argmax)


def bis_extremes(sol: PotentialSolution, z: Point) -> BisExtremes:
    """Extremes of Bis_z over vector pairs; evaluated on the axis orbit."""
    require_domain(sol.params, z)
    axis = Point(0j, complex(x_invariant(sol.params, z)))
    jet = metric_jet(sol, axis)
    return bis_extremes_from_jet(jet, tensor_from_jet(jet))


def sectional_max_from_jet(jet: MetricJet, tensor: CurvatureTensor) -> tuple[float, np.ndarray]:
    """Maximum of S(v) = Bis(v, v) at a fixed point, with a maximizer.

    n^T M n peaks at the top eigenvector of M, where S = a + 2 b.n + lambda_max.
    """
    a, b, M = _bloch_form(jet, tensor)
    n = np.linalg.eigh(M)[1][:, -1]
    return float(a + 2.0 * (b @ n) + n @ M @ n), _unit_vector(jet, n)


def sectional_max(sol: PotentialSolution, z: Point) -> tuple[float, np.ndarray]:
    """Maximum holomorphic sectional curvature at z, with a maximizer."""
    require_domain(sol.params, z)
    axis = Point(0j, complex(x_invariant(sol.params, z)))
    jet = metric_jet(sol, axis)
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
