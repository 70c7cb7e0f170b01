"""Metric tensor of T_p and its complex derivatives to total order four.

The potential is g = F(X) + L with X the orbit coordinate and
L = (K/p) ln(1/(1 - 4p Re z1)).  Both X and L depend on (Re z1, Re z2)
only, so every Wirtinger derivative with respect to z_k or conj(z_k)
equals (1/2) d/d(Re z_k) applied as many times as the index appears:
the value of a mixed derivative depends only on how many indices belong
to the z1 family and how many to the z2 family, never on their bar
pattern or order.  That collapses the 4^4 possible index words of order
four into a small (a, b)-count table with fully closed-form entries, and
makes every metric derivative a short chain-rule combination of
(f, f', f'', f''') at X(z) with the table.

The metric derivatives inherit the count classes: a derivative of order
n depends only on m, its number of z1-type indices, so a MetricJet holds
3 metric values, 4 third-order and 5 fourth-order ones, and its deriv
reads any index word off them.  X is affine in Re z2 and L does not see
z2, so the tables are three sequences over the z1 count a: X's
derivatives with no z2-type index (dX0), with one (dX1), and L's (dL).
_chain writes each of the 12 values out as a straight-line formula in
their entries.  Its term order is part of the contract: each formula
adds its terms in the order of the index-word chain rule (metric_jet's
docstring), so every value is bit-identical to that sum.

One chain rule and one MetricJet serve floats and arrays.
x_derivatives and metric_jet take a single point, or stacked points (a
Point of arrays, see tube_geometry): then the tables, the profile
derivatives and the chain rule run once over all of them, every entry of
the MetricJet is an array over the points, and einstein_residual returns
an array of defects.  The verification suites and the axis sweep run
their point loops through these passes; single point queries get floats.
The tables' one root and one log, det's factors and the defect's exp are
numpy's for floats and arrays alike, so a stacked row equals the single
point's values bit for bit.

The curvature doors build no more than they read.  On the axis (0, X),
where r = 1, the tables are per-p constants times X or 1 (_axis_jet: no
admission, pow or log, the same bits), and a jet of order 2 holds only g,
det and (f, f').
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .params import TubeParams
from .potential_solver import PotentialSolution, _ode_chain, _sign
from .tube_geometry import Point, _all, _first, _first_point, _orbit_x, require_domain

__all__ = [
    "XLDerivatives",
    "MetricJet",
    "x_derivatives",
    "metric_jet",
    "einstein_residual",
]


@dataclass(frozen=True)
class XLDerivatives:
    """Closed-form derivative tables of X and L at a fixed point.

    Every order-(a+b) Wirtinger derivative of X with a indices from
    {z1, conj(z1)} and b from {z2, conj(z2)} shares one value; it is
    dX0[a] for b = 0 (a = 0..order), dX1[a] for b = 1 (a = 0..order-1),
    and 0 for b >= 2.  Likewise dL[a] (a = 0..order) for L, which is 0
    for b >= 1.  X and L read the value of an index word (values 1 or 2;
    bars are irrelevant) off these sequences.
    """

    x_value: float
    r: float  # the depth 1 - 4p Re(z1), as tube_geometry forms it
    dX0: tuple = field(repr=False)
    dX1: tuple = field(repr=False)
    dL: tuple = field(repr=False)

    def X(self, *indices) -> float:
        a = indices.count(1)
        b = len(indices) - a
        return self.dX0[a] if b == 0 else self.dX1[a] if b == 1 else 0.0

    def L(self, *indices) -> float:
        return 0.0 if 2 in indices else self.dL[len(indices)]


# The smallest entries of the order-4 tables, and of the curvature built
# from them, are the fourth z1-derivatives: (1/r)^4 times constants >= 1
# (dL has 2K 3! (2p)^3 / r^4).  They stay normal doubles while (1/r)^4 is
# one, that is while r^4 <= 1/tiny; deeper points, or r = inf, are
# refused.  At 2 _R_MAX, (1/r)^4 is subnormal; nothing overflows.
_R_MAX = float(np.finfo(float).tiny) ** -0.25


def _too_deep(z: Point, r) -> str:
    return (f"point {z} is too deep for the raw metric jet: r = 1 - 4p Re(z1) = {r!r} "
            f"exceeds {_R_MAX:.4g}, where its order-4 entries (~ r^-4) leave the "
            f"double range (bis_extremes and sectional_max work on the axis and accept it)")


def x_derivatives(params: TubeParams, z: Point, max_total_order: int = 4) -> XLDerivatives:
    """Derivative tables of X and L at z, up to the requested total order.

    With r = 1 - 4p Re(z1), s = 1/(2p) and c_a = prod_{j<a} (1 + 2pj):

        dX0[a] = c_a X / r^a            dX1[a] = c_a / (2 r^{s+a})
        dL[0] = (K/p) ln(1/r)           dL[a>=1] = 2K (a-1)! (2p)^{a-1} / r^a

    Each z1-type derivative of r^{-q} contributes a factor 2pq/r, which is
    where the rising products c_a come from; X is affine in Re(z2), so two
    z2-type indices annihilate it, and L does not see z2 at all.

    Stacked points give arrays.  Raises DomainError, naming the (first)
    point, unless z lies in T_p (which makes r > 0) and r <= _R_MAX.
    """
    if not 0 <= max_total_order <= 4:
        raise ValueError(f"max_total_order must be in 0..4, got {max_total_order}")
    return _admitted_tables(params, z, require_domain(params, z), max_total_order)


def _admitted_tables(params: TubeParams, z: Point, r, order: int) -> XLDerivatives:
    """x_derivatives at z in T_p of depth r: refuses r > _R_MAX, then takes X and the tables."""
    ok = r <= _R_MAX
    if not _all(ok):
        raise DomainError(_too_deep(_first_point(z, ok), _first(r, ok)))
    x = _orbit_x(params, z, r)
    return XLDerivatives(x, r, *_tables(params, r, x, order))


@lru_cache(maxsize=64)
def _factors(p: int) -> tuple:
    """The per-p factors of the order-4 tables: (c_a, c_a/2, dL's, K/p).

    c_a = prod_{j<a} (1 + 2pj) and c_a/2 for a = 0..4, and dL's
    2K (a-1)! (2p)^{a-1} for a = 1..4.  Each is the left part of its
    table entry's product, formed left to right, so that _tables' product
    with X, r^{-s} and (1/r)^a rounds as the whole product written out does.
    """
    K = (2 * p + 1) / 3.0
    c = [1.0]
    for a in range(1, 5):
        c.append(c[-1] * (1.0 + 2 * p * (a - 1)))
    dL = tuple(2.0 * K * math.factorial(a - 1) * (2 * p) ** (a - 1) for a in range(1, 5))
    return tuple(c), tuple(0.5 * ca for ca in c), dL, K / p


def _tables(params: TubeParams, r, x, order: int):
    """(dX0, dX1, dL) of x_derivatives from r = 1 - 4p Re(z1) and X.

    r and x are floats, or arrays of one shape for stacked points.  The
    powers (1/r)^a are products, r^{-s} is one np.power and ln(1/r) one
    np.log, for floats and arrays alike (a float comes back as a Python
    float), so a stacked row is the single point's table bit for bit.
    """
    c, half, dL, k_over_p = _factors(params.p)
    inv = 1.0 / r
    root, log = np.power(r, -1.0 / (2 * params.p)), np.log(inv)
    if not isinstance(r, np.ndarray):
        root, log = float(root), float(log)
    q = [1.0]  # (1/r)^a
    for _ in range(order):
        q.append(q[-1] * inv)
    return (tuple(c[a] * x * q[a] for a in range(order + 1)),
            tuple(half[a] * root * q[a] for a in range(order)),
            (k_over_p * log, *(dL[a - 1] * q[a] for a in range(1, order + 1))))


def _axis_tables(p: int, x, order: int):
    """_tables at axis points (0, x), where r = 1: no pow, no log, the same bits.

    r^{-s} and (1/r)^a are 1 and ln(1/r) is 0 there, exactly, so each
    entry is its factor times x or 1.  The factors of dX1 and dL are
    floats for stacked x too; every metric value _chain forms from them
    holds a profile array, so its rows keep the bits of stacked tables.
    """
    c, half, dL, _ = _factors(p)
    return tuple(c[a] * x for a in range(order + 1)), half[:order], (0.0, *dL[:order])


def _chain(tab: XLDerivatives, f, f1, f2=None, f3=None):
    """Metric derivatives from the count tables and (f, f', f'', f''').

    Returns ((g11, g12, g22), val3, val4), where val3[m] and val4[m] are
    the third and fourth derivatives with m indices of z1 type; both are
    None unless f2 and f3 are given, which takes tables of order four.
    Floats and stacked arrays go through the same arithmetic.

    Each value is the chain rule of metric_jet's docstring at the
    representative word (1,)*m + (2,)*(n-m), written out with the table
    entries A_a = dX0[a], B_a = dX1[a] and L_a = dL[a], the only ones
    that can be nonzero.  The terms stand in the order the index-word
    sum adds them, with the factors in its order; only the terms holding
    an exact zero (X with two z2-type indices, L with one) are left out.  That
    order is part of the contract: it keeps every value bit-identical to
    the index-word sum, which the tests keep as the reference.  Do not
    regroup or merge terms.
    """
    A, B, L = tab.dX0, tab.dX1, tab.dL
    A1, A2, B0, B1 = A[1], A[2], B[0], B[1]
    metric = (f1 * A1 * A1 + f * A2 + L[2],
              f1 * A1 * B0 + f * B1,
              f1 * B0 * B0)
    if f2 is None:
        return metric, None, None
    A3, A4, B2, B3 = A[3], A[4], B[2], B[3]
    val3 = (
        f2 * B0 * B0 * B0,
        f2 * A1 * B0 * B0 + f1 * (B1 * B0 + B1 * B0),
        f2 * A1 * A1 * B0 + f1 * (A2 * B0 + B1 * A1 + B1 * A1) + f * B2,
        f2 * A1 * A1 * A1 + f1 * (A2 * A1 + A2 * A1 + A2 * A1) + f * A3 + L[3],
    )
    val4 = (
        f3 * B0 * B0 * B0 * B0,
        f3 * A1 * B0 * B0 * B0 + f2 * (B1 * B0 * B0 + B1 * B0 * B0 + B1 * B0 * B0),
        (f3 * A1 * A1 * B0 * B0
         + f2 * (A2 * B0 * B0 + B1 * A1 * B0 + B1 * A1 * B0 + B1 * A1 * B0 + B1 * A1 * B0)
         + f1 * (B2 * B0 + B2 * B0 + B1 * B1 + B1 * B1)),
        (f3 * A1 * A1 * A1 * B0
         + f2 * (A2 * A1 * B0 + A2 * A1 * B0 + B1 * A1 * A1
                 + A2 * A1 * B0 + B1 * A1 * A1 + B1 * A1 * A1)
         + f1 * (A3 * B0 + B2 * A1 + B2 * A1 + B2 * A1 + A2 * B1 + A2 * B1 + B1 * A2)
         + f * B3),
        (f3 * A1 * A1 * A1 * A1
         + f2 * (A2 * A1 * A1 + A2 * A1 * A1 + A2 * A1 * A1
                 + A2 * A1 * A1 + A2 * A1 * A1 + A2 * A1 * A1)
         + f1 * (A3 * A1 + A3 * A1 + A3 * A1 + A3 * A1 + A2 * A2 + A2 * A2 + A2 * A2)
         + f * A4
         + L[4]),
    )
    return metric, val3, val4


@dataclass(frozen=True)
class MetricJet:
    """The metric and the derivatives curvature needs, at a point or at stacked points.

    All entries are real: the potential depends only on (Re z1, Re z2).
    g is (g11, g12, g22), det the closure det g of metric_jet, which
    inverse reads; d3[m] and d4[m] are the third and fourth derivatives
    with m indices of z1 type, which every index word of that count shares
    (see deriv); profile is the (f, f', f'', f''') at x_value.  Each entry
    is a float at a single point and an array over stacked points.  p is
    the domain parameter the jet was built for.  metric_jet builds the
    whole jet; the curvature doors' order-2 jets have profile (f, f') and
    d3 = d4 = None.
    """

    point: Point
    x_value: float
    g: tuple
    det: float
    d3: tuple = field(repr=False)
    d4: tuple = field(repr=False)
    profile: tuple = field(repr=False)
    p: int

    def deriv(self, *word) -> float:
        """g_{i jbar k} or g_{i jbar k lbar} at a word of indices 1, 2 (bars, order immaterial)."""
        if len(word) not in (3, 4) or not set(word) <= {1, 2}:
            raise ValueError(f"expected a word of 3 or 4 indices in {{1, 2}}, got {word}")
        return (self.d3 if len(word) == 3 else self.d4)[word.count(1)]

    @property
    def metric(self) -> np.ndarray:
        """The matrix g, of shape (2, 2), or (n, 2, 2) for stacked points."""
        return _matrix(*self.g)

    @property
    def inverse(self) -> np.ndarray:
        """The matrix g^{-1}, shaped as metric."""
        g11, g12, g22 = self.g
        det = self.det
        return _matrix(g22 / det, -g12 / det, g11 / det)


def _matrix(a, b, c) -> np.ndarray:
    """The symmetric matrix [[a, b], [b, c]], stacked as (n, 2, 2) for arrays."""
    return np.stack([np.stack([a, b], -1), np.stack([b, c], -1)], -2)


def metric_jet(sol: PotentialSolution, z: Point) -> MetricJet:
    """Evaluate g and its third and fourth derivatives.

    Chain rule on g = F(X) + L using the count tables:

        g_{ij}   = f' X_i X_j + f X_{ij} + L_{ij}
        g_{ijk}  = f'' X_i X_j X_k
                   + f' (X_{ij} X_k + X_{ik} X_j + X_{kj} X_i)
                   + f X_{ijk} + L_{ijk}
        g_{ijkl} = f''' X_i X_j X_k X_l
                   + f'' (all six pair-contractions)
                   + f' (four triple-contractions + X_{ij}X_{kl}
                         + X_{ik}X_{jl} + X_{il}X_{kj})
                   + f X_{ijkl} + L_{ijkl}

    with every X/L factor taken from the tables (bars immaterial).

    det is the Monge-Ampere closure Z(X)/r^{(2p+1)/p}, Z = (f'D - f^2)/4
    with D = (2p-1)Xf + 4pK, free of g11 g22 - g12^2's cancellation.  It
    takes r^{-(2p+1)/p} = (1/r)^2 (r^{-1/(2p)})^2 from the tables' factors:
    1/r, and r^{-1/(2p)} = 2 X_2, so det = (f'D - f^2) (1/r)^2 X_2^2.

    Parameters
    ----------
    sol : PotentialSolution
        Solved potential for the same p.
    z : Point
        A point of T_p, or stacked points of T_p.

    Returns
    -------
    MetricJet
        Of floats, or of arrays for stacked points, whose rows equal the
        single point's values bit for bit.
    """
    return _jet(sol, z, x_derivatives(sol.params, z, 4))


def _jet(sol: PotentialSolution, z: Point, tab: XLDerivatives) -> MetricJet:
    """metric_jet at z from its tables, of order 4 or 2.

    Order-2 tables read (f, f') alone and give g, det and profile (f, f'),
    with d3 and d4 None: all that the tube formula and the extremes read.
    """
    p = sol.params.p
    profile = sol.eval_f_derivs(tab.x_value, len(tab.dX0) - 2)
    f, f1 = profile[:2]
    inv, half_root = 1.0 / tab.r, tab.dX1[0]
    det = _four_z(p, tab.x_value, f, f1) * ((inv * inv) * (half_root * half_root))
    g, d3, d4 = _chain(tab, *profile)
    return MetricJet(point=z, x_value=tab.x_value, g=g, det=det, d3=d3, d4=d4,
                     profile=tuple(profile), p=p)


def _axis_jet(sol: PotentialSolution, axis: Point, order: int) -> MetricJet:
    """metric_jet(sol, axis) at axis points (0, X), bit for bit, from order-4 or order-2 tables.

    X is Re(z2) as given: the axis is in T_p wherever the profile covers
    X, so there is no admission, and _axis_tables take no pow or log.  An
    X beyond the profile's range is refused by its evaluator.
    """
    x = axis.z2.real
    return _jet(sol, axis, XLDerivatives(x, 1.0, *_axis_tables(sol.params.p, x, order)))


def _four_z(p: int, x, f, f1):
    """4 Z(x) = f'D - f^2 with D = (2p - 1)xf + 4pK, from the profile at x (floats or arrays).

    det g is Z/r^{(2p+1)/p}; on the axis (r = 1) it is Z itself.
    """
    D = (2.0 * p - 1.0) * x * f + 4.0 * p * ((2 * p + 1) / 3.0)
    return f1 * D - f * f


def einstein_residual(sol: PotentialSolution, z: Point) -> float:
    """Relative defect of det[g] = e^{3 g(z)} with g(z) = F(X(z)) + L(z).

    The solver enforces this closure along the axis; evaluating it at an
    arbitrary point exercises the whole chain-rule assembly, so it is the
    cheapest end-to-end consistency probe for the metric path.  Stacked
    points give an array.
    """
    return _einstein_defect(*_metric_pass(sol, z))


def _metric_pass(sol: PotentialSolution, z: Point):
    """(tables, (g11, g12, g22), F) at z, or at stacked points, from one order-2 pass.

    The profile is read once: (F, f) at |X|, f' from the ODE chain, with
    eval_f_derivs's parity, so g has the bits of eval_f_derivs(X, 1)'s.
    """
    tab = x_derivatives(sol.params, z, 2)
    x, ax, F, f = sol._at(tab.x_value)
    metric, _, _ = _chain(tab, _sign(x) * f, _ode_chain(sol.params, ax, F, f, 2)[1])
    return tab, metric, F


def _einstein_defect(tab: XLDerivatives, metric, F):
    """|det g - e^{3 g}| / e^{3 g} from an order-2 pass (an array for stacked points)."""
    g11, g12, g22 = metric
    # det from the entries, not the jet's closure det: this is the closure's check
    det = g11 * g22 - g12 * g12
    rhs = np.exp(3.0 * (F + tab.L()))
    defect = abs(det - rhs) / rhs
    return defect if isinstance(defect, np.ndarray) else float(defect)
