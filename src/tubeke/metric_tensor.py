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
z2, so only dX[(a, 0)], dX[(a, 1)] and dL[(a, 0)] can be nonzero, and
_chain writes each of the 12 values out as a straight-line formula in
those entries.  Its term order is part of the contract: each formula
adds its terms in the order of the index-word chain rule (metric_jet's
docstring), so every value is bit-identical to that sum.

One chain rule and one MetricJet serve floats and arrays.
x_derivatives and metric_jet take a single point, or stacked points (a
Point of arrays, see tube_geometry): then the tables, the profile
derivatives and the chain rule run once over all of them, every entry of
the MetricJet is an array over the points, and einstein_residual returns
an array of defects.  The verification suites and the axis sweep run
their point loops through these passes; single point queries get floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .params import TubeParams
from .potential_solver import PotentialSolution
from .tube_geometry import Point, _all, _first, _first_point, require_domain

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

    dX[(a, b)] is the common value of every order-(a+b) Wirtinger
    derivative of X with a indices from {z1, conj(z1)} and b from
    {z2, conj(z2)}; likewise dL for L.  Index helpers look entries up
    from an index word (values 1 or 2; bars are irrelevant).
    """

    x_value: float
    r: float  # 1 - 4p Re(z1)
    dX: dict = field(repr=False)
    dL: dict = field(repr=False)

    def X(self, *indices) -> float:
        return self.dX[indices.count(1), len(indices) - indices.count(1)]

    def L(self, *indices) -> float:
        return self.dL[indices.count(1), len(indices) - indices.count(1)]


# The smallest entries of the order-4 tables, and of the curvature built
# from them, are the fourth z1-derivatives: r^-4 times constants >= 1 (dL
# has 2K 3! (2p)^3 / r^4).  They stay normal doubles, and r^4 itself stays
# finite, while r^4 <= 1/tiny; deeper points, or r = inf, are refused.
_R_MAX = float(np.finfo(float).tiny) ** -0.25


def _too_deep(z: Point, r) -> str:
    return (f"point {z} is too deep for the raw metric jet: r = 1 - 4p Re(z1) = {r!r} "
            f"exceeds {_R_MAX:.4g}, where its order-4 entries (~ r^-4) leave the "
            f"double range (bis_extremes and sectional_max work on the axis and accept it)")


def x_derivatives(params: TubeParams, z: Point, max_total_order: int = 4) -> XLDerivatives:
    """Derivative tables of X and L at z, up to the requested total order.

    With r = 1 - 4p Re(z1), s = 1/(2p) and c_a = prod_{j<a} (1 + 2pj):

        dX[(a, 0)] = c_a X / r^a        dX[(a, 1)] = c_a / (2 r^{s+a})
        dX[(a, b>=2)] = 0
        dL[(0, 0)] = (K/p) ln(1/r)      dL[(a>=1, 0)] = 2K (a-1)! (2p)^{a-1} / r^a
        dL[(a, b>=1)] = 0

    Each z1-type derivative of r^{-q} contributes a factor 2pq/r, which is
    where the rising products c_a come from; X is affine in Re(z2), so two
    z2-type indices annihilate it, and L does not see z2 at all.

    Stacked points give arrays.  Raises DomainError, naming the (first)
    point, unless z lies in T_p (which makes r > 0) and r <= _R_MAX.
    """
    if not 0 <= max_total_order <= 4:
        raise ValueError(f"max_total_order must be in 0..4, got {max_total_order}")
    require_domain(params, z)
    r = 1.0 - 4 * params.p * z.z1.real
    ok = r <= _R_MAX
    if not _all(ok):
        raise DomainError(_too_deep(_first_point(z, ok), _first(r, ok)))
    log = np.log if isinstance(r, np.ndarray) else math.log
    x, dX, dL = _tables(params, r, z.z2.real, max_total_order, log)
    return XLDerivatives(x_value=x, r=r, dX=dX, dL=dL)


def _tables(params: TubeParams, r, t, order: int, log):
    """(X, dX, dL) of x_derivatives from r = 1 - 4p Re(z1) and t = Re(z2).

    r and t are floats, or arrays of one shape for stacked points; log is
    math.log for floats and np.log for arrays.
    """
    p = params.p
    s = 1.0 / (2 * p)
    x = t / r**s
    c = [1.0, 1.0]
    for a in range(2, order + 1):
        c.append(c[-1] * (1.0 + 2 * p * (a - 1)))
    K = params.K_float
    dX, dL = {}, {}
    for a in range(order + 1):
        for b in range(order + 1 - a):
            if b == 0:
                dX[(a, b)] = c[a] * x / r**a
            elif b == 1:
                dX[(a, b)] = c[a] / (2.0 * r ** (s + a))
            else:
                dX[(a, b)] = 0.0
            if a == 0 and b == 0:
                dL[(a, b)] = (K / p) * log(1.0 / r)
            elif b == 0:
                dL[(a, b)] = 2.0 * K * math.factorial(a - 1) * (2 * p) ** (a - 1) / r**a
            else:
                dL[(a, b)] = 0.0
    return x, dX, dL


def _chain(tab: XLDerivatives, f, f1, f2=None, f3=None):
    """Metric derivatives from the count tables and (f, f', f'', f''').

    Returns ((g11, g12, g22), val3, val4), where val3[m] and val4[m] are
    the third and fourth derivatives with m indices of z1 type; both are
    None unless f2 and f3 are given, which takes tables of order four.
    Floats and stacked arrays go through the same arithmetic.

    Each value is the chain rule of metric_jet's docstring at the
    representative word (1,)*m + (2,)*(n-m), written out with the only
    table entries that can be nonzero: A_a = dX[(a, 0)], B_a = dX[(a, 1)]
    and L_a = dL[(a, 0)].  The terms stand in the order the index-word
    sum adds them, with the factors in its order; only the terms holding
    an exact zero (dX[(a, b>=2)], dL[(a, b>=1)]) are left out.  That
    order is part of the contract: it keeps every value bit-identical to
    the index-word sum, which the tests keep as the reference.  Do not
    regroup or merge terms.
    """
    dX, dL = tab.dX, tab.dL
    A1, A2, B0, B1 = dX[(1, 0)], dX[(2, 0)], dX[(0, 1)], dX[(1, 1)]
    metric = (f1 * A1 * A1 + f * A2 + dL[(2, 0)],
              f1 * A1 * B0 + f * B1,
              f1 * B0 * B0)
    if f2 is None:
        return metric, None, None
    A3, A4, B2, B3 = dX[(3, 0)], dX[(4, 0)], dX[(2, 1)], dX[(3, 1)]
    val3 = (
        f2 * B0 * B0 * B0,
        f2 * A1 * B0 * B0 + f1 * (B1 * B0 + B1 * B0),
        f2 * A1 * A1 * B0 + f1 * (A2 * B0 + B1 * A1 + B1 * A1) + f * B2,
        f2 * A1 * A1 * A1 + f1 * (A2 * A1 + A2 * A1 + A2 * A1) + f * A3 + dL[(3, 0)],
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
         + dL[(4, 0)]),
    )
    return metric, val3, val4


@dataclass(frozen=True)
class MetricJet:
    """The metric and the derivatives curvature needs, at a point or at stacked points.

    All entries are real: the potential depends only on (Re z1, Re z2).
    g is (g11, g12, g22); d3[m] and d4[m] are the third and fourth
    derivatives with m indices of z1 type, which every index word of that
    count shares (see deriv); profile is the (f, f', f'', f''') at x_value.
    Each entry is a float at a single point and an array over stacked points.
    """

    point: Point
    x_value: float
    g: tuple
    d3: tuple = field(repr=False)
    d4: tuple = field(repr=False)
    profile: tuple = field(repr=False)

    def deriv(self, *word) -> float:
        """g_{i jbar k} or g_{i jbar k lbar} at a word of indices 1, 2 (bars, order immaterial)."""
        if len(word) not in (3, 4) or not set(word) <= {1, 2}:
            raise ValueError(f"expected a word of 3 or 4 indices in {{1, 2}}, got {word}")
        return (self.d3 if len(word) == 3 else self.d4)[word.count(1)]

    @property
    def det(self) -> float:
        g11, g12, g22 = self.g
        return g11 * g22 - g12 * g12

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

    Parameters
    ----------
    sol : PotentialSolution
        Solved potential for the same p.
    z : Point
        A point of T_p, or stacked points of T_p.

    Returns
    -------
    MetricJet
        Of floats, or of arrays for stacked points; those equal the
        single point's values up to numpy's vector log and pow (an ulp
        from libm's), and on the axis, r = 1, exactly.
    """
    tab = x_derivatives(sol.params, z, 4)
    profile = sol.eval_f_derivs(tab.x_value, 3)
    g, d3, d4 = _chain(tab, *profile)
    return MetricJet(point=z, x_value=tab.x_value, g=g, d3=d3, d4=d4, profile=tuple(profile))


def einstein_residual(sol: PotentialSolution, z: Point) -> float:
    """Relative defect of det[g] = e^{3 g(z)} with g(z) = F(X(z)) + L(z).

    The solver enforces this closure along the axis; evaluating it at an
    arbitrary point exercises the whole chain-rule assembly, so it is the
    cheapest end-to-end consistency probe for the metric path.  Stacked
    points give an array.
    """
    return _einstein_defect(sol, *_metric_pass(sol, z))


def _metric_pass(sol: PotentialSolution, z: Point):
    """(tables, (g11, g12, g22)) at z, or at stacked points, from one order-2 pass."""
    tab = x_derivatives(sol.params, z, 2)
    metric, _, _ = _chain(tab, *sol.eval_f_derivs(tab.x_value, 1))
    return tab, metric


def _einstein_defect(sol: PotentialSolution, tab: XLDerivatives, metric):
    """|det g - e^{3 g}| / e^{3 g} from an order-2 pass (an array for stacked points)."""
    g11, g12, g22 = metric
    det = g11 * g22 - g12 * g12
    exp = np.exp if isinstance(det, np.ndarray) else math.exp
    rhs = exp(3.0 * (sol.eval_F(tab.x_value) + tab.L()))
    return abs(det - rhs) / rhs
