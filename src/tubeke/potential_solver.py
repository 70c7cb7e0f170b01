"""Taylor-series solver for the radial potential profile F.

The Kähler-Einstein potential of T_p restricts, on the orbit slice
z = (0, x), to a single even strictly-convex function F of x in (-1, 1)
solving

    F'' = (4 e^{3F} + F'^2) / ((2p-1) x F' + 4pK),      K = (2p+1)/3,

with F'(0) = 0 and F(x) -> +infinity as x -> 1.  The free initial value
F(0) is pinned down by the blow-up condition.  The equation is invariant
under the dilation F(x) -> F(lambda x) + (2/3) ln(lambda), so a trajectory
from any F(0) = c that blows up at x_b is carried onto the critical one by
lambda = x_b: the critical value is c + (2/3) ln(x_b).  Read backwards, the
law says that every march blows up, at x_b = exp(-3(c - F0)/2) for the
critical value F0, so a march needs no end point.

A solve is one march of Taylor steps from F(0) = 2.  At each node the
Cauchy-product recurrence of

    f' D = 4E + f^2,    F' = f,    E' = 3fE,     D = (2p-1) x f + 4pK,

with f = F' and E = e^{3F}, gives the series of (F, f) to order 24
(_series).  The recurrence is written out term by term in a generated
module, _taylor_series (tools/write_taylor_series.py), whose Cauchy sums
run from 0.0, left to right, as CPython's sum() of floats did up to 3.11
(3.12's is compensated), so a solve's nodes are the same on Python 3.10 to
3.13.  A step is 0.2 of the radius estimate |a_22/a_24|^{1/2} from F's
coefficients a_k, and the march stops once u = x f reaches 1e8.  Both rules
are unchanged by the dilation, so a march from any F(0) takes the same
steps up to scale.  Its blow-up x_b gives F0, and the law maps its nodes
onto the critical profile: 80 nodes (x, F, f = F') for every p.

Every node carries its own series, which the PotentialSolution constructor
rebuilds from the node's (x, F, f), so solved, loaded and directly built
solutions share one interpolant: F and f at x are the series of the last
node at or below |x|, a polynomial in the offset.  Higher f-derivatives are
never obtained by differentiating it; one chain, _ode_chain, recomputes Z
and its derivatives and f', f'', f''' exactly from the ODE at the
interpolated (F, f).  The integral-identity check integrates the same
polynomials exactly.

An evaluator call makes one domain check (|x| <= x_max), one node lookup
and one series evaluation, which F and f share, and one parity step for the
odd quantities, on one of two paths.  One value (any 0-d input) takes the
float path: it is converted once with float(), its node found with
bisect_right on a list of the nodes, and its offset and ODE chain formed
in Python floats; its running powers and their sum with the node's
coefficients are the stacked path's accumulate and einsum on one row.  An
array takes the stacked path, which does the same on whole arrays.
Python floats round as numpy's float64 does, so a single value's results
are Python floats with the bits of its row in a stacked call.  A value
either path refuses gets one message, from _refuse.

The profile is a function of p alone (1 <= p <= _P_MAX), and
solve_potential is its one source: a solution file records a solve, and
load_solution repeats it.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._taylor_series import series as _series
from .errors import DomainError
from .params import TubeParams

__all__ = [
    "TubeParams",
    "PotentialSolution",
    "solve_potential",
    "load_solution",
]

# the march: the series order, the step as a fraction of the coefficients'
# radius estimate, the start F(0) (whose march blows up at 0.0704 for p = 1
# and near 1040 for p = 20000) and the u = x f at which it stops.  A step
# of 0.25 of the radius leaves a truncation bias of about 2.5e-15 in F0 at
# order 24; 0.2 leaves none above rounding.
_ORDER = 24
_STEP = 0.2
_C_START = 2.0
_U_CAP = 1e8

# the largest p solved: the blow-up estimate error at the last node, about
# c0 d^2 with c0 = lim (f - 1/(1-x)) ~ p/3 and d ~ 9.3e-9 the last node's
# distance to the blow-up, grows like 2.9e-17 p, to 5.8e-13 here, 0.58 of
# its 1e-12 bound (first refused at p = 34551)
_P_MAX = 20000


def _horner(coeffs, t):
    value = 0.0
    for c in reversed(coeffs):
        value = value * t + c
    return value


def _integrate(p, c):
    """One Taylor march of (F, f) from x = 0, F = c, f = 0 to the blow-up.

    Returns (blowup_x, xs, Fs, fs): x + 1/f at the last node (f ~ 1/(x_b - x)
    below the singularity, so this is x_b up to O(x_b/u^2)) and the node
    lists.  Each step takes the series at its node with the previous step as
    scale (the first: e^{-3c/2}, a length the dilation carries like x), and
    goes 0.2 of the radius estimate |a_22/a_24|^{1/2} of F's coefficients a_k.
    The march stops once u = x f reaches _U_CAP; by the dilation law every
    F(0) = c blows up, so it always does.
    """
    x, F, f = 0.0, c, 0.0
    h = math.exp(-1.5 * c)
    xs, Fs, fs = [x], [F], [f]
    while x * f < _U_CAP:
        Fc, fc = _series(p, x, F, f, math.exp(3.0 * F), h)
        t = _STEP * math.sqrt(abs(Fc[-3] / Fc[-1]))
        F, f = _horner(Fc, t), _horner(fc, t)
        h *= t
        x += h
        xs.append(x)
        Fs.append(F)
        fs.append(f)
    return x + 1.0 / f, xs, Fs, fs


def _ode_chain(params, ax, F, f, n):
    """The first n of [Z, f', Z', f'', Z'', f'''] at |x| = ax, from the ODE.

    With Z = e^{3F} and D = (2p-1)xf + 4pK, in the order formed:

        f'   = (4Z + f^2)/D,                        Z'  = 3fZ,
        f''  = (4Z' - f'D' + 2ff')/D,               Z'' = 3(f'Z + fZ'),
        f''' = (4Z'' - 2f''D' - f'D'' + 2f'^2 + 2ff'')/D,

    where D' and D'' follow from the product rule.  f is not read when
    n = 1.
    """
    Z = np.exp(3.0 * F)
    if type(F) is float:   # one point's chain runs in Python floats
        Z = float(Z)
    if n == 1:
        return [Z]
    p = params.p
    p2m1 = 2.0 * p - 1.0
    D = p2m1 * ax * f + 4.0 * p * params.K_float
    f1 = (4.0 * Z + f * f) / D
    if n == 2:
        return [Z, f1]
    Z1 = 3.0 * f * Z
    D1 = p2m1 * (f + ax * f1)
    f2 = (4.0 * Z1 - f1 * D1 + 2.0 * f * f1) / D
    if n <= 4:
        return [Z, f1, Z1, f2][:n]
    Z2 = 3.0 * (f1 * Z + f * Z1)
    D2 = p2m1 * (2.0 * f1 + ax * f2)
    f3 = (4.0 * Z2 - 2.0 * f2 * D1 - f1 * D2 + 2.0 * f1 * f1 + 2.0 * f * f2) / D
    return [Z, f1, Z1, f2, Z2, f3][:n]


def _single(x):
    """x as a Python float when it is one value (any 0-d input), else None."""
    if isinstance(x, float | int) or np.ndim(x) == 0:
        return float(x)
    return None


def _sign(x):
    """-1.0 where x < 0, else 1.0 (also at -0.0), for a float or a float array."""
    if isinstance(x, np.ndarray):
        return np.where(x < 0.0, -1.0, 1.0)
    return -1.0 if x < 0.0 else 1.0


# ---------------------------------------------------------------------------
# solution object
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PotentialSolution:
    """The profile for one value of p: nodes and their series.

    Built from the nodes (x, F, f) on [0, x_blowup), which give F0 = F(0)
    and the achieved blow-up abscissa achieved_blowup_x, the grid's own
    estimate x_last + 1/f_last of where f blows up.  Each node but the last
    carries the series of (F, f) through it (_series, scaled by the
    distance to the next node), and evaluation anywhere in (-x_last,
    x_last) sums the series of the last node at or below |x|, then runs the
    ODE chain (_ode_chain) for Z and the higher derivatives, with parity
    carrying each odd quantity to negative x.

    The constructor is the one gate for a profile: it keeps read-only float
    copies of xs, Fs and fs and raises ValueError unless they pass every
    check of _validate_solution_data, however the solution is built.

    stats holds the node count "nodes" and the largest integral-identity
    residual "identity_residual".

    Equality and hash are those of identity: a solution equals only
    itself.  Compare xs, Fs and fs to ask whether two hold one profile.
    """

    params: TubeParams
    xs: np.ndarray = field(repr=False)
    Fs: np.ndarray = field(repr=False)
    fs: np.ndarray = field(repr=False)
    F0: float = field(init=False)
    achieved_blowup_x: float = field(init=False)
    stats: dict = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("xs", "Fs", "fs"):
            nodes = np.array(getattr(self, name), dtype=float)
            nodes.flags.writeable = False
            object.__setattr__(self, name, nodes)
        blowup_x, resid, coeffs = _validate_solution_data(self.params, self.xs, self.Fs, self.fs)
        object.__setattr__(self, "F0", float(self.Fs[0]))
        object.__setattr__(self, "achieved_blowup_x", blowup_x)
        object.__setattr__(self, "stats", {"nodes": len(self.xs), "identity_residual": resid})
        object.__setattr__(self, "_inner", self.xs[1:-1])
        object.__setattr__(self, "_h", np.diff(self.xs))
        object.__setattr__(self, "_coeffs", coeffs)
        # the float path's copies: Python lists of the nodes and widths, and
        # each interval's (2, _ORDER + 1) row of coefficients
        object.__setattr__(self, "_lists", (self._inner.tolist(), self.xs.tolist(),
                                            self._h.tolist(), list(coeffs.transpose(1, 0, 2))))

    # -- bookkeeping --------------------------------------------------------

    @property
    def x_max(self) -> float:
        """Largest abscissa covered by the grid (just below 1)."""
        return float(self.xs[-1])

    def _at(self, x):
        """(x, |x|, F, f): the one domain check and the profile at |x|.

        One value (any 0-d input) takes the float path: x comes back as a
        Python float and |x|, F and f as Python floats, with the bits of a
        row of a stacked call (_point).  Anything else comes back as float
        arrays (_profile).  One comparison per path, |x| <= x_max, admits
        the abscissae; only a refusal looks further, to name its reason.
        """
        single = _single(x)
        if single is not None:
            return single, *self._point(single)
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        if not (ax <= self.xs[-1]).all():   # false for NaN
            self._refuse(ax)
        return x, ax, *self._profile(ax)

    def _refuse(self, ax):
        """Raise the DomainError for ax (a float or an array) that is not all admitted.

        It names the first reason that holds, in this order: a non-finite
        value, |x| >= 1, |x| beyond x_max.
        """
        if not np.all(np.isfinite(ax)):
            raise DomainError("x must be finite")
        if np.any(ax >= 1.0):
            raise DomainError("|x| must be < 1")
        raise DomainError(
            f"|x| exceeds the solved range [0, {self.x_max!r}] "
            "(the grid stops where f crosses the blow-up threshold)"
        )

    def _point(self, x):
        """(|x|, F, f) at one float x, as _profile's row for it in Python floats.

        The same node and offset, formed in Python floats, which round as
        numpy's do, and the same running powers and einsum over the node's
        row of coefficients, so the bits are those of the stacked row.
        """
        inner, xs, h, rows = self._lists
        ax = abs(x)
        if not ax <= xs[-1]:   # false for NaN
            self._refuse(ax)
        i = bisect_right(inner, ax)   # searchsorted(side="right")
        t = (ax - xs[i]) / h[i]
        powers = np.full(_ORDER + 1, t)
        powers[0] = 1.0
        np.multiply.accumulate(powers, out=powers)
        F, f = np.einsum("...k,...k->...", rows[i], powers).tolist()
        return ax, F, f

    def _profile(self, ax):
        """(F, f) at the abscissae 0 <= ax <= x_max, each shaped like ax.

        The node i at or below each abscissa (the last interval's left node
        at x_max) sums its series at t = (ax - x_i)/h_i in the power basis:
        the powers are running products and each row's sum runs over its
        own contiguous terms, so a row of a stack has the bits of the single
        call, and at a node (t = 0) the stored values come back exactly.
        """
        t = ax.reshape(-1)
        i = self._inner.searchsorted(t, side="right")
        t = (t - self.xs[i]) / self._h[i]
        powers = np.empty((t.size, _ORDER + 1))
        powers[:, 0] = 1.0
        powers[:, 1:] = t[:, None]
        np.multiply.accumulate(powers, axis=1, out=powers)
        coeffs = self._coeffs.take(i, axis=1)
        return np.einsum("...k,...k->...", coeffs, powers).reshape((2, *ax.shape))

    # -- evaluation ---------------------------------------------------------

    def eval_F(self, x):
        """Potential profile F at x (scalar or array), |x| < 1 by parity."""
        return self._at(x)[2]

    def eval_f_derivs(self, x, max_order: int = 3):
        """[f, f', f'', f'''] at x, truncated to max_order+1 entries.

        f is the node's series; f', f'' and f''' come from the ODE at the
        series' (F, f) through _ode_chain.  Parity (f, f'' odd; f', f'''
        even) extends the stored half-line grid to negative x; -0.0 takes
        the sign of +0.0.

        Parameters
        ----------
        x : float or ndarray
            Evaluation abscissa(e), |x| < 1 and within the solved range.
        max_order : int
            Highest derivative order of f to return, 0..3.

        Returns
        -------
        list of float or ndarray
            [f, f', ...] with max_order+1 entries.
        """
        if not 0 <= max_order <= 3:
            raise ValueError(f"max_order must be in 0..3, got {max_order}")
        x, ax, F, f = self._at(x)
        sgn = _sign(x)
        out = [sgn * f]
        if max_order:
            out += _ode_chain(self.params, ax, F, f, 2 * max_order)[1::2]
        if max_order >= 2:
            out[2] = sgn * out[2]
        return out

    def eval_Z(self, x, max_order: int = 2):
        """[Z, Z', Z''] with Z = e^{3F}, truncated to max_order+1 entries.

        All three come from _ode_chain; Z and Z'' are even, Z' odd.
        """
        if not 0 <= max_order <= 2:
            raise ValueError(f"max_order must be in 0..2, got {max_order}")
        x, ax, F, f = self._at(x)
        out = _ode_chain(self.params, ax, F, f, 2 * max_order + 1)[::2]
        if max_order:
            out[1] = _sign(x) * out[1]
        return out

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        """The record of the solve: p, F0, the blow-up abscissa and the node count."""
        return {"p": self.params.p, "F0": self.F0, "blowup_x": self.achieved_blowup_x,
                "nodes": len(self.xs)}

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()) + "\n")


def _node_series(params, xs, Fs, fs):
    """Every interval's series from its left node, shape (2, nodes - 1, _ORDER + 1).

    Row 0 holds F's coefficients and row 1 f's, in the offset scaled by the
    interval's width, so each polynomial runs over t in [0, 1].
    """
    Fc, fc = _series(params.p, xs[:-1], Fs[:-1], fs[:-1], np.exp(3.0 * Fs[:-1]), np.diff(xs))
    return np.ascontiguousarray(np.transpose([Fc, fc], (0, 2, 1)))


def _identity_residuals(params, xs, Fs, fs, fc):
    """Per-node relative residual of the integro-differential identity.

    The profile satisfies, besides the pointwise closure Z = e^{3F}, the
    integrated identity

        ((2p-1)xf + 4pK) f' = (2p-1)xf^3 + (6pK+1)f^2
                              - 2(p+1) \\int_0^x f^3 dt + 4 e^{3F(0)}.

    This check rebuilds f' from the right-hand side — with the integral of
    f^3 taken exactly over each interval's series of f (_node_series) — and
    compares the implied Z against e^{3F} at every node.  It is independent
    of how the grid was produced, so it doubles as corruption detection for
    arrays given to the PotentialSolution constructor (a 1e-6 perturbation
    of a single node's F shows up at 3e-6 here, far above the accepted 1e-8
    level; a solve reads about 1e-14).  fc is f's rows of _node_series.
    """
    p = params.p
    K = params.K_float
    # \\int_0^1 f(t)^3 dt = sum_{j,k} f_j f_k m_{j+k}, with the moments
    # m_i = \\int_0^1 t^i f(t) dt = sum_l f_l/(i + l + 1)
    k = np.arange(_ORDER + 1)
    moments = fc @ (1.0 / (np.arange(2 * _ORDER + 1)[:, None] + k + 1.0)).T
    cube = np.einsum("nj,nk,njk->n", fc, fc, moments[:, k[:, None] + k])
    integral = np.concatenate([[0.0], np.cumsum(np.diff(xs) * cube)])
    rhs = ((2 * p - 1) * xs * fs**3 + (6 * p * K + 1) * fs**2
           - 2 * (p + 1) * integral + 4.0 * math.exp(3.0 * Fs[0]))
    Z_implied = (rhs - fs**2) / 4.0
    Z_true = np.exp(3.0 * Fs)
    return np.abs(Z_implied - Z_true) / Z_true


def _validate_solution_data(params, xs, Fs, fs):
    """Every invariant of a solution, checked once by PotentialSolution's constructor.

    xs, Fs and fs are float arrays.  Returns the blow-up estimate, the
    largest integral-identity residual and the nodes' series (_node_series).
    """
    if not (xs.ndim == 1 and xs.shape == Fs.shape == fs.shape):
        raise ValueError(f"node arrays must be 1-d of one length, got shapes "
                         f"{xs.shape}, {Fs.shape} and {fs.shape}")
    if len(xs) < 4:
        raise ValueError("solution grid has fewer than 4 nodes")
    finite = np.isfinite(xs) & np.isfinite(Fs) & np.isfinite(fs)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"node {i} is not finite: x={xs[i]}, F={Fs[i]}, f={fs[i]}")
    if xs[0] != 0.0 or fs[0] != 0.0:
        raise ValueError("grid must start at x=0 with f(0)=0 (F is even)")
    if not np.all(np.diff(xs) > 0.0):
        raise ValueError("node abscissae must be strictly increasing")
    if xs[-1] >= 1.0:
        raise ValueError("nodes must stay below x=1")
    if not np.all(np.diff(fs) > 0.0):
        raise ValueError("f must be strictly increasing along the grid (F strictly convex)")
    # f rises from f(0) = 0, so f_last > 0 and the estimate is finite
    blowup_x = float(xs[-1] + 1.0 / fs[-1])
    # near the blow-up f is 1/(x_b - x) to leading order, so against the
    # exact law 1/(1 - x) the last node carries the relative error
    # |1 - x_b| f_last.  solve_potential's dilation map puts x_b at 1 up to
    # rounding, so its grids read about 1e-16 f_last here; at the cap 1e8,
    # a blow-up estimate that misses 1 by more than 1e-11 is refused.
    tail = abs(1.0 - blowup_x) * fs[-1]
    if not tail <= 1e-3:
        raise ValueError(
            f"tail error |1 - blowup_x| f = {tail:.2e} at the last node (f={fs[-1]:.3g}) "
            f"exceeds 1e-3: the grid does not resolve the blow-up there"
        )
    # with d = x_b - x, f = 1/d + c0 + o(1) and (2p-1)/(4Z) = d^3 (1 + 3 c0 d
    # + o(d)) near the singularity, so the distances d_Z and 1/f differ by
    # 2 c0 d^2: twice the error of the x + 1/f blow-up estimate
    p = params.p
    d_Z = ((2 * p - 1) / (4.0 * math.exp(3.0 * Fs[-1]))) ** (1.0 / 3.0)
    estimate_err = 0.5 * abs(d_Z - 1.0 / fs[-1])
    if not estimate_err <= 1e-12:
        raise ValueError(
            f"blow-up estimate error {estimate_err:.2e} at the last node (f={fs[-1]:.3g}) "
            f"exceeds 1e-12"
        )
    if abs(blowup_x - 1.0) > 1e-5:
        raise ValueError(f"blow-up abscissa {blowup_x!r} misses 1 by more than 1e-5")
    coeffs = _node_series(params, xs, Fs, fs)
    resid = _identity_residuals(params, xs, Fs, fs, coeffs[1])
    worst = float(resid.max())
    if not worst <= 1e-8:
        raise ValueError(
            f"integral-identity residual {worst:.3e} exceeds 1e-8 "
            f"at node x={float(xs[resid.argmax()])!r}"
        )
    return blowup_x, worst, coeffs


def solve_potential(params: TubeParams) -> PotentialSolution:
    """Find F(0) by the dilation law of the ODE and record the profile.

    The dilation F(x) -> F(lambda x) + (2/3) ln(lambda) maps solutions to
    solutions, so a march from F(0) = c that blows up at x_b yields the
    critical value c + (2/3) ln(x_b) exactly, and every march blows up
    somewhere.  A solve is one Taylor march (_integrate) from F(0) = 2 to
    u = x f = 1e8, 79 steps for every p.  Its blow-up x_b gives
    F0 = 2 + (2/3) ln(x_b), and the same law maps its nodes onto the
    critical profile: x -> x/x_b, F -> F + (2/3) ln(x_b), f -> x_b f.  The
    mapped grid's own blow-up estimate x_last + 1/f_last, achieved_blowup_x,
    must lie within 1e-5 of 1, its error at the last node must not exceed
    1e-12, and the tail error |1 - x_b| f there must not exceed 1e-3.

    The PotentialSolution constructor derives F0 and that estimate from the
    nodes and checks these and every other invariant, raising ValueError.

    Raises
    ------
    ValueError
        If p exceeds _P_MAX, before the march.
    """
    p = params.p
    if p > _P_MAX:
        raise ValueError(f"p = {p} is not supported: the solver takes p from 1 to {_P_MAX}")
    x_b, xs, Fs, fs = _integrate(p, _C_START)
    shift = 2.0 / 3.0 * math.log(x_b)
    xs = np.array(xs) / x_b
    fs = np.array(fs) * x_b
    Fs = np.array(Fs) + shift
    return PotentialSolution(params=params, xs=xs, Fs=Fs, fs=fs)


def load_solution(path) -> PotentialSolution:
    """Solve for the p of a record written by PotentialSolution.save.

    ValueError, naming the file, for anything but a JSON object with a
    valid p, and, naming the keys, for a record that differs from the solve's.
    """
    try:
        record = json.loads(Path(path).read_text())
        if not isinstance(record, dict) or "p" not in record:
            raise ValueError("a solution record is a JSON object with a key 'p'")
        sol = solve_potential(TubeParams(p=record["p"]))
        fresh, absent = sol.to_dict(), object()
        differ = [k for k in {**fresh, **record} if record.get(k, absent) != fresh.get(k, absent)]
        if differ:
            raise ValueError(f"the record differs from the solve for p = {sol.params.p} "
                             f"at {', '.join(map(repr, differ))}")
    except (ValueError, RecursionError) as exc:   # json raises the latter for deep nesting
        raise ValueError(f"solution file {path}: {exc}") from exc
    return sol
