"""Shooting solver for the radial potential profile F.

The Kähler-Einstein potential of T_p restricts, on the orbit slice
z = (0, x), to a single even strictly-convex function F of x in (-1, 1)
solving

    F'' = (4 e^{3F} + F'^2) / ((2p-1) x F' + 4pK),      K = (2p+1)/3,

with F'(0) = 0 and F(x) -> +infinity as x -> 1.  The free initial value
F(0) is pinned down by the blow-up condition.  The equation is invariant
under the dilation F(x) -> F(lambda x) + (2/3) ln(lambda), so a trajectory
from any F(0) = c that blows up at x_b is carried onto the critical one by
lambda = x_b: the critical value is c + (2/3) ln(x_b).  Read backwards, the
law says that every shot blows up, at x_b = exp(-3(c - F0)/2) for the
critical value F0, so a march runs until f crosses the blow-up cap and
needs no end point.  The solver makes a coarse shot and one recorded
corrective shot, whose blow-up x_b gives F0; the law maps the corrective
shot's nodes onto the critical profile, a dense grid of (x, F, f = F')
with analytic evaluators for F, f, f', f'', f''' and Z = e^{3F}.  The
march guards its Runge-Kutta stages with one overflow check, which
rejects the step like a NaN error.

Higher f-derivatives are never obtained by differentiating the
interpolant; one chain, _ode_chain, recomputes Z and its derivatives and
f', f'', f''' exactly from the ODE at the interpolated (F, f), which is
what keeps f''' accurate enough for curvature work near the boundary.
Every evaluator, the interpolant's node slopes and the integral-identity
check read that chain.

An evaluator call, at a scalar or an array, makes one domain check (one
reduction, max |x|) and one interval lookup (_locate), whose (interval,
offset) pair the F and f interpolants share, and one parity step for the
odd quantities.  A scalar's results come back as Python floats.

The profile is a function of p alone (1 <= p <= _P_MAX), and
solve_potential is its one source: a solution file records a solve, and
load_solution repeats it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError, MaxStepsError
from .params import TubeParams

__all__ = [
    "TubeParams",
    "PotentialSolution",
    "solve_potential",
    "integral_identity_residuals",
    "load_solution",
]

# node spacing of the recorded grid: cap h at ETA*(1-x) so the cubic
# interpolation error stays ~1e-9 even where f ~ 1/(1-x) steepens
_H_MAX_RECORD = 0.008
_ETA_RECORD = 0.012

# dilation solve: the coarse shot starts at F(0) = _C_START, which blows up
# at 0.0704 for p = 1 and near 1040 for p = 20000; the recorded fine shot
# starts within ~1e-9 of the critical value
_C_START = 2.0

# the one accuracy of every solve: the fine shots' local error target,
# the slope f at which a shot counts as blown up, and the accepted steps
# one integration may take
_TOLERANCE = 1e-12
_F_CAP = 1e8
_MAX_STEPS = 500_000

# the largest p solved: the blow-up estimate error at the last node grows
# like 3.3e-17 p, to 6.6e-13 here, 2/3 of its 1e-12 bound (passed at 30248)
_P_MAX = 20000

# 5-point Gauss-Legendre rule on [0,1]; exact for the degree-9 integrand
# (cubic interpolant cubed) used by the integral-identity validator.  The
# nodes and weights on [-1, 1] are those of numpy.polynomial.legendre.
# leggauss(5), written out so that importing the package does not import
# numpy.polynomial (a few ms and about a megabyte in every process)
_LEGGAUSS5_X = (-0.906179845938664, -0.5384693101056831, 0.0,
                0.5384693101056831, 0.906179845938664)
_LEGGAUSS5_W = (0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
                0.4786286704993663, 0.23692688505618928)
_GAUSS_X = 0.5 * (np.array(_LEGGAUSS5_X) + 1.0)
_GAUSS_W = 0.5 * np.array(_LEGGAUSS5_W)


def _integrate(p, c, rtol, record=False):
    """Adaptive Cash-Karp 4(5) march of (F, f) from x=0, F=c, f=0.

    Stops only when f crosses _F_CAP: by the dilation law every F(0) = c
    blows up, at a finite x_b.  Returns (blowup_x, accepted, rejected, xs,
    Fs, fs): blowup_x is x + 1/f at the crossing (f ~ 1/(x_b - x) below the
    singularity, so this is x_b up to O(1/_F_CAP^2)); accepted and rejected
    count the steps; the node lists are populated only when record=True.
    _MAX_STEPS caps the accepted steps; a rejected step is retried with a
    smaller h until it is accepted or h underflows, so the march ends.  A
    step whose error estimate is NaN, or whose stages 2-6 overflow e^{3F},
    is retried at h/4; an overflow at the first stage, where the step
    starts, raises.

    The right-hand side is inlined for speed: one integration is worth a
    few thousand steps x 6 stages, and the F-slope of each stage is its f.
    """
    p2m1 = 2.0 * p - 1.0
    pK4 = 4.0 * p * (2.0 * p + 1.0) / 3.0
    exp = math.exp
    f_cap, budget = _F_CAP, _MAX_STEPS
    x, F, f = 0.0, c, 0.0
    h = 1e-3
    xs, Fs, fs = [0.0], [c], [0.0]
    atol = 1e-13
    nsteps = 0
    rejected = 0
    while True:
        if f >= f_cap:
            return x + 1.0 / f, nsteps, rejected, xs, Fs, fs
        nsteps += 1
        if nsteps > budget:
            raise MaxStepsError(f"exceeded {budget} steps at x={x:.12f}")
        if record:
            # keep recorded nodes dense relative to the distance from the
            # singularity; beyond x=1 (possible for a near-critical c) the
            # cap is dropped
            rem = 1.0 - x
            if rem > 0.0:
                cap = _ETA_RECORD * rem
                if h > cap:
                    h = cap
            if h > _H_MAX_RECORD:
                h = _H_MAX_RECORD
        k1f = (4.0 * exp(3.0 * F) + f * f) / (p2m1 * x * f + pK4)
        while True:
            try:
                x2 = x + 0.2 * h
                F2 = F + h * 0.2 * f
                f2 = f + h * 0.2 * k1f
                k2f = (4.0 * exp(3.0 * F2) + f2 * f2) / (p2m1 * x2 * f2 + pK4)
                x3 = x + 0.3 * h
                F3 = F + h * (0.075 * f + 0.225 * f2)
                f3 = f + h * (0.075 * k1f + 0.225 * k2f)
                k3f = (4.0 * exp(3.0 * F3) + f3 * f3) / (p2m1 * x3 * f3 + pK4)
                x4 = x + 0.6 * h
                F4 = F + h * (0.3 * f - 0.9 * f2 + 1.2 * f3)
                f4 = f + h * (0.3 * k1f - 0.9 * k2f + 1.2 * k3f)
                k4f = (4.0 * exp(3.0 * F4) + f4 * f4) / (p2m1 * x4 * f4 + pK4)
                x5 = x + h
                F5 = F + h * (-11.0 / 54.0 * f + 2.5 * f2 - 70.0 / 27.0 * f3 + 35.0 / 27.0 * f4)
                f5 = f + h * (-11.0 / 54.0 * k1f + 2.5 * k2f - 70.0 / 27.0 * k3f + 35.0 / 27.0 * k4f)
                k5f = (4.0 * exp(3.0 * F5) + f5 * f5) / (p2m1 * x5 * f5 + pK4)
                x6 = x + 0.875 * h
                F6 = F + h * (1631.0 / 55296.0 * f + 175.0 / 512.0 * f2 + 575.0 / 13824.0 * f3
                              + 44275.0 / 110592.0 * f4 + 253.0 / 4096.0 * f5)
                f6 = f + h * (1631.0 / 55296.0 * k1f + 175.0 / 512.0 * k2f + 575.0 / 13824.0 * k3f
                              + 44275.0 / 110592.0 * k4f + 253.0 / 4096.0 * k5f)
                k6f = (4.0 * exp(3.0 * F6) + f6 * f6) / (p2m1 * x6 * f6 + pK4)
            except OverflowError:
                err = math.nan
            else:
                Fn = F + h * (37.0 / 378.0 * f + 250.0 / 621.0 * f3 + 125.0 / 594.0 * f4
                              + 512.0 / 1771.0 * f6)
                fn = f + h * (37.0 / 378.0 * k1f + 250.0 / 621.0 * k3f + 125.0 / 594.0 * k4f
                              + 512.0 / 1771.0 * k6f)
                # embedded 4th-order error estimate
                eF = h * ((37.0 / 378.0 - 2825.0 / 27648.0) * f
                          + (250.0 / 621.0 - 18575.0 / 48384.0) * f3
                          + (125.0 / 594.0 - 13525.0 / 55296.0) * f4
                          + (-277.0 / 14336.0) * f5
                          + (512.0 / 1771.0 - 0.25) * f6)
                ef = h * ((37.0 / 378.0 - 2825.0 / 27648.0) * k1f
                          + (250.0 / 621.0 - 18575.0 / 48384.0) * k3f
                          + (125.0 / 594.0 - 13525.0 / 55296.0) * k4f
                          + (-277.0 / 14336.0) * k5f
                          + (512.0 / 1771.0 - 0.25) * k6f)
                scF = atol + rtol * (abs(F) if abs(F) > abs(Fn) else abs(Fn))
                scf = atol + rtol * (abs(f) if abs(f) > abs(fn) else abs(fn))
                err = abs(eF) / scF
                errf = abs(ef) / scf
                if errf > err:
                    err = errf
            if err != err:
                rejected += 1
                h *= 0.25
                if h < 1e-15:
                    raise MaxStepsError(f"step size underflow at x={x:.12f}")
                continue
            if err <= 1.0:
                x += h
                F, f = Fn, fn
                if record:
                    xs.append(x)
                    Fs.append(F)
                    fs.append(f)
                fac = 0.9 * err ** -0.2 if err > 1e-10 else 5.0
                if fac > 5.0:
                    fac = 5.0
                h *= fac
                break
            rejected += 1
            fac = 0.9 * err ** -0.2
            if fac < 0.1:
                fac = 0.1
            h *= fac


# ---------------------------------------------------------------------------
# piecewise-cubic Hermite evaluation
# ---------------------------------------------------------------------------

class _Hermite:
    """Piecewise cubic with prescribed values and slopes at the nodes.

    Coefficients are precomputed per interval so that evaluation is one
    fused polynomial at the (interval, offset) pair of _locate, and so that
    the value at a node equals the stored node value exactly.  Cubics on
    one grid share that pair: a solution's F and f interpolants read it
    from one lookup per evaluation.
    """

    __slots__ = ("ys", "ds", "c2", "c3")

    def __init__(self, xs, ys, ds):
        h = np.diff(xs)
        slope = np.diff(ys) / h
        d0, d1 = ds[:-1], ds[1:]
        self.ys = ys
        self.ds = ds
        self.c2 = (3.0 * slope - 2.0 * d0 - d1) / h
        self.c3 = (d0 + d1 - 2.0 * slope) / (h * h)

    def at(self, i, u):
        """The cubic of interval i at offset u from its left node."""
        return self.ys[i] + u * (self.ds[i] + u * (self.c2[i] + u * self.c3[i]))


def _locate(xs, t):
    """(i, u): the interval i of the grid xs that holds t, and u = t - xs[i].

    t below the grid falls in the first interval, t at or beyond the last
    node in the last one.  The ndarray method and the ufuncs stand in for
    np.searchsorted and np.clip, whose Python wrappers cost more than the
    lookup itself at a scalar.
    """
    i = np.minimum(np.maximum(xs.searchsorted(t, side="right") - 1, 0), len(xs) - 2)
    return i, t - xs[i]


def _ode_chain(params, ax, F, f, n):
    """The first n of [Z, f', Z', f'', Z'', f'''] at |x| = ax, from the ODE.

    With Z = e^{3F} and D = (2p-1)xf + 4pK, in the order formed:

        f'   = (4Z + f^2)/D,                        Z'  = 3fZ,
        f''  = (4Z' - f'D' + 2ff')/D,               Z'' = 3(f'Z + fZ'),
        f''' = (4Z'' - 2f''D' - f'D'' + 2f'^2 + 2ff'')/D,

    where D' and D'' follow from the product rule.  f is not read when
    n = 1.  The node slopes of the f interpolant are this chain's f' at
    the nodes.
    """
    Z = np.exp(3.0 * F)
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


def _floats_for_scalar(x, values):
    """values as Python floats when the float array x is 0-d, else unchanged."""
    if x.ndim == 0:
        return list(map(float, values))
    return values


# ---------------------------------------------------------------------------
# solution object
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PotentialSolution:
    """Dense shooting result for one value of p.

    Stores the node grid (x, F, f) on [0, x_blowup) together with F(0) and
    the achieved blow-up abscissa, the grid's own estimate x_last +
    1/f_last of where f blows up; evaluation anywhere in (-x_last, x_last)
    goes through cubic Hermite interpolation of (F, f) at |x| and the ODE
    chain (_ode_chain) for Z and the higher derivatives, with parity
    carrying each odd quantity to negative x.

    The constructor is the one gate for a profile: it keeps read-only float
    copies of xs, Fs and fs and raises ValueError unless they pass every
    check of _validate_solution_data, however the solution is built.

    stats records how the solution was obtained: "integrations",
    "accepted_steps" and "rejected_steps" (summed over all integrations;
    all 0 by default, for a solution built directly; a loaded one is a
    solve and carries them), then "nodes" and the largest integral-identity
    residual "identity_residual", which the constructor adds.

    Equality and hash are those of identity: a solution equals only
    itself.  Compare xs, Fs and fs to ask whether two hold one profile.
    """

    params: TubeParams
    F0: float
    xs: np.ndarray = field(repr=False)
    Fs: np.ndarray = field(repr=False)
    fs: np.ndarray = field(repr=False)
    achieved_blowup_x: float
    stats: dict = field(repr=False, default_factory=lambda: {
        "integrations": 0, "accepted_steps": 0, "rejected_steps": 0})

    def __post_init__(self):
        for name in ("xs", "Fs", "fs"):
            nodes = np.array(getattr(self, name), dtype=float)
            nodes.flags.writeable = False
            object.__setattr__(self, name, nodes)
        resid = _validate_solution_data(self.params, self.F0, self.xs, self.Fs, self.fs,
                                        self.achieved_blowup_x)
        object.__setattr__(self, "stats", {**self.stats, "nodes": len(self.xs),
                                           "identity_residual": resid})
        f1 = _ode_chain(self.params, self.xs, self.Fs, self.fs, 2)[1]
        object.__setattr__(self, "_interp_F", _Hermite(self.xs, self.Fs, self.fs))
        object.__setattr__(self, "_interp_f", _Hermite(self.xs, self.fs, f1))

    # -- bookkeeping --------------------------------------------------------

    @property
    def x_max(self) -> float:
        """Largest abscissa covered by the grid (just below 1)."""
        return float(self.xs[-1])

    def _at(self, x):
        """(x, |x|, i, u): the one domain check and interval lookup of an evaluation.

        x comes back as a float array and (i, u) is the _locate pair of |x|,
        which the F and f interpolants share.  One reduction, max |x|,
        admits the abscissae; only a refusal looks further, to name its
        reason.
        """
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        if not ax.max(initial=0.0) <= self.xs[-1]:   # false for NaN
            if not np.isfinite(ax).all():
                raise DomainError("x must be finite")
            if (ax >= 1.0).any():
                raise DomainError("|x| must be < 1")
            raise DomainError(
                f"|x| exceeds the solved range [0, {self.x_max!r}] "
                "(the grid stops where f crosses the blow-up threshold)"
            )
        return x, ax, *_locate(self.xs, ax)

    # -- evaluation ---------------------------------------------------------

    def eval_F(self, x):
        """Potential profile F at x (scalar or array), |x| < 1 by parity."""
        x, _, i, u = self._at(x)
        return _floats_for_scalar(x, [self._interp_F.at(i, u)])[0]

    def eval_f_derivs(self, x, max_order: int = 3):
        """[f, f', f'', f'''] at x, truncated to max_order+1 entries.

        f is interpolated; f', f'' and f''' come from the ODE at the
        interpolated (F, f) through _ode_chain.  Parity (f, f'' odd; f',
        f''' even) extends the stored half-line grid to negative x; -0.0
        takes the sign of +0.0.

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
        x, ax, i, u = self._at(x)
        sgn = np.where(x < 0.0, -1.0, 1.0)
        f = self._interp_f.at(i, u)
        out = [sgn * f]
        if max_order:
            out += _ode_chain(self.params, ax, self._interp_F.at(i, u), f, 2 * max_order)[1::2]
        if max_order >= 2:
            out[2] = sgn * out[2]
        return _floats_for_scalar(x, out)

    def eval_Z(self, x, max_order: int = 2):
        """[Z, Z', Z''] with Z = e^{3F}, truncated to max_order+1 entries.

        All three come from _ode_chain; Z and Z'' are even, Z' odd.
        """
        if not 0 <= max_order <= 2:
            raise ValueError(f"max_order must be in 0..2, got {max_order}")
        x, ax, i, u = self._at(x)
        f = self._interp_f.at(i, u) if max_order else None
        out = _ode_chain(self.params, ax, self._interp_F.at(i, u), f, 2 * max_order + 1)[::2]
        if max_order:
            out[1] = np.where(x < 0.0, -1.0, 1.0) * out[1]
        return _floats_for_scalar(x, out)

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        """The record of the solve: p, F0, the blow-up abscissa and the node count."""
        return {"p": self.params.p, "F0": self.F0, "blowup_x": self.achieved_blowup_x,
                "nodes": len(self.xs)}

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()) + "\n")


def integral_identity_residuals(params: TubeParams, F0: float, xs, Fs, fs) -> np.ndarray:
    """Per-node relative residual of the integro-differential identity.

    The profile satisfies, besides the pointwise closure Z = e^{3F}, the
    integrated identity

        ((2p-1)xf + 4pK) f' = (2p-1)xf^3 + (6pK+1)f^2
                              - 2(p+1) \\int_0^x f^3 dt + 4 e^{3F(0)}.

    This check rebuilds f' from the right-hand side — with the integral
    done by per-interval 5-point Gauss quadrature of the cubic Hermite
    interpolant of f, exact for its degree-9 integrand — and compares the
    implied Z against e^{3F} at every node.  It is independent of how the
    grid was produced, so it doubles as corruption detection for arrays
    given to the PotentialSolution constructor (a 1e-6 perturbation of a
    single node shows up at ~1e-6 here, far above the accepted 1e-8 level).
    """
    p = params.p
    K = params.K_float
    xs = np.asarray(xs, dtype=float)
    Fs = np.asarray(Fs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    Z_true, f1 = _ode_chain(params, xs, Fs, fs, 2)
    interp_f = _Hermite(xs, fs, f1)
    h = np.diff(xs)
    pts = xs[:-1, None] + h[:, None] * _GAUSS_X[None, :]
    seg = (interp_f.at(*_locate(xs, pts)) ** 3 @ _GAUSS_W) * h
    integral = np.concatenate([[0.0], np.cumsum(seg)])
    rhs = ((2 * p - 1) * xs * fs**3 + (6 * p * K + 1) * fs**2
           - 2 * (p + 1) * integral + 4.0 * math.exp(3.0 * F0))
    Z_implied = (rhs - fs**2) / 4.0
    return np.abs(Z_implied - Z_true) / Z_true


def _validate_solution_data(params, F0, xs, Fs, fs, blowup_x):
    """Every invariant of a solution, checked once by PotentialSolution's constructor.

    xs, Fs and fs are float arrays.  Returns the largest integral-identity
    residual over the nodes.
    """
    if not (xs.ndim == 1 and xs.shape == Fs.shape == fs.shape):
        raise ValueError(f"node arrays must be 1-d of one length, got shapes "
                         f"{xs.shape}, {Fs.shape} and {fs.shape}")
    if len(xs) < 4:
        raise ValueError("solution grid has fewer than 4 nodes")
    for name, value in (("F0", F0), ("blowup_x", blowup_x)):
        if not math.isfinite(value):
            raise ValueError(f"{name} = {value} is not finite")
    finite = np.isfinite(xs) & np.isfinite(Fs) & np.isfinite(fs)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"node {i} is not finite: x={xs[i]}, F={Fs[i]}, f={fs[i]}")
    if xs[0] != 0.0 or fs[0] != 0.0:
        raise ValueError("grid must start at x=0 with f(0)=0 (F is even)")
    if Fs[0] != F0:
        raise ValueError("first node F value disagrees with F0")
    # near the blow-up f is 1/(x_b - x) to leading order, so against the
    # exact law 1/(1 - x) the last node carries the relative error
    # |1 - x_b| f_last.  solve_potential's dilation map puts x_b at 1 up to
    # rounding, so its grids read about 1e-16 f_last here; at the cap 1e8,
    # a recorded blow-up that misses 1 by more than 1e-11 is refused.
    tail = abs(1.0 - blowup_x) * fs[-1]
    if not tail <= 1e-3:
        raise ValueError(
            f"tail error |1 - blowup_x| f = {tail:.2e} at the last node (f={fs[-1]:.3g}) "
            f"exceeds 1e-3: the grid does not resolve the blow-up there"
        )
    if not np.all(np.diff(xs) > 0.0):
        raise ValueError("node abscissae must be strictly increasing")
    if xs[-1] >= 1.0:
        raise ValueError("nodes must stay below x=1")
    if not np.all(np.diff(fs) > 0.0):
        raise ValueError("f must be strictly increasing along the grid (F strictly convex)")
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
    resid = integral_identity_residuals(params, F0, xs, Fs, fs)
    worst = float(resid.max())
    if not worst <= 1e-8:
        raise ValueError(
            f"integral-identity residual {worst:.3e} exceeds 1e-8 "
            f"at node x={float(xs[resid.argmax()])!r}"
        )
    return worst


def solve_potential(params: TubeParams) -> PotentialSolution:
    """Find F(0) by the dilation law of the ODE and record the profile.

    The dilation F(x) -> F(lambda x) + (2/3) ln(lambda) maps solutions to
    solutions, so a shot from F(0) = c that blows up at x_b yields the
    critical value c + (2/3) ln(x_b) exactly, and every shot blows up
    somewhere: no shot misses and none is repeated.  Every solve has one
    accuracy: a shot counts as blown up once f crosses 1e8, and one
    integration may take 500,000 accepted steps.  Two integrations, for
    every p:

    1. a coarse shot (rtol 1e-9) from F(0) = 2, which blows up between
       x = 0.07 (p = 1) and x = 1040 (p = 20000);
    2. a recorded shot at rtol 1e-12 from the corrected c, with node
       spacing min(0.008, 0.012*(1-x)), whose blow-up x_b ~ 1 gives
       F0 = c + (2/3) ln(x_b).  The same law maps its nodes onto the
       critical profile: x -> x/x_b, F -> F + (2/3) ln(x_b), f -> x_b f.
       The mapped grid's own blow-up estimate x_last + 1/f_last is stored
       as achieved_blowup_x and must lie within 1e-5 of 1, the estimate's
       error at the last node must not exceed 1e-12, and the tail error
       |1 - x_b| f at the last node must not exceed 1e-3.

    The PotentialSolution constructor checks these and every other
    invariant, raising ValueError; its stats hold the integration counts.

    Raises
    ------
    ValueError
        If p exceeds _P_MAX, before any integration.
    MaxStepsError
        If a single integration exceeds 500,000 accepted steps.
    """
    p = params.p
    if p > _P_MAX:
        raise ValueError(f"p = {p} is not supported: the solver takes p from 1 to {_P_MAX}")
    stats = {"integrations": 0, "accepted_steps": 0, "rejected_steps": 0}

    def shoot(c, rtol, record=False):
        blowup_x, accepted, rejected, *nodes = _integrate(p, c, rtol, record)
        stats["integrations"] += 1
        stats["accepted_steps"] += accepted
        stats["rejected_steps"] += rejected
        return blowup_x, *nodes

    c = _C_START + 2.0 / 3.0 * math.log(shoot(_C_START, 1e-9)[0])
    x_b, xs, Fs, fs = shoot(c, _TOLERANCE, record=True)
    shift = 2.0 / 3.0 * math.log(x_b)
    xs = np.array(xs) / x_b
    fs = np.array(fs) * x_b
    Fs = np.array(Fs) + shift
    return PotentialSolution(params=params, F0=c + shift, xs=xs, Fs=Fs, fs=fs,
                             achieved_blowup_x=float(xs[-1] + 1.0 / fs[-1]), stats=stats)


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
