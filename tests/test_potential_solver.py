"""Solver tests against the p=1 closed form and the structural invariants.

For p = 1 the profile is known exactly:

    F(x) = ln(2)/3 - ln(1 - x^2),        f(x) = 2x/(1 - x^2),
    f'   = 2(1+x^2)/(1-x^2)^2,           f''  = 4x(3+x^2)/(1-x^2)^3,
    f''' = 12(1+6x^2+x^4)/(1-x^2)^4,     Z    = 2/(1-x^2)^3,

which gives every evaluation path an independent oracle.  Higher p has no
closed form; those cases are covered by the internal-consistency identity,
the asymptotic laws, and frozen regression values.
"""

import json
import math
import re

import numpy as np
import pytest

from tubeke import (
    DomainError,
    Point,
    PotentialSolution,
    TubeParams,
    load_solution,
    solve_potential,
    x_derivatives,
)
from tubeke import potential_solver
from tubeke.potential_solver import _integrate

LN2_OVER_3 = math.log(2.0) / 3.0


def closed_form_p1(x):
    x = np.asarray(x, dtype=float)
    s = 1.0 - x**2
    return {
        "F": LN2_OVER_3 - np.log(s),
        "f": 2.0 * x / s,
        "f1": 2.0 * (1.0 + x**2) / s**2,
        "f2": 4.0 * x * (3.0 + x**2) / s**3,
        "f3": 12.0 * (1.0 + 6.0 * x**2 + x**4) / s**4,
        "Z": 2.0 / s**3,
    }


def test_p1_center_value(sol_p1):
    assert abs(sol_p1.F0 - LN2_OVER_3) < 1e-9


def test_p1_profile_matches_closed_form(sol_p1):
    xs = np.linspace(-0.999, 0.999, 801)
    exact = closed_form_p1(xs)
    f, f1, f2, f3 = sol_p1.eval_f_derivs(xs, 3)
    assert np.max(np.abs(sol_p1.eval_F(xs) - exact["F"])) < 1e-8
    assert np.max(np.abs(f - exact["f"]) / (1.0 + np.abs(exact["f"]))) < 1e-8
    assert np.max(np.abs(f1 - exact["f1"]) / exact["f1"]) < 1e-8
    assert np.max(np.abs(f2 - exact["f2"]) / (1.0 + np.abs(exact["f2"]))) < 1e-8
    assert np.max(np.abs(f3 - exact["f3"]) / exact["f3"]) < 1e-8
    Z, Z1, Z2 = sol_p1.eval_Z(xs, 2)
    # Z' = 3 f Z and Z'' = 3(f' Z + f Z') follow from Z = e^{3F}; the
    # reference values below use only closed-form ingredients
    z1_exact = 3.0 * exact["f"] * exact["Z"]
    z2_exact = 3.0 * (exact["f1"] * exact["Z"] + exact["f"] * z1_exact)
    assert np.max(np.abs(Z - exact["Z"]) / exact["Z"]) < 1e-8
    assert np.max(np.abs(Z1 - z1_exact) / (np.abs(z1_exact) + exact["Z"])) < 1e-8
    assert np.max(np.abs(Z2 - z2_exact) / z2_exact) < 1e-8


# the largest relative error of (F, f, f', f'', f''', Z) over 51 points of
# [1 - 2d, 1 - d], as measured; it grows like 1e-16/d, x's own rounding
P1_MEASURED = {
    1e-1: (3.6e-15, 7.1e-15, 1.4e-14, 2.1e-14, 2.8e-14, 2.0e-14),
    1e-2: (8.7e-15, 3.5e-14, 7.1e-14, 1.1e-13, 1.4e-13, 1.1e-13),
    1e-4: (1.6e-13, 1.4e-12, 2.7e-12, 4.1e-12, 5.4e-12, 4.1e-12),
    1e-6: (1.0e-11, 1.4e-10, 2.8e-10, 4.2e-10, 5.6e-10, 4.2e-10),
    1e-8: (2.7e-10, 4.7e-9, 9.4e-9, 1.4e-8, 1.9e-8, 1.4e-8),
}


@pytest.mark.parametrize("d", sorted(P1_MEASURED))
def test_p1_profile_near_the_boundary(sol_p1, d):
    # within 3x the measured error; 1 - x^2 is formed as (1 - x)(1 + x),
    # exact to one rounding
    xs = np.linspace(1.0 - 2.0 * d, 1.0 - d, 51)
    w = (1.0 - xs) * (1.0 + xs)
    exact = [LN2_OVER_3 - np.log(w), 2.0 * xs / w, 2.0 * (1.0 + xs**2) / w**2,
             4.0 * xs * (3.0 + xs**2) / w**3, 12.0 * (1.0 + 6.0 * xs**2 + xs**4) / w**4,
             2.0 / w**3]
    got = [sol_p1.eval_F(xs), *sol_p1.eval_f_derivs(xs, 3), sol_p1.eval_Z(xs, 0)[0]]
    for value, ref, measured in zip(got, exact, P1_MEASURED[d]):
        assert np.max(np.abs(value / ref - 1.0)) <= 3.0 * measured


def test_scalar_evaluation_returns_scalars(sol_p2):
    F = sol_p2.eval_F(0.3)
    assert np.ndim(F) == 0
    derivs = sol_p2.eval_f_derivs(0.3, 3)
    assert len(derivs) == 4 and all(np.ndim(d) == 0 for d in derivs)


def test_center_slope_closed_form(sols):
    # f'(0) = e^{3 F0}/(pK) follows from the profile equation at x = 0
    for p, sol in sols.items():
        K = sol.params.K_float
        expected = math.exp(3.0 * sol.F0) / (p * K)
        assert abs(sol.eval_f_derivs(0.0, 1)[1] - expected) < 1e-12 * expected


def test_frozen_center_values(sols):
    # regression pins; p=1 is the closed form, higher p certified by the
    # independent integral identity and asymptotics tests in this file
    frozen = {1: 0.23104906018664842, 2: 0.6385331333839872, 3: 0.8775358133422628}
    for p, sol in sols.items():
        assert abs(sol.F0 - frozen[p]) < 5e-11


# F0 to 25 digits: the solver's recurrence (_series) marched over
# mpmath.mpf at 50 digits, in steps of 0.05 of the radius estimate to
# u = x f = 1e18, then F0 = c + (2/3) ln(x + 1/f); starts c = 0 and 2
# agree.  p is passed as an mpf, so that K = (2p+1)/3 is not rounded to a
# double: with an int p the march solves the solver's rounded 4pK, whose
# F0 is 1.3e-17 higher at p = 2 and 1.9e-17 lower at p = 5 (p = 3's 4pK
# rounds to 28 exactly).  p = 1 is the closed form ln(2)/3
REFERENCE_F0 = {1: LN2_OVER_3, 2: 0.6385331333837224061776643,
                3: 0.8775358133419155934005717, 5: 1.185149818030512956516398}


@pytest.mark.parametrize("p", sorted(REFERENCE_F0))
def test_center_value_against_the_reference(p, five_sols):
    # the march reads 1.9e-16 (p=1), 5.6e-16 (p=2), 0 (p=3) and 2.2e-16
    # (p=5) off the reference
    assert abs(five_sols[p].F0 - REFERENCE_F0[p]) <= 1e-14


@pytest.mark.parametrize("p", sorted(REFERENCE_F0))
def test_every_start_gives_the_same_profile(p, monkeypatch):
    # the step and stop rules are dilation-invariant, so a march from any
    # F(0) maps onto one profile: the same steps, and F0 to rounding
    solves = []
    for start in (-3.0, 0.0, 2.0, 5.0):
        monkeypatch.setattr(potential_solver, "_C_START", start)
        solves.append(solve_potential(TubeParams(p=p)))
    assert len({len(sol.xs) for sol in solves}) == 1
    F0s = [sol.F0 for sol in solves]
    assert max(F0s) - min(F0s) <= 4e-15


def test_parity(sols):
    xs = np.linspace(0.0, 0.995, 200)
    for sol in sols.values():
        f_pos = sol.eval_f_derivs(xs, 3)
        f_neg = sol.eval_f_derivs(-xs, 3)
        assert np.array_equal(sol.eval_F(xs), sol.eval_F(-xs))
        assert np.array_equal(f_neg[0], -f_pos[0])  # f odd
        assert np.array_equal(f_neg[1], f_pos[1])   # f' even
        assert np.array_equal(f_neg[2], -f_pos[2])  # f'' odd
        assert np.array_equal(f_neg[3], f_pos[3])   # f''' even


def test_one_read_gives_the_profile_and_its_derivatives(sols):
    # _derivs is eval_F and eval_f_derivs from one read, with the parity,
    # bit for bit, for one value and for arrays
    xs = np.linspace(-0.995, 0.995, 41)
    for sol in sols.values():
        for order in range(4):
            for x in (xs, *xs[::8].tolist(), -0.0):
                F, out = sol._derivs(x, order)
                assert np.array_equal(F, sol.eval_F(x))
                ref = sol.eval_f_derivs(x, order)
                assert len(out) == order + 1
                assert all(np.array_equal(a, b) and type(a) is type(b) for a, b in zip(out, ref))


def test_solution_invariants(sols):
    for sol in sols.values():
        xs, fs = sol.xs, sol.fs
        assert xs[0] == 0.0 and fs[0] == 0.0
        assert sol.Fs[0] == sol.F0
        assert np.all(np.diff(xs) > 0)
        assert np.all(np.diff(fs) > 0)      # f strictly increasing
        assert xs[-1] < 1.0
        assert abs(sol.achieved_blowup_x - 1.0) <= 1e-9   # far inside the 1e-5 envelope


def test_convexity_on_grid(sols):
    xs = np.linspace(-0.9999, 0.9999, 1001)
    for sol in sols.values():
        assert np.all(sol.eval_f_derivs(xs, 1)[1] > 0.0)


def test_determinism(sol_p2):
    again = solve_potential(TubeParams(p=2))
    assert again.F0 == sol_p2.F0
    assert np.array_equal(again.xs, sol_p2.xs)
    assert np.array_equal(again.Fs, sol_p2.Fs)
    assert np.array_equal(again.fs, sol_p2.fs)


@pytest.mark.parametrize("p", [1, 2, 3, 8, 1000])
def test_round_trip_is_bit_identical(tmp_path, p):
    # a file records a solve and loading repeats it: the solver is the one
    # source of profiles
    sol = solve_potential(TubeParams(p=p))
    path = tmp_path / "sol.json"
    sol.save(path)
    loaded = load_solution(path)
    assert loaded.F0 == sol.F0 and loaded.to_dict() == sol.to_dict()
    assert np.array_equal(loaded.xs, sol.xs)
    assert np.array_equal(loaded.Fs, sol.Fs)
    assert np.array_equal(loaded.fs, sol.fs)
    probe = np.linspace(-0.99, 0.99, 257)
    assert np.array_equal(loaded.eval_F(probe), sol.eval_F(probe))
    assert np.array_equal(loaded.eval_f_derivs(probe, 3),
                          sol.eval_f_derivs(probe, 3))
    # evaluations at the stored nodes reproduce the stored values exactly
    assert np.array_equal(loaded.eval_F(loaded.xs[:-1]), loaded.Fs[:-1])
    assert np.array_equal(loaded.eval_f_derivs(loaded.xs[:-1], 0)[0], loaded.fs[:-1])


@pytest.mark.parametrize("key", ["F0", "blowup_x"])
def test_load_rejects_a_non_finite_scalar(tmp_path, sol_p2, key):
    # NaN equals nothing, so the record differs from the solve
    data = sol_p2.to_dict()
    data[key] = math.nan
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=f"solution file {path}: .* at '{key}'$"):
        load_solution(path)


def _built(sol, **changes):
    """PotentialSolution(...) from sol's params and nodes, with changes applied."""
    fields = dict(params=sol.params, xs=sol.xs, Fs=sol.Fs, fs=sol.fs)
    return PotentialSolution(**{**fields, **changes})


def _with(nodes, index, value):
    nodes = np.array(nodes)
    nodes[index] = value
    return nodes


def test_direct_construction_checks_and_rebuilds_the_solution(sol_p2):
    built = _built(sol_p2, xs=list(sol_p2.xs))
    assert built.to_dict() == sol_p2.to_dict()
    assert all(np.array_equal(getattr(built, k), getattr(sol_p2, k)) for k in ("xs", "Fs", "fs"))
    assert (built.F0, built.achieved_blowup_x) == (sol_p2.F0, sol_p2.achieved_blowup_x)
    assert built.stats == sol_p2.stats == {"nodes": len(sol_p2.xs),
                                           "identity_residual": sol_p2.stats["identity_residual"]}
    assert built.eval_F(0.99971) == sol_p2.eval_F(0.99971)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["xs", "Fs", "fs"])
def test_direct_construction_refuses_a_non_finite_node(sol_p2, key, value):
    # before the constructor checked, a NaN F at a node built a solution
    # whose eval_F read NaN beyond it
    with pytest.raises(ValueError, match=f"node 40 is not finite: .*{key[0]}={value}"):
        _built(sol_p2, **{key: _with(getattr(sol_p2, key), 40, value)})


def _short_grid(sol):
    """sol's nodes below f = 20, the last one's x put 3e-5 + 1/f below 1.

    Its tail error reads 3e-5 f = 6e-4, and its last F is set to where
    ((2p-1)/(4Z))^(1/3) = 1/f, so that the blow-up estimate reads exact.
    """
    keep = sol.fs < 20.0
    xs, Fs, fs = sol.xs[keep].copy(), sol.Fs[keep].copy(), sol.fs[keep]
    xs[-1] = 1.0 - 3e-5 - 1.0 / fs[-1]
    Fs[-1] = math.log((2 * sol.params.p - 1) * fs[-1] ** 3 / 4.0) / 3.0
    return {"xs": xs, "Fs": Fs, "fs": fs}


@pytest.mark.parametrize("changes, message", [
    (lambda s: {"Fs": s.Fs[:-1]}, "node arrays must be 1-d of one length"),
    (lambda s: {"xs": s.xs[None]}, "node arrays must be 1-d of one length"),
    (lambda s: {"xs": s.xs[:3], "Fs": s.Fs[:3], "fs": s.fs[:3]}, "fewer than 4 nodes"),
    (lambda s: {"xs": _with(s.xs, 0, 1e-9)}, "grid must start at x=0"),
    # a last f twice too large puts the blow-up estimate 5e-9 below 1
    (lambda s: {"fs": _with(s.fs, -1, 2.0 * s.fs[-1])}, "tail error .* exceeds 1e-3"),
    (lambda s: {"xs": _with(s.xs, 40, s.xs[39])}, "abscissae must be strictly increasing"),
    (lambda s: {"xs": _with(s.xs, -1, 1.0)}, "nodes must stay below x=1"),
    (lambda s: {"fs": _with(s.fs, 40, s.fs[39])}, "f must be strictly increasing"),
    (lambda s: {"xs": s.xs[s.fs < 1e4], "Fs": s.Fs[s.fs < 1e4], "fs": s.fs[s.fs < 1e4]},
     "blow-up estimate error .* exceeds 1e-12"),
    (_short_grid, "blow-up abscissa 0.99997 misses 1 by more than 1e-5"),
    (lambda s: {"Fs": _with(s.Fs, 20, s.Fs[20] + 1e-5)}, "integral-identity residual"),
])
def test_direct_construction_refuses_a_broken_invariant(sol_p2, changes, message):
    with pytest.raises(ValueError, match=message):
        _built(sol_p2, **changes(sol_p2))


def test_a_solution_holds_read_only_copies_of_its_nodes(sol_p2):
    xs = sol_p2.xs.copy()
    built = _built(sol_p2, xs=xs)
    xs[40] = math.nan   # the caller's array, not the solution's
    assert np.isfinite(built.xs).all()
    for sol in (built, sol_p2):
        for key in ("xs", "Fs", "fs"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(sol, key)[40] = math.nan
    assert np.isfinite(sol_p2.Fs).all()


def test_load_rejects_wrong_K(tmp_path, sol_p1):
    # K follows from p; a record that carries it is not a record of a solve
    data = sol_p1.to_dict()
    data["K"] = "5/3"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="at 'K'$"):
        load_solution(path)


@pytest.mark.parametrize("mutate, keys", [
    (lambda d: d.pop("nodes"), "'nodes'"),
    (lambda d: d.__setitem__("F0", "not a number"), "'F0'"),
    (lambda d: d.__setitem__("nodes", 2), "'nodes'"),
    # a blowup_x 1.7e-13 below 1; the solve's own estimate reads 1 at p = 1
    (lambda d: d.update(F0=0.0, blowup_x=1.0 - 1.7e-13), "'F0', 'blowup_x'"),
])
def test_load_rejects_malformed_data(tmp_path, sol_p1, mutate, keys):
    data = sol_p1.to_dict()
    mutate(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=f"differs from the solve for p = 1 at {keys}$"):
        load_solution(path)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_solution(path)


def test_eval_domain_errors(sol_p1):
    # just beyond the last recorded node but still inside (-1, 1)
    beyond = 0.5 * (sol_p1.x_max + 1.0)
    refusals = [(bad, "x must be finite") for bad in (math.nan, math.inf, -math.inf)]
    refusals += [(bad, re.escape("|x| must be < 1")) for bad in (1.0, -1.0, 1.5)]
    refusals += [(bad, re.escape(f"|x| exceeds the solved range [0, {sol_p1.x_max!r}] ("))
                 for bad in (beyond, -beyond)]
    evaluators = (sol_p1.eval_F, sol_p1.eval_f_derivs, sol_p1.eval_Z,
                  lambda x: sol_p1.eval_f_derivs(x, 0), lambda x: sol_p1.eval_Z(x, 0))
    for bad, message in refusals:
        # a scalar, a 0-d array, and a stacked array whose bad entry is not the first
        for x in (bad, np.array(bad), np.array([[0.1, -0.2, 0.3], [0.4, bad, 0.0]])):
            for evaluate in evaluators:
                with pytest.raises(DomainError, match=message):
                    evaluate(x)
    # the first reason in the order above names the refusal, wherever it sits
    with pytest.raises(DomainError, match="finite"):
        sol_p1.eval_F(np.array([0.5, 1.5, beyond, math.nan]))
    with pytest.raises(DomainError, match=re.escape("< 1")):
        sol_p1.eval_F(np.array([0.5, beyond, -1.0]))
    empty = np.empty(0)
    for out in (sol_p1.eval_F(empty), *sol_p1.eval_f_derivs(empty), *sol_p1.eval_Z(empty)):
        assert isinstance(out, np.ndarray) and out.shape == (0,)


# each door that takes a derivative order: (argument, largest order, call)
ORDER_DOORS = {
    "eval_f_derivs": ("max_order", 3, lambda sol, k: sol.eval_f_derivs(0.3, k)),
    "eval_Z": ("max_order", 2, lambda sol, k: sol.eval_Z(0.3, k)),
    "x_derivatives": ("max_total_order", 4,
                      lambda sol, k: x_derivatives(sol.params, Point(0j, 0.3 + 0j), k)),
}


@pytest.mark.parametrize("door", ORDER_DOORS)
def test_derivative_orders_are_integers_in_range(sol_p2, door):
    # any integer type is read as its value; floats, bools and others are
    # refused by name, as n and seed are, and so is an order out of range
    name, top, call = ORDER_DOORS[door]
    for k in (0, top):
        assert repr(call(sol_p2, np.int64(k))) == repr(call(sol_p2, k))
    for bad in (2.0, 1.5, True, False, "1", None):
        message = f"^{name} must be an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            call(sol_p2, bad)
    for bad in (-1, top + 1):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be in 0..{top}, got {bad}")):
            call(sol_p2, bad)


EVALUATORS = {
    "F": lambda sol, x: [sol.eval_F(x)],
    **{f"f_derivs{k}": lambda sol, x, k=k: sol.eval_f_derivs(x, k) for k in range(4)},
    **{f"Z{k}": lambda sol, x, k=k: sol.eval_Z(x, k) for k in range(3)},
}


@pytest.mark.parametrize("evaluator", EVALUATORS)
@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_every_argument_form_gives_the_same_bits(five_sols, p, evaluator):
    # seeded x, both zeros and -0's neighbour, every node and its two
    # neighbours inside the range (x_max's lower one among them), the ends
    # of the range and the last intervals' midpoints; an int, a Python
    # float, np.float64 and a 0-d array each take the float path and give
    # Python floats with the bits of a row of a stacked array
    sol, evaluate = five_sols[p], EVALUATORS[evaluator]
    mids = 0.5 * (sol.xs[-4:-1] + sol.xs[-3:])
    around = np.concatenate([np.nextafter(sol.xs[1:], 0.0), np.nextafter(sol.xs[:-1], 1.0)])
    xs = np.concatenate([np.random.default_rng(21).uniform(-sol.x_max, sol.x_max, 40),
                         [0.0, -0.0, np.nextafter(-0.0, -1.0), sol.x_max, -sol.x_max],
                         mids, -mids, sol.xs, around, -around])
    rows = np.asarray(evaluate(sol, np.stack([xs[::-1], xs])))[:, 1]
    for form in (float, np.float64, np.array):
        values = [evaluate(sol, form(x)) for x in xs.tolist()]
        assert all(type(v) is float for vs in values for v in vs)
        assert np.array(values).T.tobytes() == rows.tobytes(), form
    assert np.array(evaluate(sol, 0)).tobytes() == rows[:, 40].tobytes()
    # the kept read: -x right after x repeats |x| and returns x's read, also
    # after a stacked read of both, which neither uses nor changes it; it has
    # the bits of a fresh solution's first read of -x (seeded x, 0.0, -0.0,
    # x_max and a node)
    for x in [*xs[[0, 1, 40, 41, 43]].tolist(), sol.xs[7]]:
        evaluate(sol, x)
        kept = sol._kept
        evaluate(sol, np.array([x, -x]))
        hit = evaluate(sol, -x)
        assert sol._kept is kept
        fresh = PotentialSolution(sol.params, sol.xs, sol.Fs, sol.fs)
        assert np.array(hit).tobytes() == np.array(evaluate(fresh, -x)).tobytes(), x


@pytest.mark.parametrize("evaluator", EVALUATORS)
@pytest.mark.parametrize("p", [1, 2])
def test_a_single_value_is_refused_as_a_stacked_one(five_sols, p, evaluator):
    # the float path admits |x| <= x_max and hands anything else to the
    # array path's refusal, so one value and a stack holding it read alike
    sol, evaluate = five_sols[p], EVALUATORS[evaluator]
    for bad in (math.nan, math.inf, -math.inf, 1.0, -1.0, np.nextafter(sol.x_max, 1.0)):
        with pytest.raises(DomainError) as stacked:
            evaluate(sol, np.array([0.3, bad]))
        for form in (float, np.float64, np.array):
            # right after a hit at an admitted x, which the refusal leaves kept
            evaluate(sol, 0.3)
            evaluate(sol, -0.3)
            kept = sol._kept
            with pytest.raises(DomainError) as single:
                evaluate(sol, form(bad))
            assert str(single.value) == str(stacked.value), (bad, form)
            assert sol._kept is kept


@pytest.mark.parametrize("evaluator", EVALUATORS)
def test_two_solutions_read_in_turn_keep_their_own_reads(five_sols, evaluator):
    # p = 1 and p = 2 read in turn at x, -x and x again: each repeated |x|
    # returns the solution's own kept read, never the other's
    evaluate, sols = EVALUATORS[evaluator], (five_sols[1], five_sols[2])
    xs = (np.random.default_rng(22).uniform(-0.99, 0.99, (20, 1)) * [1.0, -1.0, 1.0]).ravel()
    reads = [[evaluate(sol, x) for sol in sols] for x in xs.tolist()]
    for k, sol in enumerate(sols):
        rows = np.asarray(evaluate(sol, xs))
        assert np.array([read[k] for read in reads]).T.tobytes() == rows.tobytes()


def test_a_solution_equals_only_itself(sol_p2):
    # identity equality: comparing the node arrays raised on ambiguous truth values
    rebuilt = solve_potential(TubeParams(p=2))
    assert (sol_p2 == rebuilt) is False and (sol_p2 != rebuilt) is True
    assert (sol_p2 == sol_p2) is True
    assert hash(sol_p2) == hash(sol_p2) and len({sol_p2, rebuilt, sol_p2}) == 2
    assert np.array_equal(rebuilt.Fs, sol_p2.Fs)


def test_eval_near_endpoint_works(sols):
    for sol in sols.values():
        assert sol.x_max > 0.999999
        f = sol.eval_f_derivs(0.99999, 0)[0]
        assert f > 1e4


def test_dilation_law_moves_the_blowup(sols):
    # F(lambda x) + (2/3) ln(lambda) is again a solution, so shifting F(0)
    # by s moves the blow-up from 1 to exp(-3s/2): every shot blows up, the
    # one lowered by 4 at e^6 ~ 403, which is held to 1e-9 relative
    for sol in sols.values():
        for shift, tol in ((0.1, 1e-9), (-0.1, 1e-9), (-4.0, 1e-9 * math.exp(6.0))):
            blowup_x, *_ = _integrate(sol.params.p, sol.F0 + shift)
            assert abs(blowup_x - math.exp(-1.5 * shift)) < tol


@pytest.fixture(scope="module")
def far_sols():
    # 37 is the last p whose march from F(0) = 2 blows up before x = 2,
    # and 20000 the largest supported p, whose march blows up near 1040
    return [solve_potential(TubeParams(p=p)) for p in (37, 38, 1000, potential_solver._P_MAX)]


def test_default_solve_takes_one_march(sols, far_sols):
    for sol in [*sols.values(), *far_sols]:
        stats = sol.stats
        # the dilation-invariant rules take the same 79 steps for every p
        assert stats == {"nodes": 80, "identity_residual": stats["identity_residual"]}
        assert len(sol.xs) == 80
        assert 0.0 < stats["identity_residual"] < 1e-8


@pytest.mark.parametrize("p", [5, 8])
def test_larger_p_solves_and_validates(p):
    sol = solve_potential(TubeParams(p=p))
    assert abs(sol.achieved_blowup_x - 1.0) <= 1e-9
    assert sol.stats["identity_residual"] < 1e-8


def test_stats_stay_out_of_the_solution_file(tmp_path, sol_p2):
    # the file is the record of the solve; a loaded solution is a solve and
    # carries its stats
    data = sol_p2.to_dict()
    assert data == {"p": 2, "F0": sol_p2.F0, "blowup_x": sol_p2.achieved_blowup_x,
                    "nodes": len(sol_p2.xs)}
    path = tmp_path / "sol.json"
    sol_p2.save(path)
    loaded = load_solution(path)
    assert loaded.stats == sol_p2.stats
    assert path.read_text() == json.dumps(loaded.to_dict()) + "\n"


@pytest.mark.parametrize("p", range(1, 9))
def test_loosest_accepted_tolerance_solves(p):
    # the march's one set of rules holds the constructor's bounds for every p
    sol = solve_potential(TubeParams(p=p))
    assert sol.stats["identity_residual"] < 1e-8
    assert abs(sol.achieved_blowup_x - 1.0) <= 1e-5


def test_load_refuses_another_tolerance(tmp_path, sol_p2):
    # a file whose record names a tolerance, as files written before the
    # record did, is not the record of this solver's solve
    data = {**sol_p2.to_dict(), "tolerance": 1e-8}
    path = tmp_path / "sol.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=f"solution file {path}: .* at 'tolerance'$"):
        load_solution(path)


def test_blowup_cap_too_low_for_the_tolerance_is_refused(sol_p2, monkeypatch):
    # half |d_Z - 1/f| at the last node reads 6.1e-7 and 5.6e-9 for these
    # caps, the true errors of the blow-up estimate; the bound is 1e-12
    for u_cap in (1e3, 1e4):
        monkeypatch.setattr(potential_solver, "_U_CAP", u_cap)
        with pytest.raises(ValueError, match="blow-up estimate error .* exceeds 1e-12"):
            solve_potential(TubeParams(p=2))
    monkeypatch.undo()
    assert solve_potential(TubeParams(p=2)).F0 == sol_p2.F0


def test_blowup_cap_the_grid_cannot_resolve_is_refused(sol_p2, monkeypatch):
    # the dilation map carries the march's blow-up onto 1, so the mapped
    # grid's estimate x_last + 1/f_last is 1 up to rounding and the tail
    # error |1 - x_b| f at the last node reads 0 for caps up to 1e15; at
    # 1e16 the last steps pile onto equal abscissae
    monkeypatch.setattr(potential_solver, "_U_CAP", 1e16)
    with pytest.raises(ValueError, match="node abscissae must be strictly increasing"):
        solve_potential(TubeParams(p=2))
    # 1e11 to 1e15 are accepted, with F0 at rounding distance
    for u_cap in (1e11, 1e15):
        monkeypatch.setattr(potential_solver, "_U_CAP", u_cap)
        sol = solve_potential(TubeParams(p=2))
        assert abs(1.0 - sol.achieved_blowup_x) * sol.fs[-1] <= 1e-3
        assert abs(sol.F0 - sol_p2.F0) <= 1e-14
    assert abs(1.0 - sol_p2.achieved_blowup_x) * sol_p2.fs[-1] <= 3e-5
    # the gate reads the grid's estimate: abscissae scaled by 1 - 2e-11 put
    # it 2e-11 off 1, which reads 2e-3 at the last node (f = 1e8) and is refused
    with pytest.raises(ValueError, match="tail error .* exceeds 1e-3"):
        _built(sol_p2, xs=sol_p2.xs * (1.0 - 2e-11))


def test_the_largest_supported_p_solves():
    # the blow-up estimate error, which the constructor bounds by 1e-12, is
    # about c0 d^2 at the last node, with c0 ~ p/3 and d = 9.3e-9: at the
    # cap it reads 5.8e-13
    p = potential_solver._P_MAX
    sol = solve_potential(TubeParams(p=p))
    d_Z = ((2 * p - 1) / (4.0 * math.exp(3.0 * sol.Fs[-1]))) ** (1.0 / 3.0)
    assert 5.5e-13 < 0.5 * abs(d_Z - 1.0 / sol.fs[-1]) < 6e-13
    assert abs(sol.achieved_blowup_x - 1.0) <= 1e-5


@pytest.mark.parametrize("p", [potential_solver._P_MAX + 1, 40000, 10 ** 30])
def test_p_above_the_cap_is_refused_before_integrating(p, monkeypatch):
    def no_march(*args):
        raise AssertionError("integrated")
    monkeypatch.setattr(potential_solver, "_integrate", no_march)
    with pytest.raises(ValueError, match=f"^p = {p} is not supported: the solver takes p "
                                         f"from 1 to 20000$"):
        solve_potential(TubeParams(p=p))
