"""Curvature tensor, bisectional/sectional values, extremes, boundary limit.

The center of the domain is the oracle-rich spot: every tensor entry and
both pinching constants have exact rational closed forms there.  Away
from the center the tests lean on structure instead: scale and
automorphism invariance, agreement of two independent evaluation
formulas, and the Cauchy-Schwarz shape of the boundary limit.
"""

import cmath
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from tubeke import (
    DomainError,
    Point,
    TangentPair,
    TubeParams,
    bis_extremes,
    bis_extremes_from_jet,
    bisectional,
    bisectional_batch,
    bisectional_from_jet,
    boundary_limit_bis,
    extremal_sectional_vector,
    metric_jet,
    origin_closed_forms,
    sectional_max,
    sectional_max_from_jet,
    tensor_from_jet,
)
from tubeke import curvature
from tubeke.curvature import _axis_form, _frame, _pull_to_axis, _reduced_form, _spinor_vector
from tubeke.tube_geometry import require_domain

from conftest import bloch_split, reference_form

ORIGIN = Point(0j, 0j)
EPS = np.finfo(float).eps


def random_vectors(rng, n):
    return rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))


# ---------------------------------------------------------------------------
# the Cholesky/SVD/eigh extremes that the frame split replaced, kept
# verbatim as the reference
# ---------------------------------------------------------------------------

# the Pauli basis (I, sigma_x, sigma_y, sigma_z) of the Hermitian 2x2 matrices
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _bloch_form(jet, tensor):
    """(a, b, M) with Bis(v, w) = a + b.(n + m) + n^T M m.

    n and m are the Bloch vectors of g-unit v and w.  With g = L L^T and
    K = L^{-T}, v v* = K (I + n.sigma) K^T / 2, so column k of P holds the
    features of K sigma_k K^T / 2 and the 4x4 form P^T C P carries a in
    its corner, b in its border and M in its 3x3 block.
    """
    C, gvec = reference_form(jet, tensor)
    g12 = 0.5 * gvec[2]
    K = np.linalg.inv(np.linalg.cholesky(np.array([[gvec[0], g12], [g12, gvec[1]]]))).T
    H = 0.5 * (K @ _PAULI @ K.T)
    P = np.array([H[:, 0, 0].real, H[:, 1, 1].real, H[:, 0, 1].real, H[:, 0, 1].imag])
    T = P.T @ C @ P
    return float(T[0, 0]), T[0, 1:], T[1:, 1:]


def _unit_vector(jet, n):
    """The g-unit vector L^{-T} (cos(t/2), e^{i phi} sin(t/2)) with Bloch vector n."""
    theta = math.acos(min(1.0, max(-1.0, float(n[2]))))
    phi = math.atan2(n[1], n[0])
    unit = np.array([math.cos(0.5 * theta), cmath.exp(1j * phi) * math.sin(0.5 * theta)])
    return np.linalg.solve(np.linalg.cholesky(jet.metric).T, unit)


def reference_bis_extremes(jet, tensor):
    """(min, argmin, max, argmax), each value the full form at its pair."""
    a, b, M = _bloch_form(jet, tensor)
    U, _, Vt = np.linalg.svd(M)
    m = Vt[0]
    found = []
    for n in (-U[:, 0], U[:, 0]):
        value = float(a + b @ (n + m) + n @ M @ m)
        found.append((value, TangentPair(v=_unit_vector(jet, n), w=_unit_vector(jet, m))))
    (low, argmin), (high, argmax) = found
    return low, argmin, high, argmax


def reference_sectional_max(jet, tensor):
    a, b, M = _bloch_form(jet, tensor)
    n = np.linalg.eigh(M)[1][:, -1]
    return float(a + 2.0 * (b @ n) + n @ M @ n), _unit_vector(jet, n)


def random_point(p, rng):
    """Off-axis point with |X| <= 0.99 (the shape of diagnostics' sampler)."""
    x = rng.uniform(-0.99, 0.99)
    r = rng.uniform(0.2, 3.0)
    y1, y2 = rng.uniform(-2.0, 2.0, 2)
    return Point(complex((1.0 - r) / (4 * p), y1), complex(x * r ** (1.0 / (2 * p)), y2))


def g_norm_sq(jet, v):
    g = jet.metric
    return (g[0, 0] * abs(v[0]) ** 2 + g[1, 1] * abs(v[1]) ** 2
            + 2.0 * (g[0, 1] * v[0] * np.conjugate(v[1])).real)


def test_origin_closed_forms_are_exact_rationals():
    vals = origin_closed_forms(TubeParams(p=2))
    assert vals.bis_min == Fraction(-12, 5)
    assert vals.bis_max == Fraction(-3, 5)
    assert vals.sect_max == Fraction(-3, 2) - Fraction(3, 20)
    assert vals.R1111 == -32 * 8 * Fraction(5, 3)
    assert vals.R1122 == -2
    assert vals.R1212 == 1
    assert vals.R2222_coeff == Fraction(-3 * 2, 8 * 5)
    assert vals.f3_coeff == 3 - Fraction(3, 10)
    p1 = origin_closed_forms(TubeParams(p=1))
    assert p1.bis_min == -2 and p1.bis_max == -1 and p1.sect_max == -2
    assert p1.R1212 == 0


def test_tensor_at_origin_matches_closed_forms(sols):
    for p, sol in sols.items():
        vals = origin_closed_forms(sol.params)
        f1_0 = sol.eval_f_derivs(0.0, 1)[1]
        tensor = tensor_from_jet(metric_jet(sol, ORIGIN))
        assert abs(tensor.R1111 - float(vals.R1111)) < 1e-8 * abs(float(vals.R1111))
        assert abs(tensor.R1122 - float(vals.R1122) * f1_0) < 1e-10 * f1_0
        assert abs(tensor.R1212 - float(vals.R1212) * f1_0) < 1e-10 * f1_0
        assert abs(tensor.R2222 - float(vals.R2222_coeff) * f1_0**2) < 1e-10 * f1_0**2
        assert abs(tensor.R1112) < 1e-12
        assert abs(tensor.R1222) < 1e-12


def test_center_third_derivative_identity(sols):
    for sol in sols.values():
        vals = origin_closed_forms(sol.params)
        f1_0 = sol.eval_f_derivs(0.0, 1)[1]
        f3_0 = sol.eval_f_derivs(0.0, 3)[3]
        assert abs(f3_0 - float(vals.f3_coeff) * f1_0**2) < 1e-9 * f1_0**2


def test_coeff_lookup_symmetries(sol_p2):
    tensor = tensor_from_jet(metric_jet(sol_p2, Point(0j, 0.37 + 0j)))
    idx = (1, 2)
    for i in idx:
        for j in idx:
            for k in idx:
                for l in idx:
                    v = tensor.coeff(i, j, k, l)
                    assert v == tensor.coeff(k, j, i, l)  # unbarred swap
                    assert v == tensor.coeff(i, l, k, j)  # barred swap
                    assert v == tensor.coeff(j, i, l, k)  # conjugation (real case)
    assert tensor.coeff(1, 1, 1, 1) == tensor.R1111
    assert tensor.coeff(1, 2, 1, 2) == tensor.R1212
    assert tensor.coeff(1, 1, 2, 2) == tensor.R1122
    assert tensor.coeff(2, 1, 1, 2) == tensor.R1122
    assert tensor.coeff(1, 1, 1, 2) == tensor.R1112
    assert tensor.coeff(2, 2, 2, 1) == tensor.R1222


def test_tangent_pair_validation():
    with pytest.raises(ValueError):
        TangentPair(v=np.array([0.0, 0.0]), w=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        TangentPair(v=np.array([1.0, float("nan")]), w=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        TangentPair(v=np.array([1.0, 0.0, 0.0]), w=np.array([1.0, 0.0]))


def test_a_pair_keeps_the_vectors_it_checked():
    # the pair holds read-only copies: writing NaN into the caller's
    # arrays afterwards cannot reach the checked pair
    for v in (np.array([1.0 + 2j, 0.5]), np.array([[1.0 + 2j, 0.5], [0.3, 1j]])):
        pair = TangentPair(v=v, w=v)
        v[...] = np.nan
        assert np.isfinite(pair.v).all() and np.isfinite(pair.w).all()
        with pytest.raises(ValueError, match="read-only"):
            pair.v[0] = 0.0


@pytest.mark.parametrize("shape", [(), (1,), (3,), (2, 1), (2, 3), (1, 2, 2), (0,)])
def test_tangent_pair_refuses_every_other_shape(shape):
    # (1, 2) is one stacked pair, but (2, 1) and a 0-d value are neither
    # form, and neither is read as one pair
    bad = np.ones(shape, complex)
    for v, w in ((bad, bad), (bad, np.array([1.0, 2.0])), (np.array([1.0, 2.0]), bad)):
        with pytest.raises(ValueError, match=re.escape(f"got {np.shape(v)} and {np.shape(w)}")):
            TangentPair(v=v, w=w)
    with pytest.raises(ValueError, match="alike for v and w"):
        TangentPair(v=np.ones((3, 2)), w=np.ones((2, 2)))
    for rows in (np.ones((1, 2)), np.ones((0, 2)), [[1.0, 2j]] * 4):
        pair = TangentPair(v=rows, w=rows)
        assert pair.v.shape == np.shape(rows) and pair.v.dtype == complex


GOOD_ROWS = np.array([[1.0 + 0.5j, -0.3], [0.2j, 2.0], [1.0, 1.0j]])
SHAPE = re.escape("one pair of shape (2,) or n pairs of shape (n, 2)")


@pytest.mark.parametrize("bad, message", [
    (np.array([[1.0, 2.0, 3.0], [0.5, 1.0, 0.0], [1.0, 0.0, 1.0]]), SHAPE),
    (np.array([1.0, 2.0]), SHAPE),
    (np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 1.0]]), "tangent vectors must be nonzero"),
    (np.array([[1.0, 2.0], [np.nan, 1.0], [1.0, 1.0]]), "tangent vectors must be finite"),
    (np.array([[1.0, 2.0], [1.0, complex(0.0, np.inf)], [1.0, 1.0]]), "tangent vectors must be finite"),
    (GOOD_ROWS[:2], "alike for v and w"),
])
def test_stacked_pairs_are_validated(sol_p2, bad, message):
    z = Point(0.01 + 0.2j, 0.3 - 0.1j)
    for vs, ws in ((bad, GOOD_ROWS), (GOOD_ROWS, bad)):
        with pytest.raises(ValueError, match=message):
            TangentPair(v=vs, w=ws)
        with pytest.raises(ValueError, match=message):
            bisectional_batch(sol_p2, z, vs, ws)


@pytest.mark.parametrize("bad, message", [
    (np.array([0.0, 0.0]), "tangent vectors must be nonzero"),
    (np.array([np.nan, 1.0]), "tangent vectors must be finite"),
    (np.array([1.0, complex(0.0, np.inf)]), "tangent vectors must be finite"),
    (np.array([1.0, 2.0, 3.0]), SHAPE),
    (GOOD_ROWS, "alike for v and w"),
])
def test_single_pairs_are_validated(bad, message):
    for v, w in ((bad, GOOD_ROWS[0]), (GOOD_ROWS[0], bad)):
        with pytest.raises(ValueError, match=message):
            TangentPair(v=v, w=w)


def test_boundary_limit_takes_stacked_jets(sol_p2):
    # row i of a stacked jet with n pairs is the single point's call with
    # pair i; one pair goes with every point; other counts are refused
    xs = np.array([0.1, 0.4, 0.9])
    jet = metric_jet(sol_p2, Point(np.zeros(3, complex), xs.astype(complex)))
    singles = [metric_jet(sol_p2, Point(0j, complex(x))) for x in xs.tolist()]
    stacked = boundary_limit_bis(jet, TangentPair(v=GOOD_ROWS, w=GOOD_ROWS[::-1]))
    broadcast = boundary_limit_bis(jet, TangentPair(v=GOOD_ROWS[0], w=GOOD_ROWS[1]))
    assert stacked.shape == broadcast.shape == (3,)
    for i, single in enumerate(singles):
        assert stacked[i] == boundary_limit_bis(
            single, TangentPair(v=GOOD_ROWS[i], w=GOOD_ROWS[2 - i]))
        assert broadcast[i] == boundary_limit_bis(
            single, TangentPair(v=GOOD_ROWS[0], w=GOOD_ROWS[1]))
    with pytest.raises(ValueError, match="2 vector pairs cannot go with 3 stacked points"):
        boundary_limit_bis(jet, TangentPair(v=GOOD_ROWS[:2], w=GOOD_ROWS[:2]))


def test_stacked_pairs_keep_the_arithmetic(sol_p2):
    # n pairs at one point: row i is the one-pair call with pair i
    jet = metric_jet(sol_p2, Point(0j, 0.999 + 0j))
    batch = boundary_limit_bis(jet, TangentPair(v=GOOD_ROWS, w=GOOD_ROWS[::-1]))
    for i in range(3):
        single = boundary_limit_bis(jet, TangentPair(v=GOOD_ROWS[i], w=GOOD_ROWS[2 - i]))
        assert abs(batch[i] - single) <= 1e-15


def test_bisectional_scale_invariance(sol_p2):
    rng = np.random.default_rng(20)
    z = Point(complex(-0.1, 0.8), complex(0.5, 0.25))
    for _ in range(25):
        v, w = random_vectors(rng, 2)
        c, d = rng.normal(size=2) + 1j * rng.normal(size=2)
        base = bisectional(sol_p2, z, TangentPair(v=v, w=w))
        scaled = bisectional(sol_p2, z, TangentPair(v=c * v, w=d * w))
        assert abs(scaled - base) < 1e-10 * abs(base)


RAW_ENTRIES = {
    "bisectional_tube": lambda sol, z, jet, t, v, w: bisectional(
        sol, z, TangentPair(v=v, w=w), normalize=False),
    "bisectional_direct": lambda sol, z, jet, t, v, w: bisectional(
        sol, z, TangentPair(v=v, w=w), normalize=False, formula="direct"),
    "from_jet_tube": lambda sol, z, jet, t, v, w: bisectional_from_jet(
        jet, t, TangentPair(v=v, w=w)),
    "from_jet_direct": lambda sol, z, jet, t, v, w: bisectional_from_jet(
        jet, t, TangentPair(v=v, w=w), formula="direct"),
    "batch": lambda sol, z, jet, t, v, w: bisectional_batch(
        sol, z, v[None], w[None], normalize=False)[0],
    "boundary_limit_bis": lambda sol, z, jet, t, v, w: boundary_limit_bis(
        jet, TangentPair(v=v, w=w)),
    "boundary_limit_stacked": lambda sol, z, jet, t, v, w: boundary_limit_bis(
        jet, TangentPair(v=v[None], w=w[None]))[0],
}


@pytest.mark.parametrize("entry", RAW_ENTRIES)
def test_raw_paths_are_scale_invariant_far_from_unit_vectors(sol_p2, entry):
    # |v|^2 overflows beyond about 1e154 and underflows below 1e-162; each
    # vector is brought into the binade [0.5, 1) first, as the pull to the
    # axis does, where these used to read NaN or raise ZeroDivisionError
    z = Point(0.01 + 0.2j, 0.5 - 0.1j)
    v, w = np.array([1 + 1j, 0.5 - 2j]), np.array([0.3, 1j])
    jet = metric_jet(sol_p2, z)
    tensor = tensor_from_jet(jet)
    value = RAW_ENTRIES[entry]
    base = value(sol_p2, z, jet, tensor, v, w)
    for s in (1e-200, 1e-170, 1e160, 1e200):
        assert abs(value(sol_p2, z, jet, tensor, s * v, w) - base) <= 1e-14 * abs(base), s


SUBNORMAL_ENTRIES = {
    "bisectional_tube_normalized": lambda sol, z, jet, t, v, w: bisectional(
        sol, z, TangentPair(v=v, w=w)),
    "bisectional_direct_normalized": lambda sol, z, jet, t, v, w: bisectional(
        sol, z, TangentPair(v=v, w=w), formula="direct"),
    "sectional": lambda sol, z, jet, t, v, w: bisectional(sol, z, TangentPair(v=v, w=v)),
    "batch_normalized": lambda sol, z, jet, t, v, w: bisectional_batch(
        sol, z, np.stack([v, w]), np.stack([w, v])),
    **RAW_ENTRIES,
}


@pytest.mark.parametrize("s", [1e-310, 5e-324])
@pytest.mark.parametrize("entry", SUBNORMAL_ENTRIES)
def test_subnormal_vectors_give_the_bits_of_their_normal_scaling(sol_p2, entry, s):
    # s v is subnormal and 2^1080 s v, scaled in two exact steps, is normal;
    # the power of two that brings a subnormal vector into [0.5, 1) overflows
    # on its own, and the pull to the axis must not round the subnormal parts
    z = Point(0.01 + 0.2j, 0.5 - 0.1j)
    v, w = s * np.array([1 + 1j, 0.5 - 2j]), np.array([0.3, 1j])
    normal = v * 2.0 ** 540 * 2.0 ** 540
    assert np.array_equal(normal / 2.0 ** 540 / 2.0 ** 540, v)
    jet = metric_jet(sol_p2, z)
    tensor = tensor_from_jet(jet)
    value = SUBNORMAL_ENTRIES[entry]
    tiny = np.asarray(value(sol_p2, z, jet, tensor, v, w))
    assert np.isfinite(tiny).all()
    assert tiny.tobytes() == np.asarray(value(sol_p2, z, jet, tensor, normal, w)).tobytes()


@pytest.mark.parametrize("entry", SUBNORMAL_ENTRIES)
def test_vectors_whose_modulus_overflows_give_the_bits_of_their_scaling(sol_p2, entry):
    # each part of 1.7e308 (1 + i) is finite but its modulus is inf: the
    # binade scale is read off the parts, since one read off the moduli
    # would leave the vector unscaled and every door would read NaN
    z = Point(0.01 + 0.2j, 0.5 - 0.1j)
    v, w = np.array([1.7e308 + 1.7e308j, 0.0]), np.array([0.3, 1j])
    assert np.isinf(abs(v[0]))
    jet = metric_jet(sol_p2, z)
    tensor = tensor_from_jet(jet)
    value = SUBNORMAL_ENTRIES[entry]
    big = np.asarray(value(sol_p2, z, jet, tensor, v, w))
    assert np.isfinite(big).all()
    scaled = np.asarray(value(sol_p2, z, jet, tensor, v / 2.0 ** 1000, w))
    assert big.tobytes() == scaled.tobytes()


def test_bisectional_symmetry_in_the_pair(sol_p2):
    rng = np.random.default_rng(21)
    z = Point(0j, 0.45 + 0j)
    for _ in range(25):
        v, w = random_vectors(rng, 2)
        a = bisectional(sol_p2, z, TangentPair(v=v, w=w))
        b = bisectional(sol_p2, z, TangentPair(v=w, w=v))
        assert abs(a - b) < 1e-12 * abs(a)


def test_two_formulas_agree(sols):
    rng = np.random.default_rng(22)
    for p, sol in sols.items():
        z = Point(complex(-0.2, 1.1), complex(0.4, -0.6))
        for _ in range(10):
            v, w = random_vectors(rng, 2)
            pair = TangentPair(v=v, w=w)
            tube = bisectional(sol, z, pair, formula="tube")
            direct = bisectional(sol, z, pair, formula="direct")
            assert abs(tube - direct) < 1e-10 * abs(tube)


def test_unknown_formula_rejected(sol_p1):
    with pytest.raises(ValueError):
        bisectional(sol_p1, ORIGIN,
                    TangentPair(v=np.array([1, 0]), w=np.array([0, 1])),
                    formula="bogus")


@pytest.mark.parametrize("formula", ["tube", "direct"])
def test_bisectional_from_jet_equals_bisectional(sols, formula):
    # bisectional is the pull to the axis, the axis jet and this call
    rng = np.random.default_rng(25)
    for p, sol in sols.items():
        z = Point(complex(0.04, -0.7), complex(0.35, 1.2))
        for _ in range(10):
            v, w = random_vectors(rng, 2)
            pair = TangentPair(v=v, w=w)
            axis, (pv, pw) = _pull_to_axis(sol, z, require_domain(sol.params, z),
                                           (v.tolist(), w.tolist()))
            jet = metric_jet(sol, axis)
            pushed = TangentPair(v=pv, w=pw)
            assert (bisectional_from_jet(jet, tensor_from_jet(jet), pushed, formula=formula)
                    == bisectional(sol, z, pair, formula=formula))
            assert type(bisectional(sol, z, pair, formula=formula)) is float
            here = metric_jet(sol, z)
            assert (bisectional_from_jet(here, tensor_from_jet(here), pair, formula=formula)
                    == bisectional(sol, z, pair, normalize=False, formula=formula))
    jet = metric_jet(sols[1], ORIGIN)
    with pytest.raises(ValueError):
        bisectional_from_jet(jet, tensor_from_jet(jet), pair, formula="bogus")


def test_stacked_pairs_match_single(sol_p2):
    rng = np.random.default_rng(23)
    z = Point(complex(0.0, -0.3), complex(0.52, 0.9))
    vs, ws = random_vectors(rng, 8), random_vectors(rng, 8)
    batch = bisectional(sol_p2, z, TangentPair(v=vs, w=ws))
    for i in range(8):
        single = bisectional(sol_p2, z, TangentPair(v=vs[i], w=ws[i]))
        assert abs(batch[i] - single) < 1e-12 * abs(single)


def test_normalize_false_evaluates_in_place(sol_p2):
    # automorphism invariance: raw evaluation at z equals the normalized one
    rng = np.random.default_rng(24)
    z = Point(complex(0.03, 0.4), complex(0.3, -0.5))
    for _ in range(10):
        v, w = random_vectors(rng, 2)
        pair = TangentPair(v=v, w=w)
        raw = bisectional(sol_p2, z, pair, normalize=False)
        normalized = bisectional(sol_p2, z, pair, normalize=True)
        assert abs(raw - normalized) < 1e-8 * abs(raw)


def test_origin_extremes_match_closed_forms(sols):
    for p, sol in sols.items():
        vals = origin_closed_forms(sol.params)
        ext = bis_extremes(sol, ORIGIN)
        assert abs(ext.min - float(vals.bis_min)) < 1e-7
        assert abs(ext.max - float(vals.bis_max)) < 1e-7
        # the extremizers actually achieve the reported values, at the
        # center and along the axis
        for z in (ORIGIN, Point(0j, 0.3 + 0j), Point(0j, 0.62 + 0j), Point(0j, 0.9 + 0j)):
            ext = bis_extremes(sol, z)
            assert abs(bisectional(sol, z, ext.argmin) - ext.min) < 1e-10
            assert abs(bisectional(sol, z, ext.argmax) - ext.max) < 1e-10


def test_bis_max_reaches_a_known_pair_near_the_boundary(sol_p2):
    # this pair, evaluated by the independent 16-term sum, bounds the maximum
    # from below; a local search from a coarse grid stops 1.27e-6 short of it.
    # The value is the one a 30-digit mpmath profile (F, f) at x = 0.975 gives
    # through the same formula
    z = Point(0j, 0.975 + 0j)
    pair = TangentPair(v=np.array([0.465695, -1.0]), w=np.array([1.0, 0.146903]))
    direct = bisectional(sol_p2, z, pair, formula="direct")
    assert abs(direct + 0.99953216430) < 1e-10
    assert bis_extremes(sol_p2, z).max >= direct - 1e-10


def test_bloch_form_satisfies_the_einstein_reduction(sols):
    # Ric = -3g forces a = -3/2, b = 0 and tr M = -3/2 in Bis = a + b.(n+m) + n^T M m
    for sol in sols.values():
        for x in np.linspace(-0.99, 0.99, 41):
            jet = metric_jet(sol, Point(0j, complex(x)))
            _, a, b, (lam_y, mxx, _, mzz) = bloch_split(jet, tensor_from_jet(jet))
            assert abs(a + 1.5) <= 1e-8
            assert math.hypot(*b) <= 1e-8
            assert abs(lam_y + mxx + mzz + 1.5) <= 1e-8
    jet = metric_jet(sols[2], ORIGIN)
    _, pairs, _ = _reduced_form(jet, tensor_from_jet(jet))
    assert np.allclose(sorted(lam for lam, _ in pairs), [-0.9, -0.45, -0.15],
                       rtol=0.0, atol=1e-10)


def test_frame_extremes_match_the_reference(five_sols):
    # 1000 off-axis points: the reduced values agree with the Cholesky/SVD/
    # eigh path, whose values carry the full form a + b.(n+m) + n^T M m
    rng = np.random.default_rng(40)
    for p, sol in five_sols.items():
        for _ in range(200):
            jet = metric_jet(sol, random_point(p, rng))
            tensor = tensor_from_jet(jet)
            ext = bis_extremes_from_jet(jet, tensor)
            sect, vstar = sectional_max_from_jet(jet, tensor)
            low, _, high, _ = reference_bis_extremes(jet, tensor)
            ref_sect, _ = reference_sectional_max(jet, tensor)
            assert type(ext.min) is type(ext.max) is type(sect) is float
            for value, ref in ((ext.min, low), (ext.max, high), (sect, ref_sect)):
                assert abs(value - ref) <= 1e-9 * abs(ref)
            # the pairs are g-unit and attain the values up to |a + 3/2| +
            # |b.(n+m)| <= 3 defect, plus rounding
            for pair, value in ((ext.argmin, ext.min), (ext.argmax, ext.max),
                                (TangentPair(v=vstar, w=vstar), sect)):
                assert abs(g_norm_sq(jet, pair.v) - 1.0) <= 1e-13
                assert abs(g_norm_sq(jet, pair.w) - 1.0) <= 1e-13
                attained = bisectional_from_jet(jet, tensor, pair)
                assert abs(attained - value) <= 3.0 * ext.einstein_defect + 1e-10 * abs(value)
            lam_y, mxx, mxz, mzz = _axis_form(jet)[1]
            full = np.array([[mxx, 0.0, mxz], [0.0, lam_y, 0.0], [mxz, 0.0, mzz]])
            split = sorted(lam for lam, _ in _reduced_form(jet, tensor)[1])
            assert np.max(np.abs(np.array(split) - np.linalg.eigvalsh(full))) <= 1e-13


def test_spinor_has_the_bloch_vector():
    # in the identity frame v v* = (I + n.sigma)/2, on both branches (n_z >= 0, < 0)
    rng = np.random.default_rng(41)
    for n in [*rng.normal(size=(50, 3)), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0)]:
        n = np.asarray(n) / np.linalg.norm(n)
        v = _spinor_vector((1.0, 0.0, 1.0), tuple(n))
        rho = np.outer(v, np.conjugate(v))
        expected = 0.5 * np.array([[1.0 + n[2], n[0] - 1j * n[1]], [n[0] + 1j * n[1], 1.0 - n[2]]])
        assert np.max(np.abs(rho - expected)) <= 1e-15


def off_axis(x) -> Point:
    """A translate of the axis point (0, x) off the axis: its raw jet is the axis jet's."""
    return Point(0.25j, complex(x, 0.5))


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_extremes_answer_where_the_jet_path_defect_is_large(five_sols, p):
    # the extremes read the closed forms at X, on the axis and off it alike:
    # at 1 - |x| = 1e-4 their defect is at rounding level, and at 1e-6,
    # where the jet path's reads 0.13 (p=8) to 140 (p=1), they answer too
    sol = five_sols[p]
    far = [1.0 - 1e-6, -(1.0 - 1e-6)] + ([1.0 - 3e-5, 1.0 - 1e-5] if p == 1 else [])
    for x in [1.0 - 1e-4, -(1.0 - 1e-4)] + far:
        values = []
        for z in (Point(0j, complex(x)), off_axis(x)):
            jet = metric_jet(sol, z)
            tensor = tensor_from_jet(jet)
            ext = bis_extremes_from_jet(jet, tensor)
            sect = sectional_max_from_jet(jet, tensor)[0]
            assert ext.einstein_defect <= 1.3e-4
            assert ext.min <= ext.max < 0.0 and sect < 0.0
            values.append((ext.min, ext.max, ext.einstein_defect, sect))
            if x in far:
                # the raw jet's pair door, on the axis and off it, reads the
                # same closed forms: argmin attains min
                attained = bisectional_from_jet(jet, tensor, ext.argmin)
                assert abs(attained - ext.min) <= 1e-13 * abs(ext.min)
        assert values[0] == values[1]
        assert (bis_extremes(sol, off_axis(x)).min, sectional_max(sol, off_axis(x))[0]) == (
            values[0][0], values[0][3])


def test_the_pair_doors_answer_where_the_jet_path_defect_is_large(sol_p1):
    # p=1 at 1 - x = 1e-5: the jet path's split has defect 1.3, and along the
    # frame vector e1 = (alpha, beta) it would give 3.0126; the tube doors
    # read the closed forms and give the exact -2.  Random raw vectors sit
    # near a Bloch pole and would hide a wrong M
    z = Point(0j, complex(1.0 - 1e-5))
    jet = metric_jet(sol_p1, z)
    tensor = tensor_from_jet(jet)
    alpha, beta, _ = _frame(jet)
    e1 = np.array([alpha, beta], dtype=complex)
    pair = TangentPair(v=e1, w=e1)
    for evaluate in (lambda: bisectional(sol_p1, z, pair),
                     lambda: bisectional(sol_p1, z, pair, normalize=False),
                     lambda: bisectional_from_jet(jet, tensor, pair),
                     lambda: bisectional_batch(sol_p1, z, [e1], [e1]),
                     lambda: bisectional_batch(sol_p1, z, [e1], [e1], normalize=False)):
        assert np.all(np.abs(evaluate() + 2.0) <= 1e-8)
    # the 16-term sum, accurate for 1 - |X| >= 1e-4, is refused closer in
    # (here it would read 3.0127), whatever the defect
    direct = f"direct Bis values at X = {re.escape(repr(jet.x_value))} are refused"
    for evaluate in (lambda: bisectional(sol_p1, z, pair, formula="direct"),
                     lambda: bisectional_from_jet(jet, tensor, pair, formula="direct")):
        with pytest.raises(DomainError, match=direct):
            evaluate()
    # a stack answers every row by the tube formula; by the direct one it is
    # refused as a whole, naming its first refused X
    stack = metric_jet(sol_p1, Point(np.zeros(3, complex), np.array([0.3, 1.0 - 1e-5, 0.5]) + 0j))
    rows = np.array([e1] * 3)
    values = bisectional_from_jet(stack, tensor_from_jet(stack), TangentPair(v=rows, w=rows))
    assert abs(values[1] + 2.0) <= 1e-8 and np.all(values < 0.0)
    with pytest.raises(DomainError, match=direct):
        bisectional_from_jet(stack, tensor_from_jet(stack), TangentPair(v=rows, w=rows),
                             formula="direct")
    # at 1 - x = 1e-4 both paths answer, near the exact -2
    z = Point(0j, complex(1.0 - 1e-4))
    alpha, beta, _ = _frame(metric_jet(sol_p1, z))
    e1 = np.array([alpha, beta], dtype=complex)
    for formula in ("tube", "direct"):
        bis = bisectional(sol_p1, z, TangentPair(v=e1, w=e1), formula=formula)
        assert abs(bis + 2.0) <= 1e-3


def in_frame_pairs(jet, rng, n):
    """n seeded pairs drawn in the jet's g-orthonormal frame, given in raw coordinates.

    Raw vectors drawn at random sit near a Bloch pole close to the boundary;
    frame coordinates spread the Bloch vectors over the sphere.
    """
    alpha, beta, gamma = _frame(jet)
    c = random_vectors(rng, 2 * n)
    raw = np.stack([alpha * c[:, 0], beta * c[:, 0] + gamma * c[:, 1]], axis=-1)
    return raw[:n], raw[n:]


def test_the_pair_doors_give_the_ball_up_to_the_grid_end(sol_p1):
    # p=1 is the complex ball: Bis equals the boundary limit of its jet at
    # every point.  The normalized and raw doors, single and stacked, on the
    # axis and at depth r = 2.5 off it, up to the grid end
    rng = np.random.default_rng(91)
    xs = [1.0 - 1e-4, 1.0 - 1e-6, 1.0 - 1e-8, sol_p1.x_max]
    points = [Point(0j, complex(x)) for x in xs]
    points += [Point(complex(-0.375, 0.7), complex(x * math.sqrt(2.5), -1.2)) for x in xs]
    pairs = [in_frame_pairs(metric_jet(sol_p1, z), rng, 3) for z in points]
    stack = Point.stack(points)
    jet = metric_jet(sol_p1, stack)
    for k in range(3):
        v = np.array([vs[k] for vs, _ in pairs])
        w = np.array([ws[k] for _, ws in pairs])
        limits = boundary_limit_bis(jet, TangentPair(v=v, w=w))
        assert np.all(limits < -1.0)
        for normalize in (True, False):
            stacked = bisectional(sol_p1, stack, TangentPair(v=v, w=w), normalize=normalize)
            assert np.all(np.abs(stacked - limits) <= 1e-8), normalize
            for i, z in enumerate(points):
                single = bisectional(sol_p1, z, TangentPair(v=v[i], w=w[i]), normalize=normalize)
                assert abs(single - limits[i]) <= 1e-8, (normalize, i)
        from_jet = bisectional_from_jet(jet, tensor_from_jet(jet), TangentPair(v=v, w=w))
        assert np.all(np.abs(from_jet - limits) <= 1e-8)


@pytest.mark.parametrize("p", [2, 3, 5, 8])
def test_the_pair_doors_attain_the_extremes_up_to_the_grid_end(five_sols, p):
    # the extremes' pairs, through bisectional at the same X, give min and
    # max to rounding: one closed-form M serves both
    sol = five_sols[p]
    xs = [0.0, 0.5, -0.9, 0.99, 1.0 - 1e-4, -(1.0 - 1e-6), 1.0 - 1e-8, sol.x_max]
    for x in xs:
        z = Point(0j, complex(x))
        ext = bis_extremes(sol, z)
        for pair, value in ((ext.argmin, ext.min), (ext.argmax, ext.max)):
            assert abs(bisectional(sol, z, pair) - value) <= 1e-12 * abs(value), (p, x)
    stack = Point(np.zeros(len(xs), complex), np.array(xs, complex))
    ext = bis_extremes(sol, stack)
    for pair, values in ((ext.argmin, ext.min), (ext.argmax, ext.max)):
        assert np.all(np.abs(bisectional(sol, stack, pair) - values) <= 1e-12 * np.abs(values))


def test_both_extremes_share_one_split(sols, tensor_calls, kernel_calls):
    # the closed forms are evaluated once per (jet, tensor), on the axis and
    # off it; the extremes build no tensor of their own
    for z in (Point(0j, 0.6 + 0j), off_axis(0.6)):
        kernel_calls.clear()
        jet = metric_jet(sols[2], z)
        tensor = tensor_from_jet(jet)
        ext = bis_extremes_from_jet(jet, tensor)
        sectional_max_from_jet(jet, tensor)
        ext.argmin, ext.argmax
        bis_extremes_from_jet(jet, tensor)
        assert kernel_calls == [jet]
        # a new jet for the same tensor, or a new tensor for the same jet, evaluates again
        other = metric_jet(sols[2], z)
        sectional_max_from_jet(other, tensor)
        bis_extremes_from_jet(jet, tensor_from_jet(jet))
        assert kernel_calls == [jet, other, jet]
        # the tensor keeps the form outside its fields: eq, hash and repr are its coefficients
        fresh = tensor_from_jet(jet)
        assert tensor == fresh and hash(tensor) == hash(fresh) and repr(tensor) == repr(fresh)
    # where the jet path's defect is large the extremes answer, and build no tensor
    far = metric_jet(sols[1], off_axis(1.0 - 1e-5))
    tensor = tensor_from_jet(far)
    for evaluate in (bis_extremes_from_jet, sectional_max_from_jet):
        evaluate(far, tensor)
    assert kernel_calls[3:] == [far] and tensor_calls == []


def test_extremizers_are_built_on_first_read(sol_p2, monkeypatch):
    built = []
    spinor = curvature._spinor_vector
    monkeypatch.setattr(curvature, "_spinor_vector",
                        lambda frame, n: built.append(n) or spinor(frame, n))
    jet = metric_jet(sol_p2, Point(0j, 0.6 + 0j))
    ext = bis_extremes_from_jet(jet, tensor_from_jet(jet))
    assert built == [] and "argmin" not in repr(ext)
    argmin = ext.argmin
    assert len(built) == 2
    ext.argmax
    assert ext.argmin is argmin and len(built) == 2


def test_origin_axis_pairs_hit_the_extremes(sols):
    e1 = np.array([1.0, 0.0], complex)
    e2 = np.array([0.0, 1.0], complex)
    for sol in sols.values():
        vals = origin_closed_forms(sol.params)
        assert abs(bisectional(sol, ORIGIN, TangentPair(v=e1, w=e1))
                   - float(vals.bis_min)) < 1e-10
        assert abs(bisectional(sol, ORIGIN, TangentPair(v=e1, w=e2))
                   - float(vals.bis_max)) < 1e-10


def test_random_pairs_respect_origin_pinching(sols):
    rng = np.random.default_rng(25)
    for sol in sols.values():
        vals = origin_closed_forms(sol.params)
        vs, ws = random_vectors(rng, 500), random_vectors(rng, 500)
        values = bisectional(sol, ORIGIN, TangentPair(v=vs, w=ws))
        assert values.min() >= float(vals.bis_min) - 1e-9
        assert values.max() <= float(vals.bis_max) + 1e-9


def test_sectional_max_and_extremal_vector(sols):
    for sol in sols.values():
        vals = origin_closed_forms(sol.params)
        sm, argmax = sectional_max(sol, ORIGIN)
        assert abs(sm - float(vals.sect_max)) < 1e-7
        assert abs(bisectional(sol, ORIGIN, TangentPair(v=argmax, w=argmax)) - sm) < 1e-10
        vstar = extremal_sectional_vector(sol)
        sect = bisectional(sol, ORIGIN, TangentPair(v=vstar, w=vstar))
        assert abs(sect - float(vals.sect_max)) < 1e-9


def test_extremal_vector_is_metric_balanced(sols):
    # the maximizer splits its g-norm equally between the two axes
    for sol in sols.values():
        jet = metric_jet(sol, ORIGIN)
        v = extremal_sectional_vector(sol)
        n1 = jet.metric[0, 0] * abs(v[0]) ** 2
        n2 = jet.metric[1, 1] * abs(v[1]) ** 2
        assert abs(n1 - 1.0) < 1e-12 and abs(n2 - 1.0) < 1e-12


def test_extremes_constant_on_orbits(sol_p2):
    x = 0.55
    base = Point(0j, complex(x))
    moved = Point(complex(-0.04, 2.0), complex(x * 1.32 ** 0.25, -1.0))
    # both points have the same X: r = 1.32 at the second one
    assert abs((1 - 4 * 2 * moved.z1.real) - 1.32) < 1e-15
    e1 = bis_extremes(sol_p2, base)
    e2 = bis_extremes(sol_p2, moved)
    assert abs(e1.min - e2.min) < 1e-9
    assert abs(e1.max - e2.max) < 1e-9


def test_extremes_bracket_random_samples(sol_p3):
    rng = np.random.default_rng(26)
    z = Point(0j, 0.62 + 0j)
    ext = bis_extremes(sol_p3, z)
    vs, ws = random_vectors(rng, 400), random_vectors(rng, 400)
    values = bisectional(sol_p3, z, TangentPair(v=vs, w=ws))
    assert values.min() >= ext.min - 1e-9
    assert values.max() <= ext.max + 1e-9


def test_boundary_limit_shape(sol_p2):
    rng = np.random.default_rng(27)
    jet = metric_jet(sol_p2, Point(0j, 0.3 + 0j))
    for _ in range(100):
        v, w = random_vectors(rng, 2)
        val = boundary_limit_bis(jet, TangentPair(v=v, w=w))
        assert -2.0 - 1e-12 <= val <= -1.0 + 1e-12
    v = random_vectors(rng, 1)[0]
    assert abs(boundary_limit_bis(jet, TangentPair(v=v, w=3j * v)) + 2.0) < 1e-12
    g = jet.metric

    def ip(a, b):
        return (g[0, 0] * a[0] * np.conjugate(b[0])
                + g[0, 1] * a[0] * np.conjugate(b[1])
                + g[1, 0] * a[1] * np.conjugate(b[0])
                + g[1, 1] * a[1] * np.conjugate(b[1]))

    w = random_vectors(rng, 1)[0]
    w = w - (ip(w, v) / ip(v, v)) * v
    assert abs(boundary_limit_bis(jet, TangentPair(v=v, w=w)) + 1.0) < 1e-12


def exact_boundary_limit(jet, v, w) -> float:
    """-1 - |<v,w>_g|^2 / (|v|_g^2 |w|_g^2), exact on the float inputs, rounded once.

    g is the metric the frame is built from: g12, g22 and the jet's closure
    det, so g11 = (det + g12^2)/g22 exactly.  The rounded g11 differs from it
    by up to 8.6e-13 relative at x = 0.9999 (g11 g22 and g12^2 cancel).
    """
    _, g12, g22 = (Fraction(float(e)) for e in jet.g)
    g11 = (Fraction(float(jet.det)) + g12 * g12) / g22

    def ip(a, b):
        # sum g_ij a_i conj(b_j) as (real, imaginary) parts
        ar, ai, br, bi = ([Fraction(getattr(c, part)) for c in u]
                          for u, part in ((a, "real"), (a, "imag"), (b, "real"), (b, "imag")))
        terms = ((g11, 0, 0), (g12, 0, 1), (g12, 1, 0), (g22, 1, 1))
        return (sum(k * (ar[i] * br[j] + ai[i] * bi[j]) for k, i, j in terms),
                sum(k * (ai[i] * br[j] - ar[i] * bi[j]) for k, i, j in terms))

    re, im = ip(v, w)
    return float(-1 - (re * re + im * im) / (ip(v, v)[0] * ip(w, w)[0]))


@pytest.mark.parametrize("p", [1, 2])
def test_boundary_limit_is_exact_to_rounding(sols, p):
    # in the frame the Gram ratio is a sum of squares: it is within 4 EPS
    # of the exact value on the frame's float inputs (g12, g22 and the
    # closure det), times 1 + kappa for the cancellation
    # kappa = |v1| sqrt(g22) / |v|_g in the frame coordinate
    # v1^ = (v1 + v0 g12/g22) sqrt(g22), at any cond(g) (up to 6e4 here).
    # Over seeds 1000-1039 the largest error is 3.4 EPS (1 + kappa).
    # The raw-coordinate form loses 117 EPS at p=2, x = 0.999, and a det g
    # rounded from g11 g22 - g12^2 216 EPS at p=1, x = 0.9999
    rng = np.random.default_rng(28)
    for x in (0.4, 0.99, 0.999, 0.9999):
        for z in (Point(0j, complex(x)),
                  Point(complex(-0.3, 0.7), complex(x * 1.3 ** (1.0 / (2 * p)), -0.4))):
            jet = metric_jet(sols[p], z)
            g = jet.metric
            vs, ws = random_vectors(rng, 100), random_vectors(rng, 100)
            # a tenth of the v rows close to e1, where v1^ cancels
            vs[:10, 1] = -(g[0, 1] / g[1, 1]) * vs[:10, 0] * (1.0 + 1e-3 * rng.normal(size=10))
            exact = [exact_boundary_limit(jet, v, w) for v, w in zip(vs, ws)]
            kappa = [max(abs(u[1]) * math.sqrt(g[1, 1] / g_norm_sq(jet, u)) for u in pair)
                     for pair in zip(vs, ws)]
            error = np.abs(boundary_limit_bis(jet, TangentPair(v=vs, w=ws)) - exact)
            assert np.all(error <= 4.0 * EPS * (1.0 + np.array(kappa)))
            # the frame reads the jet's closure det g: alpha^2 det / g22 = 1
            alpha = Fraction(_frame(jet)[0])
            assert abs(float(alpha ** 2 * Fraction(jet.det) / Fraction(jet.g[2])) - 1.0) <= 4.0 * EPS


def test_domain_errors(sol_p1):
    outside = Point(0.3 + 0j, 0j)
    pair = TangentPair(v=np.array([1, 0]), w=np.array([0, 1]))
    with pytest.raises(DomainError):
        bisectional(sol_p1, outside, pair)
    with pytest.raises(DomainError):
        bis_extremes(sol_p1, outside)
    with pytest.raises(DomainError):
        tensor_from_jet(metric_jet(sol_p1, outside))
    with pytest.raises(DomainError):
        sectional_max(sol_p1, outside)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_deep_points_agree_with_shallower_ones(p, sols):
    # at Re z1 = -1e300 the pull's Jacobian entries lam ~ 1e-300 and
    # lam^{1/(2p)} part by up to 225 decades: unscaled, the frame coordinates of a
    # z1 direction underflow and Bis reads 0/0
    sol = sols[p]
    rng = np.random.default_rng(80 + p)
    vs, ws = random_vectors(rng, 6), random_vectors(rng, 6)
    vs[0], ws[1] = (1.0, 0.0), (1.0, 0.0)
    values = {}
    for re1 in (-1e100, -1e300):
        z = Point(complex(re1, 0.4), complex(0.3, -1.0))
        pairs = [TangentPair(v=v, w=w) for v, w in zip(vs, ws)]
        values[re1] = np.array([*(bisectional(sol, z, pair) for pair in pairs),
                                *(bisectional(sol, z, pair, formula="direct") for pair in pairs),
                                *(bisectional(sol, z, TangentPair(v=v, w=v)) for v in vs),
                                *bisectional(sol, z, TangentPair(v=vs, w=ws))])
    assert np.all(np.isfinite(values[-1e300]))
    assert np.max(np.abs(values[-1e300] - values[-1e100])) <= 1e-12


def test_non_finite_points_are_refused(sols):
    pair = TangentPair(v=np.array([1.0, 1j]), w=np.array([0.3, 1.0]))
    for sol in sols.values():
        for z in (Point(complex(-math.inf, 0.0), 0j), Point(complex(math.nan, 0.0), 0j),
                  Point(0j, complex(0.0, math.inf))):
            for evaluate in (lambda: bisectional(sol, z, pair),
                             lambda: bisectional(sol, z, pair, normalize=False),
                             lambda: bisectional_batch(sol, z, [pair.v], [pair.w]),
                             lambda: bisectional(sol, z, TangentPair(v=[pair.v],
                                                                     w=[pair.w])),
                             lambda: bis_extremes(sol, z),
                             lambda: sectional_max(sol, z),
                             lambda: metric_jet(sol, z)):
                with pytest.raises(DomainError, match="must be finite"):
                    evaluate()


def test_a_depth_beyond_the_double_range_is_refused_by_the_pull(sol_p1):
    # 1 - 4 Re z1 overflows to inf: the axis point is still X = 0, but the
    # pushed vectors would vanish
    z = Point(complex(-1e308, 0.0), 0j)
    pair = TangentPair(v=np.array([1.0, 1j]), w=np.array([0.3, 1.0]))
    for evaluate in (lambda: bisectional(sol_p1, z, pair),
                     lambda: bisectional_batch(sol_p1, z, [pair.v], [pair.w])):
        with pytest.raises(DomainError, match="too deep to pull"):
            evaluate()
    assert bis_extremes(sol_p1, z).min == bis_extremes(sol_p1, ORIGIN).min


def test_p1_curvature_is_constant_in_x(sol_p1):
    # the p=1 domain is biholomorphic to the ball: extremes do not move
    for x in (0.0, 0.4, 0.9):
        ext = bis_extremes(sol_p1, Point(0j, complex(x)))
        assert abs(ext.min + 2.0) < 1e-7
        assert abs(ext.max + 1.0) < 1e-7
        sm, _ = sectional_max(sol_p1, Point(0j, complex(x)))
        assert abs(sm + 2.0) < 1e-7
