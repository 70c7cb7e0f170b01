"""Curvature tensor, bisectional/sectional values, extremes, boundary limit.

The center of the domain is the oracle-rich spot: every tensor entry and
both pinching constants have exact rational closed forms there.  Away
from the center the tests lean on structure instead: scale and
automorphism invariance, agreement of two independent evaluation
formulas, and the Cauchy-Schwarz shape of the boundary limit.
"""

import math
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
    boundary_limit_batch,
    boundary_limit_bis,
    curvature_tensor,
    extremal_sectional_vector,
    metric_jet,
    origin_closed_forms,
    sectional,
    sectional_max,
    sectional_max_from_jet,
    tensor_from_jet,
)
from tubeke.curvature import _bloch_form, _pull_to_axis

ORIGIN = Point(0j, 0j)


def random_vectors(rng, n):
    return rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))


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
        tensor = curvature_tensor(sol, ORIGIN)
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
    tensor = curvature_tensor(sol_p2, Point(0j, 0.37 + 0j))
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


def test_tensor_from_jet_equals_wrapper(sol_p2):
    z = Point(complex(0.02, 0.5), complex(0.3, -0.9))
    jet = metric_jet(sol_p2, z)
    t1 = tensor_from_jet(jet)
    t2 = curvature_tensor(sol_p2, z)
    assert t1 == t2


def test_tangent_pair_validation():
    with pytest.raises(ValueError):
        TangentPair(v=np.array([0.0, 0.0]), w=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        TangentPair(v=np.array([1.0, float("nan")]), w=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        TangentPair(v=np.array([1.0, 0.0, 0.0]), w=np.array([1.0, 0.0]))


GOOD_ROWS = np.array([[1.0 + 0.5j, -0.3], [0.2j, 2.0], [1.0, 1.0j]])


@pytest.mark.parametrize("bad, message", [
    (np.array([[1.0, 2.0, 3.0], [0.5, 1.0, 0.0], [1.0, 0.0, 1.0]]), "stacked as \\(n, 2\\) rows"),
    (np.array([1.0, 2.0]), "stacked as \\(n, 2\\) rows"),
    (np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 1.0]]), "tangent vectors must be nonzero"),
    (np.array([[1.0, 2.0], [np.nan, 1.0], [1.0, 1.0]]), "tangent vectors must be finite"),
    (np.array([[1.0, 2.0], [1.0, complex(0.0, np.inf)], [1.0, 1.0]]), "tangent vectors must be finite"),
    (GOOD_ROWS[:2], "same number of vectors"),
])
def test_batch_rows_are_validated(sol_p2, bad, message):
    jet = metric_jet(sol_p2, Point(0j, 0.4 + 0j))
    z = Point(0.01 + 0.2j, 0.3 - 0.1j)
    for vs, ws in ((bad, GOOD_ROWS), (GOOD_ROWS, bad)):
        with pytest.raises(ValueError, match=message):
            bisectional_batch(sol_p2, z, vs, ws)
        with pytest.raises(ValueError, match=message):
            boundary_limit_batch(jet, vs, ws)


def test_batch_validation_keeps_the_arithmetic(sol_p2):
    # valid rows keep their values: boundary_limit_bis, which skips the
    # row checks, agrees with the validated batch
    jet = metric_jet(sol_p2, Point(0j, 0.999 + 0j))
    batch = boundary_limit_batch(jet, GOOD_ROWS, GOOD_ROWS[::-1])
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
            axis, (pv, pw) = _pull_to_axis(sol, z, (v, w))
            jet = metric_jet(sol, axis)
            assert (bisectional_from_jet(jet, tensor_from_jet(jet), pv, pw, formula=formula)
                    == bisectional(sol, z, pair, formula=formula))
            assert type(bisectional(sol, z, pair, formula=formula)) is float
            here = metric_jet(sol, z)
            assert (bisectional_from_jet(here, tensor_from_jet(here), v, w, formula=formula)
                    == bisectional(sol, z, pair, normalize=False, formula=formula))
    jet = metric_jet(sols[1], ORIGIN)
    with pytest.raises(ValueError):
        bisectional_from_jet(jet, tensor_from_jet(jet), v, w, formula="bogus")


def test_batch_matches_single(sol_p2):
    rng = np.random.default_rng(23)
    z = Point(complex(0.0, -0.3), complex(0.52, 0.9))
    vs, ws = random_vectors(rng, 8), random_vectors(rng, 8)
    batch = bisectional_batch(sol_p2, z, vs, ws)
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
    # from below; a local search from a coarse grid stops 1.27e-6 short of it
    z = Point(0j, 0.975 + 0j)
    pair = TangentPair(v=np.array([0.465695, -1.0]), w=np.array([1.0, 0.146903]))
    direct = bisectional(sol_p2, z, pair, formula="direct")
    assert abs(direct + 0.99953216337) < 1e-10
    assert bis_extremes(sol_p2, z).max >= direct - 1e-10


def test_bloch_form_satisfies_the_einstein_reduction(sols):
    # Ric = -3g forces a = -3/2, b = 0 and tr M = -3/2 in Bis = a + b.(n+m) + n^T M m
    for sol in sols.values():
        for x in np.linspace(-0.99, 0.99, 41):
            jet = metric_jet(sol, Point(0j, complex(x)))
            a, b, M = _bloch_form(jet, tensor_from_jet(jet))
            assert abs(a + 1.5) <= 1e-8
            assert np.linalg.norm(b) <= 1e-8
            assert abs(np.trace(M) + 1.5) <= 1e-8
    jet = metric_jet(sols[2], ORIGIN)
    _, _, M = _bloch_form(jet, tensor_from_jet(jet))
    assert np.allclose(np.linalg.eigvalsh(M), [-0.9, -0.45, -0.15], rtol=0.0, atol=1e-10)


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
        values = bisectional_batch(sol, ORIGIN, vs, ws)
        assert values.min() >= float(vals.bis_min) - 1e-9
        assert values.max() <= float(vals.bis_max) + 1e-9


def test_sectional_max_and_extremal_vector(sols):
    for sol in sols.values():
        vals = origin_closed_forms(sol.params)
        sm, argmax = sectional_max(sol, ORIGIN)
        assert abs(sm - float(vals.sect_max)) < 1e-7
        assert abs(sectional(sol, ORIGIN, argmax) - sm) < 1e-10
        vstar = extremal_sectional_vector(sol)
        assert abs(sectional(sol, ORIGIN, vstar) - float(vals.sect_max)) < 1e-9


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
    values = bisectional_batch(sol_p3, z, vs, ws)
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


def test_domain_errors(sol_p1):
    outside = Point(0.3 + 0j, 0j)
    pair = TangentPair(v=np.array([1, 0]), w=np.array([0, 1]))
    with pytest.raises(DomainError):
        bisectional(sol_p1, outside, pair)
    with pytest.raises(DomainError):
        bis_extremes(sol_p1, outside)
    with pytest.raises(DomainError):
        curvature_tensor(sol_p1, outside)
    with pytest.raises(DomainError):
        sectional_max(sol_p1, outside)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_deep_points_agree_with_shallower_ones(p, sols):
    # at Re z1 = -1e300 the pull's Jacobian entries lam ~ 1e-300 and
    # lam^{1/(2p)} part by up to 225 decades: unscaled, the features of a
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
                                *(sectional(sol, z, v) for v in vs),
                                *bisectional_batch(sol, z, vs, ws)])
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
                             lambda: sectional(sol, z, pair.v),
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
