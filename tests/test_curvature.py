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
from tubeke.curvature import (_bloch_split, _frame, _pull_to_axis, _reduced_form,
                              _spinor_vector)

from conftest import reference_form

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


@pytest.mark.parametrize("formula", ["tube", "direct"])
@pytest.mark.parametrize("bad, message", [
    (np.array([0.0, 0.0]), "tangent vectors must be nonzero"),
    (np.array([np.nan, 1.0]), "tangent vectors must be finite"),
    (np.array([1.0, complex(0.0, np.inf)]), "tangent vectors must be finite"),
    (np.array([1.0, 2.0, 3.0]), "of shape \\(2,\\), got shape \\(3,\\)"),
    (GOOD_ROWS, "of shape \\(2,\\), got shape \\(3, 2\\)"),
])
def test_single_point_vectors_are_validated(sol_p2, bad, message, formula):
    # the stacked path's checks, for one vector at a single point's jet
    jet = metric_jet(sol_p2, Point(0.01 + 0.2j, 0.3 - 0.1j))
    tensor = tensor_from_jet(jet)
    for v, w in ((bad, GOOD_ROWS[0]), (GOOD_ROWS[0], bad)):
        with pytest.raises(ValueError, match=message):
            bisectional_from_jet(jet, tensor, v, w, formula=formula)


def test_boundary_limit_refuses_a_stacked_jet(sol_p2):
    jet = metric_jet(sol_p2, Point(np.zeros(3, complex), np.array([0.1, 0.4, 0.9], complex)))
    pair = TangentPair(v=GOOD_ROWS[0], w=GOOD_ROWS[1])
    with pytest.raises(ValueError, match=re.escape("stacked points of shape (3,)")):
        boundary_limit_batch(jet, GOOD_ROWS, GOOD_ROWS)
    with pytest.raises(ValueError, match=re.escape("stacked points of shape (3,)")):
        boundary_limit_bis(jet, pair)


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
            _, a, b, (lam_y, mxx, _, mzz) = _bloch_split(jet, tensor_from_jet(jet))
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
            for (v, w), value in (((ext.argmin.v, ext.argmin.w), ext.min),
                                  ((ext.argmax.v, ext.argmax.w), ext.max),
                                  ((vstar, vstar), sect)):
                assert abs(g_norm_sq(jet, v) - 1.0) <= 1e-13
                assert abs(g_norm_sq(jet, w) - 1.0) <= 1e-13
                attained = bisectional_from_jet(jet, tensor, v, w)
                assert abs(attained - value) <= 3.0 * ext.einstein_defect + 1e-10 * abs(value)
            lam_y, mxx, mxz, mzz = _bloch_split(jet, tensor)[3]
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


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_extremes_refuse_a_large_einstein_defect(five_sols, p):
    # at 1 - |x| = 1e-4 the jet path's defect is <= 1.3e-4 and the extremes
    # answer; at 1e-6 it reads 0.13 (p=8) to 140 (p=1) and they refuse
    sol = five_sols[p]
    for x in (1.0 - 1e-4, -(1.0 - 1e-4)):
        jet = metric_jet(sol, Point(0j, complex(x)))
        tensor = tensor_from_jet(jet)
        ext = bis_extremes_from_jet(jet, tensor)
        assert ext.einstein_defect <= 1.3e-4
        assert ext.min <= ext.max < 0.0
        assert sectional_max_from_jet(jet, tensor)[0] < 0.0
    refused = [1.0 - 1e-6, -(1.0 - 1e-6)] + ([1.0 - 3e-5, 1.0 - 1e-5] if p == 1 else [])
    for x in refused:
        jet = metric_jet(sol, Point(0j, complex(x)))
        tensor = tensor_from_jet(jet)
        for evaluate in (bis_extremes_from_jet, sectional_max_from_jet):
            with pytest.raises(DomainError, match="Einstein defect .* accurate"):
                evaluate(jet, tensor)
        with pytest.raises(DomainError):
            bis_extremes(sol, Point(0j, complex(x)))


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


def exact_boundary_limit(g, v, w) -> float:
    """-1 - |<v,w>_g|^2 / (|v|_g^2 |w|_g^2), exact on the float inputs, rounded once."""
    g11, g12, g22 = (Fraction(float(e)) for e in (g[0, 0], g[0, 1], g[1, 1]))

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
    # of the exact value of the same float inputs, times 1 + kappa for the
    # cancellation kappa = |v1| sqrt(g22) / |v|_g in the frame coordinate
    # v1^ = (v1 + v0 g12/g22) sqrt(g22), at any cond(g) (up to 6e4 here).
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
            exact = [exact_boundary_limit(g, v, w) for v, w in zip(vs, ws)]
            kappa = [max(abs(u[1]) * math.sqrt(g[1, 1] / g_norm_sq(jet, u)) for u in pair)
                     for pair in zip(vs, ws)]
            error = np.abs(boundary_limit_batch(jet, vs, ws) - exact)
            assert np.all(error <= 4.0 * EPS * (1.0 + np.array(kappa)))
            # the frame's det g is the exact one rounded: alpha^2 det / g22 = 1
            g11, g12, g22 = (Fraction(float(e)) for e in (g[0, 0], g[0, 1], g[1, 1]))
            alpha = Fraction(_frame(float(g11), float(g12), float(g22))[0])
            assert abs(float(alpha ** 2 * (g11 * g22 - g12 * g12) / g22) - 1.0) <= 4.0 * EPS


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
