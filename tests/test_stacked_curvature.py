"""The count-class tensor formula and the stacked curvature paths.

reference_tensor_from_jet is the earlier per-index form of
tensor_from_jet, kept verbatim: the scalar path must reproduce it bit for
bit, and the stacked tensor, Bis values and extremes must reproduce the
scalar ones point by point.  The frame Bis is checked against the
feature form it replaced (conftest.reference_bis).
"""

import re

import numpy as np
import pytest

from tubeke import (
    CurvatureTensor,
    DomainError,
    Point,
    StackedJet,
    bis_extremes_from_jet,
    bisectional_from_jet,
    metric_jet,
    sectional_max_from_jet,
    tensor_from_jet,
)

from conftest import reference_bis

_IDX = (1, 2)
KEYS = ("R1111", "R1112", "R1122", "R1212", "R1222", "R2222")


def reference_tensor_from_jet(jet):
    """Curvature coefficients from an already computed metric jet."""
    d3, d4, ginv = jet.d3, jet.d4, jet.inverse

    def R(i, j, k, l):
        s = 0.0
        for a in _IDX:
            for b in _IDX:
                s += d3[(i, a, k)] * ginv[a - 1, b - 1] * d3[(b, j, l)]
        return -d4[(i, j, k, l)] + s

    return CurvatureTensor(
        R1111=R(1, 1, 1, 1), R1112=R(1, 1, 1, 2), R1122=R(1, 1, 2, 2),
        R1212=R(1, 2, 1, 2), R1222=R(1, 2, 2, 2), R2222=R(2, 2, 2, 2),
    )


def sample_points(p, rng, n, x_cap=0.99):
    xs = rng.uniform(-x_cap, x_cap, n)
    rs = rng.uniform(0.2, 3.0, n)
    ys = rng.uniform(-2.0, 2.0, (n, 2))
    return [Point(complex((1.0 - r) / (4 * p), y1), complex(x * r ** (1.0 / (2 * p)), y2))
            for x, r, (y1, y2) in zip(xs, rs, ys)]


def near_boundary_points(p, rng, n):
    """Points with 0.99 <= |X| <= 0.9999."""
    xs = rng.uniform(0.99, 0.9999, n) * rng.choice([-1.0, 1.0], n)
    rs = rng.uniform(0.2, 3.0, n)
    return [Point(complex((1.0 - r) / (4 * p), 0.3), complex(x * r ** (1.0 / (2 * p)), -0.7))
            for x, r in zip(xs, rs)]


def stack_of(jets):
    """The StackedJet holding exactly the values of scalar jets."""
    def col(values):
        return np.array(list(values), dtype=float)
    return StackedJet(
        point=Point.stack(jet.point for jet in jets),
        x_value=col(jet.x_value for jet in jets),
        metric=tuple(col(jet.metric[a, b] for jet in jets) for a, b in ((0, 0), (0, 1), (1, 1))),
        d3=tuple(col(jet.d3[(1,) * m + (2,) * (3 - m)] for jet in jets) for m in range(4)),
        d4=tuple(col(jet.d4[(1,) * m + (2,) * (4 - m)] for jet in jets) for m in range(5)),
    )


def as_array(tensor):
    return np.array([getattr(tensor, key) for key in KEYS])


@pytest.mark.parametrize("p", [1, 2, 3])
def test_scalar_tensor_is_bit_equal_to_the_per_index_form(p, sols):
    rng = np.random.default_rng(40 + p)
    for z in sample_points(p, rng, 100) + near_boundary_points(p, rng, 20) + [Point(0j, 0j)]:
        jet = metric_jet(sols[p], z)
        new, old = tensor_from_jet(jet), reference_tensor_from_jet(jet)
        for key in KEYS:
            assert getattr(new, key) == getattr(old, key), (z, key)
            assert type(getattr(new, key)) is type(getattr(old, key))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_stacked_tensor_matches_the_scalar_tensor_per_point(p, sols):
    sol = sols[p]
    points = sample_points(p, np.random.default_rng(50 + p), 200)
    jets = [metric_jet(sol, z) for z in points]
    tensor = tensor_from_jet(metric_jet(sol, Point.stack(points)))
    # the formula itself: on the scalar jets' own values it is exact
    same_input = tensor_from_jet(stack_of(jets))
    for i, jet in enumerate(jets):
        ref = as_array(reference_tensor_from_jet(jet))
        assert np.array_equal(as_array(same_input)[:, i], ref)
        assert np.max(np.abs(as_array(tensor)[:, i] - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_stacked_bisectional_matches_bisectional_from_jet(p, sols):
    sol = sols[p]
    rng = np.random.default_rng(60 + p)
    points = sample_points(p, rng, 80) + near_boundary_points(p, rng, 40)
    vs = rng.normal(size=(120, 2)) + 1j * rng.normal(size=(120, 2))
    ws = rng.normal(size=(120, 2)) + 1j * rng.normal(size=(120, 2))
    jets = [metric_jet(sol, z) for z in points]
    # on the scalar jets' own values the forms agree to rounding; through
    # the stacked metric_jet the jets' own rounding differences come in as well,
    # amplified toward the boundary
    for stacked, near_tol in ((stack_of(jets), 1e-13),
                              (metric_jet(sol, Point.stack(points)), 1e-11)):
        tensor = tensor_from_jet(stacked)
        for formula in ("tube", "direct"):
            values = bisectional_from_jet(stacked, tensor, vs, ws, formula=formula)
            assert values.shape == (120,)
            for i, jet in enumerate(jets):
                ref = bisectional_from_jet(jet, tensor_from_jet(jet), vs[i], ws[i],
                                           formula=formula)
                tol = 1e-13 if abs(jet.x_value) <= 0.99 else near_tol
                assert abs(values[i] - ref) <= tol * abs(ref), (formula, i, jet.x_value)
    # the frame split against the feature form it replaced
    for i, jet in enumerate(jets[:80]):
        tensor = tensor_from_jet(jet)
        ref = reference_bis(jet, tensor, vs[i], ws[i])
        assert abs(bisectional_from_jet(jet, tensor, vs[i], ws[i]) - ref) <= 1e-13 * abs(ref), i


def test_stacked_bisectional_rejects_bad_input(sol_p2):
    jet = metric_jet(sol_p2, Point.stack([Point(0j, 0.3 + 0j), Point(0j, -0.2 + 0j)]))
    tensor = tensor_from_jet(jet)
    v = np.array([[1.0 + 0j, 2.0], [0.5, 1j]])
    with pytest.raises(ValueError, match="unknown formula"):
        bisectional_from_jet(jet, tensor, v, v, formula="bloch")
    with pytest.raises(ValueError, match="one vector pair per point"):
        bisectional_from_jet(jet, tensor, v[:1], v[:1])
    with pytest.raises(ValueError, match="tangent vectors must be nonzero"):
        bisectional_from_jet(jet, tensor, v, np.array([[1.0, 0.0], [0.0, 0.0]]))


def axis_stack(xs):
    xs = np.asarray(xs, dtype=float)
    return Point(np.zeros(len(xs), complex), xs.astype(complex))


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_stacked_extremes_equal_the_scalar_extremes_per_point(p, five_sols):
    # the split is +, -, *, / and sqrt only, and each frame is the scalar
    # _frame: the same inputs give the same bits, values and extremizers
    sol = five_sols[p]
    rng = np.random.default_rng(70 + p)
    points = sample_points(p, rng, 60) + near_boundary_points(p, rng, 20)
    axis = np.concatenate([np.linspace(-(1.0 - 1e-4), 1.0 - 1e-4, 61), [0.0, 0.5, 0.999]])
    jets = [metric_jet(sol, z) for z in points]
    axis_jets = [metric_jet(sol, Point(0j, complex(x))) for x in axis.tolist()]
    for stacked, scalar in ((stack_of(jets), jets), (metric_jet(sol, axis_stack(axis)), axis_jets)):
        tensor = tensor_from_jet(stacked)
        ext = bis_extremes_from_jet(stacked, tensor)
        sect, vstar = sectional_max_from_jet(stacked, tensor)
        n = len(scalar)
        assert ext.min.shape == ext.max.shape == ext.einstein_defect.shape == sect.shape == (n,)
        assert all(rows.shape == (n, 2) for rows in (*ext.argmin, *ext.argmax, vstar))
        for i, jet in enumerate(scalar):
            ref = bis_extremes_from_jet(jet, tensor_from_jet(jet))
            ref_sect, ref_vstar = sectional_max_from_jet(jet, tensor_from_jet(jet))
            assert (ext.min[i], ext.max[i], ext.einstein_defect[i], sect[i]) == (
                ref.min, ref.max, ref.einstein_defect, ref_sect), (p, i)
            for rows, pair in ((ext.argmin, ref.argmin), (ext.argmax, ref.argmax)):
                assert np.array_equal(rows[0][i], pair.v) and np.array_equal(rows[1][i], pair.w)
            assert np.array_equal(vstar[i], ref_vstar)


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_stacked_extremizers_attain_their_values(p, five_sols):
    sol = five_sols[p]
    rng = np.random.default_rng(80 + p)
    # up to 1 - |X| = 1e-4, where the frame Bis checks the pairs to
    # rounding beyond three times the Einstein defect
    points = sample_points(p, rng, 60)
    points += [Point(0j, complex(x)) for x in (0.0, 0.9, 0.99, 0.999, -0.999, 0.9999, -0.9999,
                                                1.0 - 2e-4, 1.0 - 1e-4)]
    jet = metric_jet(sol, Point.stack(points))
    tensor = tensor_from_jet(jet)
    ext = bis_extremes_from_jet(jet, tensor)
    sect, vstar = sectional_max_from_jet(jet, tensor)
    for (vs, ws), values in ((ext.argmin, ext.min), (ext.argmax, ext.max), ((vstar, vstar), sect)):
        attained = bisectional_from_jet(jet, tensor, vs, ws)
        tol = 3.0 * ext.einstein_defect + 1e-13 * np.abs(values)
        assert np.all(np.abs(attained - values) <= tol), p
    assert np.all(ext.min <= ext.max) and np.all(ext.max < 0.0) and np.all(sect < 0.0)


@pytest.mark.parametrize("p", [1, 2, 8])
def test_stacked_refusal_names_the_first_refused_x(p, five_sols):
    # beyond 1 - |x| = 1e-6 every p is refused; the message names the
    # first such row, not the worst one
    sol = five_sols[p]
    xs = [0.3, 1.0 - 1e-4, -(1.0 - 1e-6), 0.5, 1.0 - 1e-7]
    jet = metric_jet(sol, axis_stack(xs))
    tensor = tensor_from_jet(jet)
    first = repr(float(jet.x_value[2]))
    for evaluate in (bis_extremes_from_jet, sectional_max_from_jet):
        with pytest.raises(DomainError, match=f"at X = {re.escape(first)} are refused"):
            evaluate(jet, tensor)
    # without the refused rows the same stack answers
    kept = metric_jet(sol, axis_stack(xs[:2] + xs[3:4]))
    assert np.all(bis_extremes_from_jet(kept, tensor_from_jet(kept)).einstein_defect <= 1.3e-4)
