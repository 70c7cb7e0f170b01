"""The count-class tensor formula and the stacked curvature paths.

reference_tensor_from_jet is the earlier per-index form of
tensor_from_jet, read through the index-word accessor: the scalar path
must reproduce it bit for bit, and the stacked tensor, Bis values and
extremes must reproduce the scalar ones point by point.  The frame Bis is
checked against the feature form it replaced (conftest.reference_bis).
"""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from tubeke import (
    CurvatureTensor,
    DomainError,
    MetricJet,
    Point,
    TangentPair,
    bis_extremes,
    bis_extremes_from_jet,
    bisectional,
    bisectional_from_jet,
    boundary_limit_bis,
    metric_jet,
    sectional_max,
    sectional_max_from_jet,
    tensor_from_jet,
)

from tubeke.curvature import _axis_form, _bis_frame

from conftest import reference_bis, reference_extremes

_SNAPSHOT = Path(__file__).resolve().parent.parent / "tools" / "snapshot.py"
_SPEC = importlib.util.spec_from_file_location("snapshot", _SNAPSHOT)
snapshot = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(snapshot)

KEYS = ("R1111", "R1112", "R1122", "R1212", "R1222", "R2222")


def reference_tensor_from_jet(jet):
    """Curvature coefficients from an already computed metric jet.

    The inverse is the adjugate over g's own det, and the sums run in
    np.longdouble and round once, as tensor_from_jet forms them.
    """
    double = float if np.ndim(jet.g[0]) == 0 else (lambda v: v.astype(float))
    one = np.longdouble(1.0)
    g11, g12, g22 = (one * v for v in jet.g)
    det = g11 * g22 - g12 * g12

    def R(i, j, k, l):
        def d(*word):
            return one * jet.deriv(*word)
        u = g22 * d(1, j, l) - g12 * d(2, j, l)
        w = g11 * d(2, j, l) - g12 * d(1, j, l)
        return double((d(i, 1, k) * u + d(i, 2, k) * w) / det - jet.deriv(i, j, k, l))

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


def rows_of(jet):
    """The single-point MetricJets holding exactly the rows of a stacked jet."""
    def row(values, i):
        return tuple(a[i].item() for a in values)
    return [MetricJet(p=jet.p, point=Point(jet.point.z1[i].item(), jet.point.z2[i].item()),
                      x_value=jet.x_value[i].item(), g=row(jet.g, i),
                      det=jet.det[i].item(), d3=row(jet.d3, i),
                      d4=row(jet.d4, i), profile=row(jet.profile, i))
            for i in range(len(jet.x_value))]


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
    stacked = metric_jet(sol, Point.stack(points))
    tensor = tensor_from_jet(stacked)
    # the stacked jet's rows are the single jets, and the formula is exact
    for i, jet in enumerate(jets):
        assert np.array_equal(as_array(tensor)[:, i], as_array(reference_tensor_from_jet(jet)))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_stacked_bisectional_matches_bisectional_from_jet(p, sols):
    sol = sols[p]
    rng = np.random.default_rng(60 + p)
    points = sample_points(p, rng, 80) + near_boundary_points(p, rng, 40)
    vs = rng.normal(size=(120, 2)) + 1j * rng.normal(size=(120, 2))
    ws = rng.normal(size=(120, 2)) + 1j * rng.normal(size=(120, 2))
    stacked = metric_jet(sol, Point.stack(points))
    jets = [metric_jet(sol, z) for z in points]
    # the stacked jet's rows are the single jets: the tube formula gives
    # their values bit for bit, the 16-term sum (whose complex products
    # round differently on arrays) to rounding
    tensor = tensor_from_jet(stacked)
    for formula in ("tube", "direct"):
        values = bisectional_from_jet(stacked, tensor, TangentPair(v=vs, w=ws), formula=formula)
        assert values.shape == (120,)
        refs = np.array([bisectional_from_jet(jet, tensor_from_jet(jet),
                                              TangentPair(v=vs[i], w=ws[i]), formula=formula)
                         for i, jet in enumerate(jets)])
        if formula == "tube":
            assert values.tobytes() == refs.tobytes()
        assert np.all(np.abs(values - refs) <= 1e-13 * np.abs(refs)), formula
    # the frame split against the feature form it replaced
    for i, jet in enumerate(jets[:80]):
        tensor = tensor_from_jet(jet)
        ref = reference_bis(jet, tensor, vs[i], ws[i])
        pair = TangentPair(v=vs[i], w=ws[i])
        assert abs(bisectional_from_jet(jet, tensor, pair) - ref) <= 1e-13 * abs(ref), i


def test_stacked_bisectional_rejects_bad_input(sol_p2):
    jet = metric_jet(sol_p2, Point.stack([Point(0j, 0.3 + 0j), Point(0j, -0.2 + 0j)]))
    tensor = tensor_from_jet(jet)
    v = np.array([[1.0 + 0j, 2.0], [0.5, 1j]])
    with pytest.raises(ValueError, match="unknown formula"):
        bisectional_from_jet(jet, tensor, TangentPair(v=v, w=v), formula="bloch")
    with pytest.raises(ValueError, match="1 vector pairs cannot go with 2 stacked points"):
        bisectional_from_jet(jet, tensor, TangentPair(v=v[:1], w=v[:1]))
    with pytest.raises(ValueError, match="tangent vectors must be nonzero"):
        bisectional_from_jet(jet, tensor,
                             TangentPair(v=v, w=np.array([[1.0, 0.0], [0.0, 0.0]])))


def axis_stack(xs):
    xs = np.asarray(xs, dtype=float)
    return Point(np.zeros(len(xs), complex), xs.astype(complex))


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_stacked_extremes_equal_the_scalar_extremes_per_point(p, five_sols):
    # the frame and the closed forms are +, -, *, / and sqrt only: the same
    # inputs give the same bits, values and extremizers, in a stack that
    # mixes points off the axis with axis points, one beyond 1 - |X| = 1e-4
    sol = five_sols[p]
    rng = np.random.default_rng(70 + p)
    points = sample_points(p, rng, 60) + near_boundary_points(p, rng, 20)
    points += [Point(0j, complex(x)) for x in (0.0, 0.5, 1.0 - 1e-5)]
    axis = np.concatenate([np.linspace(-(1.0 - 1e-4), 1.0 - 1e-4, 61), [0.0, 0.5, 0.999]])
    stacked = metric_jet(sol, Point.stack(points))
    axis_jets = [metric_jet(sol, Point(0j, complex(x))) for x in axis.tolist()]
    for stacked, scalar in ((stacked, [metric_jet(sol, z) for z in points]),
                            (metric_jet(sol, axis_stack(axis)), axis_jets)):
        tensor = tensor_from_jet(stacked)
        ext = bis_extremes_from_jet(stacked, tensor)
        sect, vstar = sectional_max_from_jet(stacked, tensor)
        n = len(scalar)
        assert ext.min.shape == ext.max.shape == ext.einstein_defect.shape == sect.shape == (n,)
        assert all(rows.shape == (n, 2) for rows in (ext.argmin.v, ext.argmin.w,
                                                     ext.argmax.v, ext.argmax.w, vstar))
        for i, jet in enumerate(scalar):
            ref = bis_extremes_from_jet(jet, tensor_from_jet(jet))
            ref_sect, ref_vstar = sectional_max_from_jet(jet, tensor_from_jet(jet))
            assert (ext.min[i], ext.max[i], ext.einstein_defect[i], sect[i]) == (
                ref.min, ref.max, ref.einstein_defect, ref_sect), (p, i)
            for rows, pair in ((ext.argmin, ref.argmin), (ext.argmax, ref.argmax)):
                assert np.array_equal(rows.v[i], pair.v) and np.array_equal(rows.w[i], pair.w)
            assert np.array_equal(vstar[i], ref_vstar)


def extremes_form_bis(jet, pair):
    """Bis at stacked pairs from the extremes' own form: a = -3/2, b = 0, M of the closed forms."""
    frame, M, _ = _axis_form(jet)
    return _bis_frame((frame, -1.5, (0.0, 0.0), M), pair.v.T, pair.w.T)


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_stacked_extremizers_attain_their_values(p, five_sols):
    sol = five_sols[p]
    rng = np.random.default_rng(80 + p)
    # up to 1 - |X| = 1e-4: the pairs attain the values in the form they
    # come from, to rounding beyond three times its Einstein defect
    points = sample_points(p, rng, 60)
    points += [Point(0j, complex(x)) for x in (0.0, 0.9, 0.99, 0.999, -0.999, 0.9999, -0.9999,
                                                1.0 - 2e-4, 1.0 - 1e-4)]
    jet = metric_jet(sol, Point.stack(points))
    tensor = tensor_from_jet(jet)
    ext = bis_extremes_from_jet(jet, tensor)
    sect, vstar = sectional_max_from_jet(jet, tensor)
    for pair, values in ((ext.argmin, ext.min), (ext.argmax, ext.max),
                         (TangentPair(v=vstar, w=vstar), sect)):
        attained = extremes_form_bis(jet, pair)
        tol = 3.0 * ext.einstein_defect + 1e-13 * np.abs(values)
        assert np.all(np.abs(attained - values) <= tol), p
    assert np.all(ext.min <= ext.max) and np.all(ext.max < 0.0) and np.all(sect < 0.0)


@pytest.mark.parametrize("p", [1, 2, 8])
def test_stacked_refusal_names_the_first_refused_x(p, five_sols):
    # the tube formula answers every row, as the row's single point does
    sol = five_sols[p]
    xs = [0.3, 1.0 - 1e-4, -(1.0 - 1e-6), 0.5, 1.0 - 1e-7]
    jet = metric_jet(sol, axis_stack(xs))
    tensor = tensor_from_jet(jet)
    pair = TangentPair(v=np.array([1.0, 0.5j]), w=np.array([0.3, 1.0]))
    values = bisectional_from_jet(jet, tensor, pair)
    single = [bisectional_from_jet(j, tensor_from_jet(j), pair)
              for j in (metric_jet(sol, Point(0j, complex(x))) for x in xs)]
    assert values.tolist() == single and np.all(values < 0.0)
    # beyond 1 - |x| = 1e-4 the direct formula's values are refused; the
    # message names the first such row, not the worst one
    first = repr(float(jet.x_value[2]))
    with pytest.raises(DomainError,
                       match=f"direct Bis values at X = {re.escape(first)} are refused"):
        bisectional_from_jet(jet, tensor, pair, formula="direct")
    # without the refused rows the same stack answers
    kept = metric_jet(sol, axis_stack(xs[:2] + xs[3:4]))
    assert np.all(bisectional_from_jet(kept, tensor_from_jet(kept), pair, formula="direct") < 0.0)
    # the extremes answer every row, from the closed forms
    ext = bis_extremes_from_jet(jet, tensor)
    assert np.all(ext.einstein_defect <= 1.3e-4)
    assert np.all(ext.min <= ext.max) and np.all(ext.max < 0.0)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_bis_extremes_and_sectional_max_take_stacked_points(p, sols):
    # off-axis points: X has one pow for single and stacked points, so
    # each row is the single-point call, bit for bit
    sol = sols[p]
    rng = np.random.default_rng(90 + p)
    points = sample_points(p, rng, 100) + near_boundary_points(p, rng, 20) + [Point(0j, 0j)]
    z = Point.stack(points)
    ext = bis_extremes(sol, z)
    sect, vstar = sectional_max(sol, z)
    assert ext.min.shape == sect.shape == (len(points),) and vstar.shape == (len(points), 2)
    for i, point in enumerate(points):
        ref = bis_extremes(sol, point)
        ref_sect, ref_vstar = sectional_max(sol, point)
        assert (ext.min[i], ext.max[i], ext.einstein_defect[i], sect[i]) == (
            ref.min, ref.max, ref.einstein_defect, ref_sect), (p, i)
        for rows, pair in ((ext.argmin, ref.argmin), (ext.argmax, ref.argmax)):
            assert np.array_equal(rows.v[i], pair.v) and np.array_equal(rows.w[i], pair.w)
        assert np.array_equal(vstar[i], ref_vstar)


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_extremes_equal_the_eager_reference(p, five_sols):
    # the values, and the pairs built on first read, bit for bit; stacked
    # and at each row as a single point
    sol = five_sols[p]
    rng = np.random.default_rng(100 + p)
    points = sample_points(p, rng, 40) + near_boundary_points(p, rng, 10)
    points += [Point(0j, 0j), Point(0j, complex(1.0 - 1e-4))]
    stacked = metric_jet(sol, Point.stack(points))
    for jet in (stacked, *rows_of(stacked)):
        ext = bis_extremes_from_jet(jet, tensor_from_jet(jet))
        low, argmin, high, argmax = reference_extremes(jet, tensor_from_jet(jet))
        assert np.array_equal(ext.min, low) and np.array_equal(ext.max, high)
        for lazy, eager in ((ext.argmin, argmin), (ext.argmax, argmax)):
            assert type(lazy) is type(eager) is TangentPair
            assert np.array_equal(lazy.v, eager.v) and np.array_equal(lazy.w, eager.w)


def test_an_empty_stack_gives_empty_results(sol_p2):
    z = Point(np.zeros(0, complex), np.zeros(0, complex))
    ext = bis_extremes(sol_p2, z)
    assert ext.min.shape == ext.max.shape == ext.einstein_defect.shape == (0,)
    assert all(rows.shape == (0, 2) for rows in (ext.argmin.v, ext.argmin.w,
                                                 ext.argmax.v, ext.argmax.w))
    sect, vstar = sectional_max(sol_p2, z)
    assert sect.shape == (0,) and vstar.shape == (0, 2)
    jet = metric_jet(sol_p2, z)
    none = np.empty((0, 2), complex)
    for formula in ("tube", "direct"):
        assert bisectional_from_jet(jet, tensor_from_jet(jet), TangentPair(v=none, w=none),
                                    formula=formula).shape == (0,)


def test_a_stack_of_more_than_one_dimension_is_refused():
    # a Point takes scalars and 1-d stacks of one length, so no door meets
    # another shape: the constructor names the shapes
    for z1, z2 in ((np.zeros((2, 2), complex), np.full((2, 2), 0.3 + 0j)),
                   (0j, np.full((2, 2), 0.3 + 0j)),
                   (np.zeros(2, complex), np.full(3, 0.3 + 0j))):
        message = f"got coordinates of shapes {np.shape(z1)} and {np.shape(z2)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Point(z1, z2)


def test_bisectional_at_stacked_points_pairs_one_vector_pair_with_each(sols):
    # the pushed vectors are (2, n) columns, one per point, in every mode;
    # one point with one pair stays in Python scalars from the pull to the
    # sum and gives a float with the bits of its row, also at the snapshot's
    # deep points and with its pairs far out of scale, subnormal or with a
    # zero component
    pairs = [TangentPair(v=np.array([1.0, 1j]), w=np.array([0.5, 2.0])),
             *snapshot.tangent_pairs()]
    for p, sol in sols.items():
        points = (sample_points(p, np.random.default_rng(95), 2) + [Point(0j, 0.5 + 0j)]
                  + snapshot.pair_points(p))
        for normalize in (True, False):
            # the raw jet refuses the deep points
            at = points if normalize else points[:-len(snapshot.DEEP)]
            z = Point.stack(at)
            for formula in ("tube", "direct"):
                kw = {"normalize": normalize, "formula": formula}
                for pair in pairs:
                    single = [bisectional(sol, point, pair, **kw) for point in at]
                    assert all(type(value) is float for value in single), (p, kw)
                    rows = TangentPair(v=np.tile(pair.v, (len(at), 1)),
                                       w=np.tile(pair.w, (len(at), 1)))
                    for stacked in (bisectional(sol, z, pair, **kw),
                                    bisectional(sol, z, rows, **kw)):
                        assert stacked.shape == (len(at),)
                        assert stacked.tobytes() == np.array(single).tobytes(), (p, kw, pair)


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_bisectional_at_stacked_points_equals_the_single_calls_bit_for_bit(p, five_sols):
    # row i of n pairs at n stacked points is the single call at point i
    # with pair i: lam^{1/(2p)} is one pow, the Bloch vectors round alike
    # on Python complex and on numpy columns, and the raw jet's tables take
    # one root and one log for both
    sol = five_sols[p]
    rng = np.random.default_rng(110 + p)
    points = sample_points(p, rng, 100) + near_boundary_points(p, rng, 20)
    vs = rng.normal(size=(120, 2)) + 1j * rng.normal(size=(120, 2))
    ws = rng.normal(size=(120, 2)) + 1j * rng.normal(size=(120, 2))
    for normalize in (True, False):
        values = bisectional(sol, Point.stack(points), TangentPair(v=vs, w=ws),
                             normalize=normalize)
        single = [bisectional(sol, z, TangentPair(v=v, w=w), normalize=normalize)
                  for z, v, w in zip(points, vs, ws)]
        assert values.shape == (120,)
        assert values.tobytes() == np.array(single).tobytes(), normalize


def test_the_broadcast_rule(sol_p2):
    # a single point takes one pair (a float) or n pairs (n values); n
    # stacked points take one pair or n pairs, row with row; every door
    # applies the rule, and refuses other counts naming both
    points = sample_points(2, np.random.default_rng(120), 3)
    z, one = Point.stack(points), TangentPair(v=[1.0, 1j], w=[0.5, 2.0])
    rows = TangentPair(v=[[1.0, 1j], [0.3, -1.0], [2j, 1.0]], w=[[0.5, 2.0], [1.0, 0.0], [1j, 1j]])
    jet, jets = metric_jet(sol_p2, z), [metric_jet(sol_p2, point) for point in points]
    doors = (lambda z, jet, pair: bisectional(sol_p2, z, pair),
             lambda z, jet, pair: bisectional(sol_p2, z, pair, normalize=False),
             lambda z, jet, pair: bisectional_from_jet(jet, tensor_from_jet(jet), pair),
             lambda z, jet, pair: boundary_limit_bis(jet, pair))
    for door in doors:
        assert type(door(points[0], jets[0], one)) is float
        at_one = door(points[0], jets[0], rows)
        assert at_one.shape == (3,)
        for i in range(3):
            row = TangentPair(v=rows.v[i], w=rows.w[i])
            assert at_one[i] == door(points[0], jets[0], row)
        for pair in (one, rows):
            stacked = door(z, jet, pair)
            assert stacked.shape == (3,)
            ref = [door(point, single, pair if pair is one else
                        TangentPair(v=pair.v[i], w=pair.w[i]))
                   for i, (point, single) in enumerate(zip(points, jets))]
            assert stacked.tobytes() == np.array(ref).tobytes()
        two = TangentPair(v=rows.v[:2], w=rows.w[:2])
        with pytest.raises(ValueError, match="2 vector pairs cannot go with 3 stacked points"):
            door(z, jet, two)
        none = TangentPair(v=np.empty((0, 2)), w=np.empty((0, 2)))
        assert door(points[0], jets[0], none).shape == (0,)


def test_a_scalar_z1_with_a_stacked_z2_takes_the_broadcast_rule(sol_p2):
    # the stack's length comes from either coordinate: a scalar z1 goes with
    # every point of z2, as the stack of three full points does
    mixed = Point(-0.1 + 0.3j, np.array([0.5 + 0.2j, 0.1, -0.3 + 0.1j]))
    full = Point(np.full(3, mixed.z1), mixed.z2)
    rng = np.random.default_rng(140)
    one, rows = (TangentPair(v=rng.normal(size=shape) + 1j * rng.normal(size=shape),
                             w=rng.normal(size=shape) - 1j) for shape in ((2,), (3, 2)))
    for kw in ({}, {"normalize": False}, {"formula": "direct"}):
        for pair in (one, rows):
            assert (bisectional(sol_p2, mixed, pair, **kw).tobytes()
                    == bisectional(sol_p2, full, pair, **kw).tobytes()), kw
        for n in (1, 5):
            pair = TangentPair(v=np.ones((n, 2)), w=np.ones((n, 2)) * 1j)
            with pytest.raises(ValueError,
                               match=f"{n} vector pairs cannot go with 3 stacked points"):
                bisectional(sol_p2, mixed, pair, **kw)
