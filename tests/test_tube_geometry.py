"""Domain membership, the orbit invariant, automorphisms, and regions."""

import math
import re
import warnings

import numpy as np
import pytest

from tubeke import (
    BoundaryClass,
    bis_extremes,
    DomainError,
    Point,
    RegionClass,
    TubeAutomorphism,
    TubeParams,
    apply,
    classify_boundary,
    in_cone,
    in_domain,
    jacobian,
    jacobian_det,
    metric_jet,
    normalizing_automorphism,
    region,
    x_invariant,
)
from tubeke.tube_geometry import require_domain

P1 = TubeParams(p=1)
P2 = TubeParams(p=2)


def random_points(params, rng, n, x_cap=0.999):
    p = params.p
    out = []
    for _ in range(n):
        x = rng.uniform(-x_cap, x_cap)
        r = rng.uniform(0.1, 4.0)
        y1, y2 = rng.uniform(-3.0, 3.0, 2)
        out.append(Point(complex((1.0 - r) / (4 * p), y1),
                         complex(x * r ** (1.0 / (2 * p)), y2)))
    return out


def test_point_parse():
    z = Point.parse("0.5,-1,2,3.25")
    assert z.z1 == 0.5 - 1j and z.z2 == 2 + 3.25j
    assert z.as_reals() == [0.5, -1.0, 2.0, 3.25]


@pytest.mark.parametrize("bad", ["1,2,3", "1,2,3,4,5", "a,b,c,d", ""])
def test_point_parse_rejects(bad):
    with pytest.raises(ValueError):
        Point.parse(bad)


def test_point_holds_double_precision_coordinates(sol_p3):
    # complex64 coordinates, scalar or stacked, are widened once (exactly)
    # by the constructor, so the point computes as its double twin; before,
    # X was formed in single precision, 5.9e-8 (relative) off
    z1, z2 = np.complex64(0.01 + 0.2j), np.complex64(0.5 - 0.1j)
    twin = Point(complex(z1), complex(z2))
    params = sol_p3.params
    for z in (Point(z1, z2), Point(np.array(z1), np.array(z2)),
              Point(np.float32(z1.real) + 1j * np.float32(z1.imag), z2)):
        assert type(z.z1) is complex and type(z.z2) is complex
        assert (z.z1, z.z2) == (twin.z1, twin.z2)
        assert x_invariant(params, z) == x_invariant(params, twin)
    stack = Point(np.array([z1] * 3), np.array([z2] * 3))
    assert stack.z1.dtype == stack.z2.dtype == np.complex128
    jet, twin_jet = metric_jet(sol_p3, stack), metric_jet(sol_p3, twin)
    assert np.array_equal(jet.det, [twin_jet.det] * 3)
    ext, twin_ext = bis_extremes(sol_p3, stack), bis_extremes(sol_p3, twin)
    assert np.array_equal(ext.min, [twin_ext.min] * 3)
    assert np.array_equal(ext.max, [twin_ext.max] * 3)


def test_point_keeps_python_complex_values_and_broadcasts_a_scalar():
    z1, z2 = 0.01 + 0.2j, 0.5 - 0.1j
    z = Point(z1, z2)
    assert z.z1 is z1 and z.z2 is z2
    assert Point(0.25, 1).z1 == 0.25 + 0j and type(Point(0.25, 1).z2) is complex
    stack = Point(0j, [0.1, 0.2])
    assert stack.z1 == 0j and stack.z2.dtype == np.complex128 and stack.z2.shape == (2,)
    assert np.array_equal(in_domain(P2, stack), [True, True])


@pytest.mark.parametrize("p", range(1, 6))
def test_identity_and_translations_keep_the_real_parts(p):
    # Re z1' comes from the change of depth, 0 for lam = 1, so the real
    # parts pass bit for bit; (1 - r')/(4p) moved them by rounding
    params = TubeParams(p=p)
    rng = np.random.default_rng(700 + p)
    points = [Point(0.01 + 0.2j, 0.5 - 0.1j)]
    draws = (rng.uniform(-0.5, 0.99 / (4 * p), 50), rng.uniform(-0.99, 0.99, 50),
             *rng.uniform(-3.0, 3.0, (2, 50)))
    for re1, x, im1, im2 in zip(*draws):
        points.append(Point(complex(re1, im1), complex(x * (1.0 - 4 * p * re1) ** (0.5 / p), im2)))
    for z in points:
        for u in ((0.0, 0.0), tuple(rng.uniform(-5.0, 5.0, 2))):
            image = apply(TubeAutomorphism(params, u=u), z)
            assert image.z1.real.hex() == z.z1.real.hex(), (z, u)
            assert image.z2.real.hex() == z.z2.real.hex(), (z, u)


def test_in_domain_examples():
    assert in_domain(P1, Point(0j, 0j))
    assert in_domain(P1, Point(0.2499 + 5j, 0j))          # depth > 0
    assert not in_domain(P1, Point(0.25 + 0j, 0j))        # vertex itself
    assert not in_domain(P1, Point(0j, 1.0 + 0j))         # Re(z2)^2 = 1
    assert in_domain(P1, Point(0j, 0.999 + 100j))         # Im free
    assert in_domain(P2, Point(-10 + 0j, 2.0 + 0j))       # deep inside
    assert not in_domain(P2, Point(0j, -1.1 + 0j))        # even power of Re z2


def test_x_invariant_formula():
    rng = np.random.default_rng(3)
    for params in (P1, P2):
        p = params.p
        for z in random_points(params, rng, 50):
            r = 1.0 - 4 * p * z.z1.real
            assert math.isclose(x_invariant(params, z),
                                z.z2.real / r ** (1.0 / (2 * p)), rel_tol=1e-15)
    with pytest.raises(DomainError):
        x_invariant(P1, Point(0.3 + 0j, 0j))


def test_x_invariant_range_inside_domain():
    rng = np.random.default_rng(4)
    for z in random_points(P2, rng, 200):
        assert -1.0 < x_invariant(P2, z) < 1.0


def test_translations_and_dilations_preserve_x():
    rng = np.random.default_rng(5)
    for params in (P1, P2):
        for z in random_points(params, rng, 100):
            x0 = x_invariant(params, z)
            tau = TubeAutomorphism(params=params, u=(0.7, -2.2))
            dil = TubeAutomorphism(params=params, lam=3.5)
            assert abs(x_invariant(params, apply(tau, z)) - x0) <= 1e-14
            assert abs(x_invariant(params, apply(dil, z)) - x0) <= 5e-14


def test_flip_negates_x():
    rng = np.random.default_rng(6)
    flip = TubeAutomorphism(params=P2, flip=True)
    for z in random_points(P2, rng, 50):
        assert abs(x_invariant(P2, apply(flip, z)) + x_invariant(P2, z)) <= 1e-14


def test_apply_composition_order():
    # translate then dilate: z1 -> (lam*(4p(z1+iu1)-1)+1)/(4p)
    z = Point(0.03 + 0.4j, 0.2 - 0.1j)
    a = TubeAutomorphism(params=P1, lam=2.0, u=(0.5, -1.0))
    img = apply(a, z)
    w1 = z.z1 + 0.5j
    assert img.z1 == (2.0 * (4 * w1 - 1) + 1) / 4
    assert img.z2 == 2.0 ** 0.5 * (z.z2 - 1.0j)


def test_normalizing_automorphism_sends_to_axis():
    rng = np.random.default_rng(7)
    for params in (P1, P2):
        for z in random_points(params, rng, 100):
            psi = normalizing_automorphism(params, z)
            img = apply(psi, z)
            assert abs(img.z1) <= 1e-14
            assert abs(img.z2.imag) <= 1e-14
            assert abs(img.z2.real - x_invariant(params, z)) <= 1e-14
    with pytest.raises(DomainError):
        normalizing_automorphism(P1, Point(1.0 + 0j, 0j))


def test_jacobian_shapes_and_det():
    a = TubeAutomorphism(params=P2, lam=81.0)
    J = jacobian(a)
    assert J.shape == (2, 2)
    assert J[0, 1] == J[1, 0] == 0.0
    assert J[0, 0] == 81.0
    assert abs(J[1, 1] - 81.0 ** 0.25) < 1e-13
    assert abs(jacobian_det(a) - 81.0 ** 1.25) < 1e-10
    flip = TubeAutomorphism(params=P2, lam=81.0, flip=True)
    assert abs(jacobian_det(flip) + 81.0 ** 1.25) < 1e-10


def test_normalizing_jacobian_det_closed_form():
    rng = np.random.default_rng(8)
    for params in (P1, P2):
        p = params.p
        for z in random_points(params, rng, 50):
            psi = normalizing_automorphism(params, z)
            r = 1.0 - 4 * p * z.z1.real
            expected = r ** (-(2 * p + 1) / (2 * p))
            assert abs(jacobian_det(psi) - expected) <= 1e-12 * expected


def test_automorphisms_at_the_ends_of_the_double_range_are_right_or_refused():
    z = Point(0.01 + 0.2j, 0.5 - 0.1j)
    # a finite translation or dilation with a finite image answers it
    img = apply(TubeAutomorphism(params=P2, u=(1.7e308, 0.0)), z)
    assert img.z1.imag == 1.7e308 and abs(img.z1.real - 0.01) <= 1e-17 and img.z2 == z.z2
    img = apply(TubeAutomorphism(params=P2, lam=1.7e308), z)
    assert img.z1.imag == 1.7e308 * 0.2 and abs(img.z1.real + 1.7e308 * 0.92 / 8) <= 1e293
    assert in_domain(P2, img) and abs(x_invariant(P2, img) - x_invariant(P2, z)) <= 1e-15
    # lam = 1e-300 would round the image onto the vertex plane Re z1 = 1/8
    with pytest.raises(ValueError, match=r"the image .*\(0\.125.* of .* is not a point of T_2"):
        apply(TubeAutomorphism(params=P2, lam=1e-300), z)
    # a point outside T_p has no image in it
    with pytest.raises(ValueError, match="is not a point of T_2"):
        apply(TubeAutomorphism(params=P2, lam=2.0), Point(0.2 + 0j, 0j))
    # lam^{5/4} overflows at lam = 1e300 and underflows at 1e-320
    for lam in (1e300, 1e-320):
        message = re.escape(f"lam = {lam!r} is no finite nonzero double")
        with pytest.raises(ValueError, match=message):
            jacobian_det(TubeAutomorphism(params=P2, lam=lam))
    assert jacobian_det(TubeAutomorphism(params=P2, lam=1e240)) == np.power(1e240, 1.25)


def test_automorphism_validation():
    for bad in (0.0, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            TubeAutomorphism(params=P1, lam=bad)
        with pytest.raises(ValueError):
            TubeAutomorphism(params=P1, lam=np.array([1.0, bad, 2.0]))


def test_an_automorphism_reads_any_scalar_form_alike():
    # a float, a numpy scalar and a 0-d array give float translations and
    # the same Jacobian determinant and image
    z = Point(-0.2 + 0.3j, 0.4 - 0.1j)
    results = []
    for form in (float, np.float64, np.array):
        a = TubeAutomorphism(params=P2, lam=form(2.0), u=(form(0.1), form(-0.2)))
        assert all(type(u) is float for u in a.u)
        results.append((a.u, jacobian_det(a), apply(a, z)))
        with pytest.raises(ValueError, match="dilation factor must be positive"):
            TubeAutomorphism(params=P2, lam=form(-1.0))
    assert results[0] == results[1] == results[2]


def test_refusals_print_every_scalar_form_of_a_value_alike():
    def message(**kwargs):
        with pytest.raises(ValueError) as info:
            TubeAutomorphism(params=P2, **kwargs)
        return str(info.value)

    floats = (float, np.float64, np.float32, np.array, lambda v: np.array(v, dtype=np.float32))
    for value, forms in ((-1.0, floats), (-1, (int, np.int64, np.array))):
        texts = {message(lam=form(value)) for form in forms}
        assert texts == {f"dilation factor must be positive and finite, got {value!r}"}
    texts = {message(u=(form(0.5), form(math.inf))) for form in floats}
    assert texts == {"translation must be finite, got u = (0.5, inf)"}
    # a stacked value names its first bad entry the same way
    assert message(lam=np.array([2.0, -1.0])) == message(lam=-1.0)


def test_classify_boundary():
    # the weakly pseudoconvex set is the vertical plane through (1/(4p), 0)
    assert classify_boundary(P2, Point(0.125 + 3j, 7j)) \
        is BoundaryClass.WEAKLY_PSEUDOCONVEX
    assert classify_boundary(P2, Point(0j, 1.0 + 0j)) \
        is BoundaryClass.STRICTLY_PSEUDOCONVEX
    assert classify_boundary(P2, Point(0.1 + 0j, (0.2) ** 0.25 + 0j)) \
        is BoundaryClass.STRICTLY_PSEUDOCONVEX
    assert classify_boundary(P2, Point(0j, 0j)) is BoundaryClass.NOT_BOUNDARY
    assert classify_boundary(P2, Point(1 + 0j, 1 + 0j)) is BoundaryClass.NOT_BOUNDARY
    # a non-finite coordinate anywhere puts the point off the boundary, as
    # in_domain puts it outside T_p; a NaN defect compares false with tol
    nan, inf = math.nan, math.inf
    for bad in (Point(nan, 0j), Point(0.25, nan), Point(complex(0.125, nan), 0j),
                Point(0.125 + 0j, complex(0.0, nan)), Point(inf, 0j), Point(-inf, 0j),
                Point(0.125 + 0j, inf), Point(0.125 + 0j, complex(0.0, -inf))):
        assert classify_boundary(P2, bad) is BoundaryClass.NOT_BOUNDARY, bad


def test_region_classification():
    assert region(P1, Point(0j, 0j), 0.5) is RegionClass.INNER
    # ratio = X^2 = 0.25 with alpha = 0.3 -> inner; alpha = 0.2 -> middle
    z = Point(0j, 0.5 + 0j)
    assert region(P1, z, 0.3) is RegionClass.INNER
    assert region(P1, z, 0.2) is RegionClass.MIDDLE
    # ratio 0.95 with alpha = 0.1 -> outer (0.95 >= 1 - 0.1)
    z_out = Point(0j, complex(0.95 ** 0.5))
    assert region(P1, z_out, 0.1) is RegionClass.OUTER
    # inner takes precedence at the exact threshold ratio == alpha
    # (X = 0.5 gives ratio 0.25 exactly in floats)
    z_edge = Point(0j, 0.5 + 0j)
    assert region(P1, z_edge, 0.25) is RegionClass.INNER


def test_region_validation():
    for bad_alpha in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            region(P1, Point(0j, 0j), bad_alpha)
    with pytest.raises(DomainError):
        region(P1, Point(0.3 + 0j, 0j), 0.5)


def test_cone_membership():
    vertex_depth = 0.05
    z_axis = Point(complex(0.25 - vertex_depth), 0j)
    assert in_cone(P1, z_axis, 0.01)  # points on the real axis: ratio 0
    # tangential point: large imaginary offset at small depth
    z_tang = Point(complex(0.25 - vertex_depth, 1.0), 0j)
    assert not in_cone(P1, z_tang, 0.3)
    # ratio = |(Im z1, z2)| / depth = tan(theta) boundary: just inside
    off = vertex_depth * math.tan(0.3) * 0.999
    assert in_cone(P1, Point(complex(0.25 - vertex_depth, off), 0j), 0.3)
    assert not in_cone(P1, Point(complex(0.25 - vertex_depth, off / 0.999 * 1.001), 0j), 0.3)


def test_cone_validation():
    for bad_theta in (0.0, math.pi / 2, 2.0, -0.1):
        with pytest.raises(ValueError):
            in_cone(P1, Point(0j, 0j), bad_theta)
    with pytest.raises(DomainError):
        in_cone(P1, Point(0.3 + 0j, 0j), 0.3)  # beyond the vertex plane


@pytest.mark.parametrize("z", [Point(complex(-math.inf, 0.0), 0j),
                               Point(complex(math.nan, 0.0), 0j),
                               Point(0j, complex(math.inf, 0.0))])
def test_a_non_finite_point_is_not_in_the_cone(z):
    # Re z1 = -inf read as depth inf and ratio 0, inside every cone
    assert in_cone(P2, z, 0.3) is False


def test_in_domain_respects_automorphisms():
    rng = np.random.default_rng(9)
    for z in random_points(P2, rng, 100):
        for a in (TubeAutomorphism(params=P2, u=(0.3, 0.9)),
                  TubeAutomorphism(params=P2, lam=0.2),
                  TubeAutomorphism(params=P2, lam=7.0),
                  TubeAutomorphism(params=P2, flip=True)):
            assert in_domain(P2, apply(a, z))


# ---------------------------------------------------------------------------
# stacked points and non-finite input
# ---------------------------------------------------------------------------

def _close(got, ref, rel=4 * np.finfo(float).eps):
    return abs(got - ref) <= rel * max(abs(ref), 1.0)


@pytest.mark.parametrize("params", [P1, P2, TubeParams(p=3), TubeParams(p=5)])
def test_stacked_geometry_matches_the_scalar_geometry(params):
    rng = np.random.default_rng(20 + params.p)
    points = random_points(params, rng, 200) + [Point(0.3 + 1j, 0.1 + 0j), Point(0j, 1.5 + 0j)]
    z = Point.stack(points)
    assert z.z1.shape == z.z2.shape == (202,)
    inside = in_domain(params, z)
    assert inside.dtype == bool
    assert inside.tolist() == [in_domain(params, q) for q in points]
    assert not inside[-1] and not inside[-2]
    points, z = points[:200], Point.stack(points[:200])
    xs = x_invariant(params, z)
    n = len(points)
    u = rng.uniform(-3.0, 3.0, (n, 2))
    lam = rng.uniform(0.2, 5.0, n)
    stacked = [TubeAutomorphism(params=params, u=(u[:, 0], u[:, 1])),
               TubeAutomorphism(params=params, lam=lam, flip=True),
               TubeAutomorphism(params=params, lam=lam, u=(u[:, 0], u[:, 1])),
               TubeAutomorphism(params=params, lam=2.6),
               normalizing_automorphism(params, z)]
    for i, q in enumerate(points):
        assert _close(xs[i], x_invariant(params, q))
        single = [TubeAutomorphism(params=params, u=(u[i, 0], u[i, 1])),
                  TubeAutomorphism(params=params, lam=lam[i], flip=True),
                  TubeAutomorphism(params=params, lam=lam[i], u=(u[i, 0], u[i, 1])),
                  TubeAutomorphism(params=params, lam=2.6),
                  normalizing_automorphism(params, q)]
        for a_stacked, a in zip(stacked, single):
            # apply and the Jacobian take numpy's pow for one lam and for
            # arrays alike, so a row is the single call bit for bit
            img, ref = apply(a_stacked, z), apply(a, q)
            assert (img.z1[i], img.z2[i]) == (ref.z1, ref.z2)
            # an automorphism with a scalar lam holds one Jacobian for all points
            det = np.broadcast_to(jacobian_det(a_stacked), (n,))[i]
            jac = np.broadcast_to(jacobian(a_stacked), (n, 2, 2))[i]
            assert det == jacobian_det(a)
            assert np.array_equal(jac, jacobian(a))
    psi = stacked[-1]
    assert psi.lam.shape == (n,) and psi.u[0].shape == psi.u[1].shape == (n,)


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_x_invariant_has_one_pow_for_single_and_stacked_points(p):
    # the root is numpy's pow for both, so each stacked X is the single
    # point's bit for bit; libm's ** misses numpy's vector loop on ~5% of points
    params = TubeParams(p=p)
    points = random_points(params, np.random.default_rng(60 + p), 400)
    stacked = x_invariant(params, Point.stack(points))
    single = [x_invariant(params, q) for q in points]
    assert all(type(x) is float for x in single)
    assert stacked.tolist() == single


def test_stacked_refusals_name_the_first_bad_point():
    good, bad = Point(0j, 0.5 + 0j), Point(0.3 + 0j, 0.1 + 2j)
    z = Point.stack([good, good, bad, Point(0.4 + 0j, 0j)])
    with pytest.raises(DomainError, match=re.escape(str(bad))):
        normalizing_automorphism(P1, z)
    with pytest.raises(DomainError, match=re.escape(str(bad))):
        x_invariant(P1, z)


@pytest.mark.parametrize("u", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_non_finite_translation_is_refused(u):
    with pytest.raises(ValueError, match="translation must be finite"):
        TubeAutomorphism(params=P1, u=u)
    column = np.array([0.5, u[0], 1.0]), np.array([0.0, u[1], -1.0])
    with pytest.raises(ValueError, match="translation must be finite"):
        TubeAutomorphism(params=P1, u=column)


def test_nan_real_part_of_z1_is_refused_by_x_invariant():
    nan_point = Point(complex(math.nan, 0.0), 0.2 + 0j)
    with pytest.raises(DomainError):
        x_invariant(P1, nan_point)
    with pytest.raises(DomainError, match=re.escape(str(nan_point))):
        x_invariant(P1, Point.stack([Point(0j, 0.1 + 0j), nan_point]))


@pytest.mark.parametrize("z", [Point(complex(-math.inf, 0.0), 0j),
                               Point(complex(0.0, math.nan), 0j),
                               Point(0j, complex(0.1, -math.inf)),
                               Point(0j, complex(math.nan, 0.0))])
def test_non_finite_points_are_not_in_the_domain(z):
    # Re z1 = -inf satisfies the defining inequality, yet is no point of C^2
    assert in_domain(P1, z) is False
    with pytest.raises(DomainError, match=re.escape(str(z)) + ".*must be finite"):
        require_domain(P1, z)
    stacked = Point.stack([Point(0j, 0.5 + 0j), z, Point(-1e300 + 0j, 0j)])
    assert in_domain(P1, stacked).tolist() == [True, False, True]
    with pytest.raises(DomainError, match=re.escape(str(z)) + ".*must be finite"):
        require_domain(P1, stacked)


def test_a_point_whose_power_overflows_is_outside():
    # Re(z2)^4 = 1e400 raises OverflowError as a Python float power; the
    # point is outside T_2, as numpy's inf reads it in a stack
    far = Point(0j, 1e100 + 0j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert in_domain(P2, far) is False
        assert classify_boundary(P2, far) is BoundaryClass.NOT_BOUNDARY
        with pytest.raises(DomainError, match="is not in T_2"):
            region(P2, far, 0.5)
    with np.errstate(over="ignore"):
        assert in_domain(P2, Point.stack([far, Point(0j, 0j)])).tolist() == [False, True]


def test_x_is_refused_where_it_is_no_finite_double():
    # 1 - 8 Re z1 overflows at Re z1 = -1.7e308: the quotient would read 0,
    # which is X only for Re z2 = 0; Re z2 = 1.7e308 over (1.1e-16)^(1/4)
    # overflows; an infinite or NaN part makes no point
    deep = -1.7e308
    assert x_invariant(P2, Point(complex(deep), 0j)) == 0.0
    for z in (Point(complex(deep), 0.5 + 0j), Point(complex(0.125 - 1e-17), 1.7e308 + 0j),
              Point(complex(0.0, math.inf), 0.5 + 0j), Point(0j, complex(math.nan))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape(f"X undefined at {z}")):
                x_invariant(P2, z)
        with np.errstate(over="ignore"):
            with pytest.raises(DomainError, match=re.escape(f"X undefined at {z}")):
                x_invariant(P2, Point.stack([Point(0j, 0.5 + 0j), z]))


def test_single_point_doors_refuse_stacked_points():
    for zs in (Point.stack([Point(0j, 0.5 + 0j)] * 2), Point(np.empty(0, complex), 0j)):
        for door in (lambda z: region(P2, z, 0.3), lambda z: classify_boundary(P2, z),
                     lambda z: in_cone(P2, z, 0.5)):
            with pytest.raises(ValueError, match="takes a single point, got stacked points"):
                door(zs)


def test_in_cone_takes_a_point_whose_modulus_overflows():
    # |z2| = 1.7e308 sqrt 2 passes the double range; its ratio to the
    # depth 1.7e308 + 1/8, about sqrt 2 = tan(0.9553), does not
    z = Point(complex(-1.7e308, 0.0), complex(1.7e308, 1.7e308))
    assert in_cone(P2, z, 0.96) is True and in_cone(P2, z, 0.95) is False
