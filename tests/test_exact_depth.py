"""The depth r = 1 - 4p Re(z1) near the vertex (1/(4p), 0), for every p.

Each float point has an exact depth, 1 - 4p Re(z1) in rationals; the
references below are Fraction computations on the same float points, so
they need no high-precision library.  Where 4p is no power of two, the
product 4p Re(z1) rounds in floats, and a depth formed from it loses all
its digits by r ~ 1e-16; the doors must not.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from tubeke import (
    DomainError,
    Point,
    RegionClass,
    TubeParams,
    bis_extremes,
    in_domain,
    region,
    solve_potential,
    x_invariant,
)
from tubeke.tube_geometry import _depth

DEPTH_PS = (3, 5, 6, 7)
KS = range(1, 17)


def exact_depth(p, re1) -> Fraction:
    return 1 - 4 * p * Fraction(re1)


def vertex_points(p):
    """Seeded points of depth about 10^-k, k = 1..16, with |X| <= 0.9."""
    rng = np.random.default_rng(100 + p)
    points = []
    for k in KS:
        r = 10.0 ** -k
        x, y1, y2 = rng.uniform(-0.9, 0.9), *rng.uniform(-2.0, 2.0, 2)
        points.append(Point(complex((1.0 - r) / (4 * p), y1),
                            complex(x * r ** (1.0 / (2 * p)), y2)))
    return points


def exact_x(p, z) -> float:
    """X of the float point z to a few ulps: Re(z2) over the root of its exact depth."""
    return z.z2.real / float(exact_depth(p, z.z1.real)) ** (1.0 / (2 * p))


@pytest.mark.parametrize("p", [1, 2, 3, 5, 6, 7, 12, 49, 1000])
def test_the_depth_takes_one_rounding_near_the_vertex(p):
    rng = np.random.default_rng(p)
    for k in KS:
        re1 = (1.0 - 10.0 ** -k * rng.uniform(1.0, 10.0, 50)) / (4 * p)
        exact = [exact_depth(p, a) for a in re1]
        stacked = _depth(p, re1)
        for a, r, ref in zip(re1, stacked, exact):
            assert _depth(p, float(a)) == r          # floats and arrays alike
            # one rounding where 1 - fl(4p Re z1) is exact (r <= 1/2), else two
            rounding = Fraction(2) ** (-53 if ref <= Fraction(1, 2) else -52)
            assert abs(Fraction(r) - ref) <= ref * rounding, (p, k, a)


def test_the_depth_at_re_z1_zero_is_one_and_has_the_old_bits_where_4p_is_a_power_of_two():
    assert all(_depth(p, 0.0) == 1.0 for p in range(1, 20001))
    rng = np.random.default_rng(0)
    re1 = np.concatenate([rng.uniform(-3.0, 0.3, 200), 1.0 / (4 * rng.integers(1, 9, 20)),
                          [5e-324, -5e-324, 1e300, -1e300, 1.7e308, -1.7e308]])
    with np.errstate(over="ignore"):
        for p in (1, 2, 4, 8, 64):
            assert _depth(p, re1).tobytes() == (1.0 - 4 * p * re1).tobytes()
        # past the split's range the depth is 1 - 4p Re(z1), inf where that overflows
        for p in (3, 5):
            assert _depth(p, -1.7e308) == _depth(p, np.array([-1.7e308]))[0] == math.inf
            assert _depth(p, 1e300) == 1.0 - 4 * p * 1e300


@pytest.mark.parametrize("p", DEPTH_PS)
def test_x_near_the_vertex_is_within_4_ulps_of_the_exact_x(p):
    params = TubeParams(p=p)
    points = vertex_points(p)
    stacked = x_invariant(params, Point.stack(points))
    for z, x_row in zip(points, stacked):
        x = x_invariant(params, z)
        assert x == x_row
        r, t = exact_depth(p, z.z1.real), Fraction(z.z2.real)
        assert r > 0 and math.copysign(1.0, x) == math.copysign(1.0, z.z2.real)
        # |X| = |Re z2| / r^{1/(2p)} is the one root of X^{2p} r = Re(z2)^{2p}
        lo, hi = (Fraction(abs(x) + s * 4 * math.ulp(x)) for s in (-1, 1))
        assert lo ** (2 * p) * r <= t ** (2 * p) <= hi ** (2 * p) * r, (p, z)


@pytest.mark.parametrize("p", range(1, 13))
def test_in_domain_at_the_vertex_agrees_with_the_exact_decision(p):
    params = TubeParams(p=p)
    vertex = 1.0 / (4 * p)
    below = above = vertex
    re1s = [vertex]
    for _ in range(3):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
        re1s += [below, above]
    points = [Point(complex(a, 0.7), complex(0.0, -1.3)) for a in re1s]
    decisions = [in_domain(params, z) for z in points]
    assert decisions == [exact_depth(p, a) > 0 for a in re1s], p
    assert in_domain(params, Point.stack(points)).tolist() == decisions


@pytest.fixture(scope="module")
def depth_sols():
    return {p: solve_potential(TubeParams(p=p)) for p in DEPTH_PS}


@pytest.mark.parametrize("p", DEPTH_PS)
def test_bis_extremes_near_the_vertex_equal_the_axis_value_at_the_exact_x(p, depth_sols):
    sol = depth_sols[p]
    for z in vertex_points(p):
        got = bis_extremes(sol, z)
        axis = bis_extremes(sol, Point(0j, complex(exact_x(p, z))))
        assert abs(got.min - axis.min) <= 1e-12 and abs(got.max - axis.max) <= 1e-12, (p, z)


def test_in_domain_decides_where_both_sides_pass_the_double_range():
    # at p=2 and Re z1 = -1.7e308, r = 1 + 8 (1.7e308) = 1.36e309 passes the
    # double range, as do Re(z2)^4 = 5.06e308 (inside) and 6.25e310 (outside)
    params = TubeParams(p=2)
    inside, outside = (Point(complex(-1.7e308, 0.5), complex(t, -2.0)) for t in (1.5e77, 5e77))
    for z, decision in ((inside, True), (outside, False)):
        assert (Fraction(z.z2.real) ** 4 < exact_depth(2, z.z1.real)) is decision
        assert in_domain(params, z) is decision
    with np.errstate(over="ignore"):
        stacked = Point.stack([inside, outside, Point(0j, 0.5 + 0j)])
        assert in_domain(params, stacked).tolist() == [True, False, True]
    # the ratio Re(z2)^4 / r of the point inside is 0.372
    assert region(params, inside, 0.4) is RegionClass.INNER
    assert region(params, inside, 0.3) is RegionClass.MIDDLE
    with pytest.raises(DomainError, match="is not in T_2"):
        region(params, outside, 0.3)
