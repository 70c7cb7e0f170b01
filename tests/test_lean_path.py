"""The lean tube path: each curvature door builds only the jet entries it reads.

The axis jets of the tube doors and the extremes come from per-p
constants, with the bits of metric_jet on the axis; the tube formula and
the extremes read an order-2 jet and build no tensor; einstein_residual
reads the profile once; and formula="direct", the one door that reads the
tensor, gives its stacked rows the single calls' bits.
"""

import math

import numpy as np
import pytest

from tubeke import (
    Point,
    TangentPair,
    TubeParams,
    bis_extremes,
    bisectional,
    einstein_residual,
    metric_jet,
    sectional_max,
    x_derivatives,
)
from tubeke.metric_tensor import _axis_jet, _axis_tables, _chain, _tables
from tubeke.potential_solver import PotentialSolution

ORIGIN = Point(0j, 0j)


def bits(values) -> list:
    """The bytes of each value: equal lists are equal bit for bit, signed zeros too."""
    return [np.asarray(v, dtype=float).tobytes() for v in values]


def random_points(p, rng, n):
    """Off-axis points with |X| <= 0.99, in the shape of point_queries' sampler."""
    x, r = rng.uniform(-0.99, 0.99, n), rng.uniform(0.2, 3.0, n)
    y1, y2 = rng.uniform(-2.0, 2.0, (2, n))
    return [Point(complex((1.0 - r[i]) / (4 * p), y1[i]),
                  complex(x[i] * r[i] ** (1.0 / (2 * p)), y2[i])) for i in range(n)]


def random_vectors(rng, n):
    return rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))


@pytest.mark.parametrize("p", [1, 2, 3, 5, 20000])
def test_tables_keep_the_bits_of_their_products_written_out(p):
    # the per-p factors are kept; _tables multiplied them out at each call
    params = TubeParams(p=p)
    K = params.K_float
    rs = np.array([0.5, 3.7, 1e-12, 2.0 ** 40, 1.0])
    xs = np.array([0.3, -0.91, 0.2, 0.0, -0.7])
    for r, x in [*zip(rs.tolist(), xs.tolist()), (rs, xs)]:
        inv = 1.0 / r
        root, log = np.power(r, -1.0 / (2 * p)), np.log(inv)
        c, q = [1.0], [1.0]
        for a in range(1, 5):
            c.append(c[-1] * (1.0 + 2 * p * (a - 1)))
            q.append(q[-1] * inv)
        expected = ([c[a] * x * q[a] for a in range(5)],
                    [0.5 * c[a] * root * q[a] for a in range(4)],
                    [(K / p) * log, *(2.0 * K * math.factorial(a - 1) * (2 * p) ** (a - 1) * q[a]
                                      for a in range(1, 5))])
        for table, reference in zip(_tables(params, r, x, 4), expected):
            assert bits(table) == bits(reference)
        # on the axis (r = 1) the tables are the factors times x or 1
        shape = np.shape(x)
        for axis, table in zip(_axis_tables(p, x, 4), _tables(params, np.ones(shape), x, 4)):
            assert bits(np.broadcast_to(v, shape) for v in axis) == bits(table)


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_the_axis_jet_equals_metric_jet_on_the_axis(p, five_sols):
    sol = five_sols[p]
    xs = np.concatenate([[0.0, -0.0, sol.x_max, -sol.x_max], sol.xs, -sol.xs[1:]])
    stack = Point(np.zeros(len(xs), complex), xs.astype(complex))
    for point in [stack] + [Point(0j, complex(x)) for x in xs]:
        full = metric_jet(sol, point)
        for order in (2, 4):
            jet = _axis_jet(sol, point, order)
            entries = [jet.x_value, *jet.g, jet.det, *jet.profile]
            expected = [full.x_value, *full.g, full.det, *full.profile[:len(jet.profile)]]
            if order == 4:
                entries += [*jet.d3, *jet.d4]
                expected += [*full.d3, *full.d4]
            else:
                assert jet.d3 is None and jet.d4 is None and len(jet.profile) == 2
            assert [type(v) for v in entries] == [type(v) for v in expected]
            assert bits(entries) == bits(expected), (point, order)


@pytest.fixture
def profile_orders(monkeypatch):
    """The max_order of every eval_f_derivs call."""
    orders = []
    read = PotentialSolution.eval_f_derivs

    def counted(self, x, max_order=3):
        orders.append(max_order)
        return read(self, x, max_order)

    monkeypatch.setattr(PotentialSolution, "eval_f_derivs", counted)
    return orders


def test_tube_doors_and_extremes_build_no_tensor_and_read_order_one(sol_p2, tensor_calls,
                                                                     profile_orders):
    rng = np.random.default_rng(4)
    points = random_points(2, rng, 3) + [ORIGIN]
    v, w = random_vectors(rng, 2)
    for z in points + [Point.stack(points)]:
        for normalize in (True, False):
            bisectional(sol_p2, z, TangentPair(v=v, w=w), normalize=normalize)
        ext = bis_extremes(sol_p2, z)
        ext.argmin, ext.argmax
        sectional_max(sol_p2, z)
    assert tensor_calls == [] and set(profile_orders) == {1}
    # direct, the one door that reads the tensor, reads the order-4 jet
    for normalize in (True, False):
        bisectional(sol_p2, points[0], TangentPair(v=v, w=w), normalize=normalize,
                    formula="direct")
    assert len(tensor_calls) == 2 and profile_orders[-2:] == [3, 3]


def test_einstein_residual_reads_the_profile_once_with_the_same_bits(sols, monkeypatch):
    reads = []
    at = PotentialSolution._at

    def counted(self, x):
        reads.append(x)
        return at(self, x)

    monkeypatch.setattr(PotentialSolution, "_at", counted)
    for p, sol in sols.items():
        points = random_points(p, np.random.default_rng(p), 20) + [ORIGIN]
        for z in points + [Point.stack(points)]:
            reads.clear()
            value = einstein_residual(sol, z)
            assert len(reads) == 1
            # the residual as eval_f_derivs for g and eval_F for the potential give it
            tab = x_derivatives(sol.params, z, 2)
            (g11, g12, g22), _, _ = _chain(tab, *sol.eval_f_derivs(tab.x_value, 1))
            rhs = np.exp(3.0 * (sol.eval_F(tab.x_value) + tab.L()))
            assert type(value) is (np.ndarray if np.ndim(z.z1) else float)
            assert bits([value]) == bits([abs(g11 * g22 - g12 * g12 - rhs) / rhs])


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_direct_stacked_rows_equal_single_calls(p, five_sols):
    sol, rng, n = five_sols[p], np.random.default_rng(10 + p), 40
    points, vs, ws = random_points(p, rng, n), random_vectors(rng, n), random_vectors(rng, n)
    stack = Point.stack(points)
    for normalize in (True, False):
        def direct(z, v, w):
            return bisectional(sol, z, TangentPair(v=v, w=w), normalize=normalize,
                               formula="direct")

        single = [direct(z, v, w) for z, v, w in zip(points, vs, ws)]
        assert all(type(value) is float for value in single)
        assert bits(direct(stack, vs, ws)) == bits(single)
        # n points with one pair, and one point with n pairs
        assert bits(direct(stack, vs[0], ws[0])) == bits(direct(z, vs[0], ws[0])
                                                          for z in points)
        assert bits(direct(points[0], vs, ws)) == bits(direct(points[0], v, w)
                                                        for v, w in zip(vs, ws))
