"""Metric jet tests: derivative tables, origin values, the Einstein closure.

Two independent oracles drive this file.  The derivative tables of the
invariant X and the log term L are checked against centered finite
differences of the scalar functions themselves (a real-partial of order
(a, b) equals 2^{a+b} times the common Wirtinger value).  The assembled
metric is checked against the Monge-Ampère equation det g = e^{3g},
which none of the jet code enforces directly.
"""

import itertools
import math
import re
import warnings

import numpy as np
import pytest

from tubeke import (
    DomainError,
    Point,
    TangentPair,
    TubeParams,
    bis_extremes,
    bisectional,
    einstein_residual,
    in_domain,
    metric_jet,
    solve_potential,
    tensor_from_jet,
    x_derivatives,
)
from tubeke.metric_tensor import _R_MAX, MetricJet, _chain, _tables

P2 = TubeParams(p=2)


def sample_points(params, rng, n, x_cap=0.95):
    p = params.p
    pts = []
    for _ in range(n):
        x = rng.uniform(-x_cap, x_cap)
        r = rng.uniform(0.3, 2.5)
        y1, y2 = rng.uniform(-2.0, 2.0, 2)
        pts.append(Point(complex((1.0 - r) / (4 * p), y1),
                         complex(x * r ** (1.0 / (2 * p)), y2)))
    return pts


def scalar_X(params, re1, re2):
    p = params.p
    return re2 / (1.0 - 4 * p * re1) ** (1.0 / (2 * p))


def scalar_L(params, re1):
    p = params.p
    return params.K_float / p * math.log(1.0 / (1.0 - 4 * p * re1))


def test_x_derivative_tables_match_finite_differences():
    h = 1e-5
    for p in (1, 2, 3):
        params = TubeParams(p=p)
        z = Point(complex(-0.05, 1.3), complex(0.4, -0.7))
        tab = x_derivatives(params, z)
        u, t = z.z1.real, z.z2.real

        def X(du=0.0, dt=0.0):
            return scalar_X(params, u + du, t + dt)

        fd = {
            (1, 0): (X(h) - X(-h)) / (2 * h),
            (0, 1): (X(0, h) - X(0, -h)) / (2 * h),
            (2, 0): (X(h) - 2 * X() + X(-h)) / h**2,
            (0, 2): (X(0, h) - 2 * X() + X(0, -h)) / h**2,
            (1, 1): (X(h, h) - X(h, -h) - X(-h, h) + X(-h, -h)) / (4 * h**2),
        }
        for (a, b), val in fd.items():
            # first-order differences are accurate to ~1e-10, second-order
            # ones to ~1e-7 at h = 1e-5
            tol = 1e-8 if a + b == 1 else 1e-6
            assert abs(tab.dX[(a, b)] - val / 2 ** (a + b)) < tol * (1 + abs(val))

        def L(du=0.0):
            return scalar_L(params, u + du)

        fd1 = (L(h) - L(-h)) / (2 * h)
        fd2 = (L(h) - 2 * L() + L(-h)) / h**2
        assert abs(tab.dL[(1, 0)] - fd1 / 2) < 1e-7
        assert abs(tab.dL[(2, 0)] - fd2 / 4) < 1e-6
        assert tab.dL[(0, 1)] == 0.0 and tab.dL[(1, 1)] == 0.0


def test_x_derivative_tables_closed_values():
    # p=2, r = 1/2, Re z2 = 1/4: s = 1/4, X = 2^{1/4}/4, c = 1,1,5,45,585
    params = TubeParams(p=2)
    z = Point(complex(1.0 / 16.0, -3.0), complex(0.25, 2.0))
    tab = x_derivatives(params, z)
    r, s = 0.5, 0.25
    X = 0.25 / r**s
    assert tab.r == r
    assert abs(tab.x_value - X) < 1e-16
    c = {0: 1.0, 1: 1.0, 2: 5.0, 3: 45.0, 4: 585.0}
    for a in range(5):
        assert abs(tab.dX[(a, 0)] - c[a] * X / r**a) < 1e-13 * c[a] / r**a
        if a <= 3:
            assert abs(tab.dX[(a, 1)] - c[a] / (2 * r ** (s + a))) < 1e-13 * c[a]
    assert tab.dX[(0, 2)] == 0.0 and tab.dX[(1, 2)] == 0.0 and tab.dX[(2, 2)] == 0.0
    K = 5.0 / 3.0
    assert abs(tab.dL[(0, 0)] - (K / 2) * math.log(2.0)) < 1e-15
    for a in (1, 2, 3, 4):
        expected = 2 * K * math.factorial(a - 1) * 4 ** (a - 1) / r**a
        assert abs(tab.dL[(a, 0)] - expected) < 1e-13 * expected


def test_index_word_accessors():
    tab = x_derivatives(P2, Point(0j, 0.3 + 0j))
    assert tab.X(1, 2, 2) == tab.dX[(1, 2)] == 0.0
    assert tab.X(2, 1, 1) == tab.dX[(2, 1)]
    assert tab.L(1, 1) == tab.dL[(2, 0)]
    assert tab.L(2) == 0.0


def test_x_derivatives_validation():
    with pytest.raises(ValueError):
        x_derivatives(P2, Point(0j, 0j), 5)
    with pytest.raises(DomainError):
        x_derivatives(P2, Point(0.5 + 0j, 0j))
    # r = 1 there, but Re(z2)^4 = 625 (or inf) puts the point outside T_2
    for t in (5.0, math.inf):
        with pytest.raises(DomainError, match="not in T_2"):
            x_derivatives(P2, Point(0j, complex(t, 0.0)))


def test_origin_metric_is_diagonal(sols):
    for p, sol in sols.items():
        jet = metric_jet(sol, Point(0j, 0j))
        K = sol.params.K_float
        f1 = sol.eval_f_derivs(0.0, 1)[1]
        assert abs(jet.metric[0, 0] - 4 * p * K) < 1e-10
        assert abs(jet.metric[1, 1] - f1 / 4.0) < 1e-12
        assert jet.metric[0, 1] == jet.metric[1, 0]
        assert abs(jet.metric[0, 1]) < 1e-14
        assert abs(jet.det - p * K * f1) < 1e-9


def test_metric_is_symmetric_and_positive(sol_p2):
    rng = np.random.default_rng(10)
    for z in sample_points(P2, rng, 50):
        jet = metric_jet(sol_p2, z)
        assert jet.metric[0, 1] == jet.metric[1, 0]
        assert jet.metric[0, 0] > 0.0
        assert jet.det > 0.0
        assert np.max(np.abs(jet.metric @ jet.inverse - np.eye(2))) < 1e-11


def test_jet_translation_invariance(sol_p2):
    z = Point(complex(0.01, 0.7), complex(0.4, -1.2))
    z_shift = Point(z.z1 + 4.5j, z.z2 - 2.25j)
    j1, j2 = metric_jet(sol_p2, z), metric_jet(sol_p2, z_shift)
    assert np.array_equal(j1.metric, j2.metric)
    assert j1.det == j2.det
    assert j1.d3 == j2.d3
    assert j1.d4 == j2.d4
    assert j1.profile == j2.profile


def test_derivative_dicts_are_fully_symmetric(sol_p2):
    # the accessor reads every index word; with real tables the value
    # depends only on how many indices equal 1
    jet = metric_jet(sol_p2, Point(complex(-0.1, 0.2), complex(0.5, 0.1)))
    d3 = {key: jet.deriv(*key) for key in itertools.product((1, 2), repeat=3)}
    d4 = {key: jet.deriv(*key) for key in itertools.product((1, 2), repeat=4)}
    assert set(d3) == {(i, j, k) for i in (1, 2) for j in (1, 2) for k in (1, 2)}
    assert set(d4) == {(i, j, k, l) for i in (1, 2) for j in (1, 2)
                       for k in (1, 2) for l in (1, 2)}
    for key, val in d3.items():
        canon = tuple(sorted(key))
        assert val == d3[canon]
    for key, val in d4.items():
        canon = tuple(sorted(key))
        assert val == d4[canon]
    for word in ((), (1, 2), (1, 2, 1, 2, 1), (0, 1, 2), (1, 2, 3, 1)):
        with pytest.raises(ValueError, match="3 or 4 indices"):
            jet.deriv(*word)


def test_einstein_residual_random(sols):
    rng = np.random.default_rng(11)
    for p, sol in sols.items():
        params = sol.params
        worst = max(einstein_residual(sol, z)
                    for z in sample_points(params, rng, 50))
        assert worst < 1e-10


def test_einstein_residual_origin(sols):
    for sol in sols.values():
        assert einstein_residual(sol, Point(0j, 0j)) < 1e-12


def test_det_equals_axis_determinant_over_depth_power(sols):
    rng = np.random.default_rng(12)
    for p, sol in sols.items():
        for z in sample_points(sol.params, rng, 25):
            jet = metric_jet(sol, z)
            r = 1.0 - 4 * p * z.z1.real
            expected = sol.eval_Z(jet.x_value, 0)[0] / r ** (3.0 * sol.params.K_float / p)
            assert abs(jet.det - expected) < 1e-11 * expected


def test_metric_transformation_law(sol_p2):
    # pulling g back through the normalizing automorphism reproduces g
    from tubeke import apply, jacobian, normalizing_automorphism
    rng = np.random.default_rng(13)
    for z in sample_points(P2, rng, 20):
        psi = normalizing_automorphism(P2, z)
        jac = jacobian(psi)
        g_here = metric_jet(sol_p2, z).metric
        g_axis = metric_jet(sol_p2, apply(psi, z)).metric
        pulled = (jac.T @ g_axis @ np.conjugate(jac)).real
        assert np.max(np.abs(pulled - g_here)) < 1e-9 * np.max(np.abs(g_here))


def test_metric_jet_outside_domain(sol_p1):
    with pytest.raises(DomainError):
        metric_jet(sol_p1, Point(0.25 + 0j, 0j))
    with pytest.raises(DomainError):
        einstein_residual(sol_p1, Point(0.3 + 0j, 0j))


def test_d3_d4_match_finite_differences_of_the_metric(sol_p2):
    # move the point along real coordinate directions; for the real,
    # fully symmetric tables: d(Re z_k) g_ij = 2 d3[(i,j,k)] and
    # d(Re z_k) d(Re z_l) g_ij = 4 d4[(i,j,k,l)]
    z = Point(complex(0.02, -0.4), complex(0.45, 0.8))
    jet = metric_jet(sol_p2, z)
    h = 1e-4

    def g_at(d1, d2):
        return metric_jet(sol_p2, Point(z.z1 + d1, z.z2 + d2)).metric

    for k, (d1, d2) in ((1, (h, 0.0)), (2, (0.0, h))):
        gp = g_at(d1, d2)
        gm = g_at(-d1, -d2)
        fd3 = (gp - gm) / (4.0 * h)
        for i in (1, 2):
            for j in (1, 2):
                val = jet.deriv(i, j, k)
                assert abs(fd3[i - 1, j - 1] - val) < 1e-5 * (1.0 + abs(val))
    for (k, l), (da, db) in (((1, 1), ((h, 0.0), (h, 0.0))),
                             ((1, 2), ((h, 0.0), (0.0, h))),
                             ((2, 2), ((0.0, h), (0.0, h)))):
        gpp = g_at(da[0] + db[0], da[1] + db[1])
        gpm = g_at(da[0] - db[0], da[1] - db[1])
        gmp = g_at(-da[0] + db[0], -da[1] + db[1])
        gmm = g_at(-da[0] - db[0], -da[1] - db[1])
        fd4 = (gpp - gpm - gmp + gmm) / (16.0 * h * h)
        for i in (1, 2):
            for j in (1, 2):
                val = jet.deriv(i, j, k, l)
                assert abs(fd4[i - 1, j - 1] - val) < 1e-4 * (1.0 + abs(val))


# ---------------------------------------------------------------------------
# stacked jets, and the scalar chain rule as it read before _chain
# ---------------------------------------------------------------------------

def reference_chain(tab, f, f1, f2=None, f3=None):
    """metric_tensor._chain as it read before its count-class formulas.

    The index-word chain rule, verbatim: the straight-line formulas must
    reproduce every value bit for bit.
    """
    dX, dL = tab.X, tab.L

    def g2(i, j):
        return f1 * dX(i) * dX(j) + f * dX(i, j) + dL(i, j)

    def g3(i, j, k):
        return (
            f2 * dX(i) * dX(j) * dX(k)
            + f1 * (dX(i, j) * dX(k) + dX(i, k) * dX(j) + dX(k, j) * dX(i))
            + f * dX(i, j, k)
            + dL(i, j, k)
        )

    def g4(i, j, k, l):
        return (
            f3 * dX(i) * dX(j) * dX(k) * dX(l)
            + f2 * (dX(i, j) * dX(k) * dX(l) + dX(i, k) * dX(j) * dX(l)
                    + dX(i, l) * dX(j) * dX(k) + dX(k, j) * dX(i) * dX(l)
                    + dX(k, l) * dX(i) * dX(j) + dX(j, l) * dX(i) * dX(k))
            + f1 * (dX(i, j, k) * dX(l) + dX(i, j, l) * dX(k)
                    + dX(i, k, l) * dX(j) + dX(j, k, l) * dX(i)
                    + dX(i, j) * dX(k, l) + dX(i, k) * dX(j, l) + dX(i, l) * dX(k, j))
            + f * dX(i, j, k, l)
            + dL(i, j, k, l)
        )

    metric = (g2(1, 1), g2(1, 2), g2(2, 2))
    if f2 is None:
        return metric, None, None
    # every value depends only on how many indices are of z1 type, so
    # compute one representative per count class; the jets mirror it, which
    # keeps their tables bit-exactly symmetric under index permutation
    val3 = [g3(*([1] * m + [2] * (3 - m))) for m in range(4)]
    val4 = [g4(*([1] * m + [2] * (4 - m))) for m in range(5)]
    return metric, val3, val4


def reference_metric_jet(sol, z):
    """metric_jet with the index-word chain rule, as written before _chain."""
    params = sol.params
    tab = x_derivatives(params, z, 4)
    f, f1, f2, f3 = sol.eval_f_derivs(tab.x_value, 3)
    (g11, g12, g22), val3, val4 = reference_chain(tab, f, f1, f2, f3)
    g = np.array([[g11, g12], [g12, g22]])
    det = g11 * g22 - g12 * g12
    inverse = np.array([[g22, -g12], [-g12, g11]]) / det
    d3 = {(i, j, k): val3[(i, j, k).count(1)]
          for i in (1, 2) for j in (1, 2) for k in (1, 2)}
    d4 = {(i, j, k, l): val4[(i, j, k, l).count(1)]
          for i in (1, 2) for j in (1, 2) for k in (1, 2) for l in (1, 2)}
    return tab.x_value, g, inverse, float(det), d3, d4


def reference_einstein_residual(sol, z):
    """einstein_residual's body as written before _chain."""
    params = sol.params
    tab = x_derivatives(params, z, 2)
    f, f1 = sol.eval_f_derivs(tab.x_value, 1)
    dX, dL = tab.X, tab.L
    g11 = f1 * dX(1) * dX(1) + f * dX(1, 1) + dL(1, 1)
    g12 = f1 * dX(1) * dX(2) + f * dX(1, 2) + dL(1, 2)
    g22 = f1 * dX(2) * dX(2) + f * dX(2, 2) + dL(2, 2)
    det = g11 * g22 - g12 * g12
    potential = sol.eval_F(tab.x_value) + dL()
    rhs = math.exp(3.0 * potential)
    return abs(det - rhs) / rhs


def _jet_fields(jet):
    """The fields reference_metric_jet returns, with d3 and d4 as index-word dicts."""
    d3 = {key: jet.deriv(*key) for key in itertools.product((1, 2), repeat=3)}
    d4 = {key: jet.deriv(*key) for key in itertools.product((1, 2), repeat=4)}
    return jet.x_value, jet.metric, jet.inverse, jet.det, d3, d4


@pytest.mark.parametrize("p", [1, 2, 3])
def test_scalar_jet_is_bit_equal_to_its_own_closures(p, sols):
    sol = sols[p]
    for z in sample_points(sol.params, np.random.default_rng(20 + p), 100, x_cap=0.99):
        x, g, inverse, det, d3, d4 = _jet_fields(metric_jet(sol, z))
        rx, rg, rinv, rdet, rd3, rd4 = reference_metric_jet(sol, z)
        assert x == rx and det == rdet and d3 == rd3 and d4 == rd4
        assert list(d3) == list(rd3) and list(d4) == list(rd4)
        assert np.array_equal(g, rg) and np.array_equal(inverse, rinv)
        assert einstein_residual(sol, z) == reference_einstein_residual(sol, z)


def chain_points(params, rng, n):
    """Points with |X| up to 0.9999 (X = 0 and X = +-0.9999 included) and
    r = 1 - 4p Re z1 log-uniform on [1e-6, 1e6]."""
    p = params.p
    xs = np.concatenate([[0.0, 0.9999, -0.9999], rng.uniform(-0.9999, 0.9999, n - 3)])
    rs = np.concatenate([[1e-6, 1.0, 1e6], 10.0 ** rng.uniform(-6.0, 6.0, n - 3)])
    return [Point(complex((1.0 - r) / (4 * p), y1), complex(x * r ** (1.0 / (2 * p)), y2))
            for x, r, y1, y2 in zip(xs, rs, *rng.uniform(-2.0, 2.0, (2, n)))]


@pytest.fixture(scope="module")
def chain_sols(sols):
    return {**sols, **{p: solve_potential(TubeParams(p=p)) for p in (5, 8)}}


def _chain_values(result):
    metric, val3, val4 = result
    return [*metric, *(val3 or ()), *(val4 or ())]


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_count_class_chain_is_bit_identical_to_the_index_word_chain(p, chain_sols):
    sol = chain_sols[p]
    points = chain_points(sol.params, np.random.default_rng(70 + p), 200)
    assert any(x_derivatives(sol.params, z, 0).x_value == 0.0 for z in points)
    for order in (2, 4):
        for z in points:
            tab = x_derivatives(sol.params, z, order)
            fs = sol.eval_f_derivs(tab.x_value, order - 1)
            new, ref = _chain_values(_chain(tab, *fs)), _chain_values(reference_chain(tab, *fs))
            assert len(new) == (12 if order == 4 else 3)
            assert new == ref, (z, order)
        tab = x_derivatives(sol.params, Point.stack(points), order)
        fs = sol.eval_f_derivs(tab.x_value, order - 1)
        new, ref = _chain_values(_chain(tab, *fs)), _chain_values(reference_chain(tab, *fs))
        assert len(new) == len(ref)
        for a, b in zip(new, ref):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_stacked_metric_jet_matches_the_scalar_jet(p, sols):
    sol = sols[p]
    points = sample_points(sol.params, np.random.default_rng(30 + p), 300, x_cap=0.99)
    zs = Point.stack(points)
    jet = metric_jet(sol, zs)
    assert isinstance(jet, MetricJet) and jet.point is zs and len(jet.profile) == 4
    assert all(np.shape(a) == (300,) for a in (jet.x_value, jet.det, *jet.g, *jet.d3,
                                               *jet.d4, *jet.profile))
    assert jet.metric.shape == jet.inverse.shape == (300, 2, 2)
    for i, z in enumerate(points):
        ref = metric_jet(sol, z)
        assert abs(jet.x_value[i] - ref.x_value) <= 1e-13
        assert [a[i] for a in jet.profile] == sol.eval_f_derivs(jet.x_value[i], 3)
        assert np.max(np.abs(jet.metric[i] - ref.metric)) <= 1e-13 * np.max(np.abs(ref.metric))
        assert np.max(np.abs(jet.inverse[i] - ref.inverse)) <= 1e-12 * np.max(np.abs(ref.inverse))
        assert abs(jet.det[i] - ref.det) <= 1e-13 * abs(ref.det)
        # one array per count class: each index word reads its class's value
        for n in (3, 4):
            words = list(itertools.product((1, 2), repeat=n))
            scale = max(abs(ref.deriv(*key)) for key in words)
            for key in words:
                assert abs(jet.deriv(*key)[i] - ref.deriv(*key)) <= 1e-13 * scale, key
    # on the axis (r = 1) the stacked jet is the scalar jet, bit for bit
    xs = np.linspace(-0.999, 0.999, 41)
    axis = metric_jet(sol, Point(np.zeros(41, complex), xs.astype(complex)))
    for i, x in enumerate(xs.tolist()):
        ref = metric_jet(sol, Point(0j, complex(x)))
        assert axis.det[i] == ref.det
        assert [a[i] for a in axis.g] == [ref.metric[0, 0], ref.metric[0, 1], ref.metric[1, 1]]
        assert np.array_equal(axis.metric[i], ref.metric)
        assert np.array_equal(axis.inverse[i], ref.inverse)
        assert all(axis.deriv(*key)[i] == ref.deriv(*key)
                   for key in itertools.product((1, 2), repeat=4))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_einstein_residual_batch_matches_the_scalar_loop(p, sols):
    sol = sols[p]
    points = sample_points(sol.params, np.random.default_rng(40 + p), 300, x_cap=0.99)
    batch = einstein_residual(sol, Point.stack(points))
    loop = np.array([einstein_residual(sol, z) for z in points])
    assert batch.shape == (300,)
    assert np.max(np.abs(batch - loop)) <= 1e-14


def test_batches_refuse_a_point_outside_the_domain(sol_p1):
    points = sample_points(sol_p1.params, np.random.default_rng(50), 5)
    bad = Point(0.25 + 0j, 0j)
    assert not in_domain(sol_p1.params, bad)
    for batch in (lambda sol, zs: metric_jet(sol, Point.stack(zs)),
                  lambda sol, zs: einstein_residual(sol, Point.stack(zs))):
        with pytest.raises(DomainError, match=re.escape(str(bad))):
            batch(sol_p1, points[:2] + [bad] + points[2:])


@pytest.mark.parametrize("p", [1, 2, 3])
def test_points_too_deep_for_the_raw_jet_are_refused(p, sols):
    sol = sols[p]
    deep, infinite = Point(complex(-1e300, 0.0), 0j), Point(complex(-math.inf, 0.0), 0j)
    # T_p holds the finite point; only the raw jet cannot represent it.
    # Re z1 = -inf is no point of T_p at all
    assert in_domain(sol.params, deep) and not in_domain(sol.params, infinite)
    for evaluate in (metric_jet, einstein_residual,
                     lambda sol, z: x_derivatives(sol.params, z, 0)):
        with pytest.raises(DomainError, match="too deep"):
            evaluate(sol, deep)
        with pytest.raises(DomainError, match="must be finite"):
            evaluate(sol, infinite)
    # the stacked path names the first deep point
    points = sample_points(sol.params, np.random.default_rng(60 + p), 4)
    first = Point(complex(-1e150, 0.5), 0.1j)
    points = points[:2] + [first, Point(complex(-1e300, 0.0), 0j)] + points[2:]
    for evaluate in (lambda zs: metric_jet(sol, Point.stack(zs)),
                     lambda zs: x_derivatives(sol.params, Point.stack(zs), 0),
                     lambda zs: einstein_residual(sol, Point.stack(zs))):
        with pytest.raises(DomainError, match=re.escape(str(first)) + ".*too deep"):
            evaluate(points)
    # bisectional and bis_extremes work on the axis, beyond the jet's depth
    pair = TangentPair(v=np.array([1.0, 1j]), w=np.array([0.3, 1.0]))
    assert math.isfinite(bisectional(sol, Point(complex(-1e100, 0.0), 0j), pair))
    deep = Point(complex(-1e300, 0.0), 0j)
    assert bis_extremes(sol, deep).min == bis_extremes(sol, Point(0j, 0j)).min


@pytest.mark.parametrize("p", [1, 2, 3])
def test_the_depth_bound_keeps_the_jet_in_normal_doubles(p, sols):
    sol = sols[p]

    def at_depth(r):
        return Point(complex((1.0 - r) / (4 * p), 0.3), complex(0.5 * r ** (1.0 / (2 * p)), -0.2))

    inside = at_depth(0.99 * _R_MAX)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jet = metric_jet(sol, inside)
        tensor = tensor_from_jet(jet)
        stacked = metric_jet(sol, Point.stack([inside, inside]))
    values = [*jet.metric.ravel(), jet.det, *jet.inverse.ravel(), *jet.d3,
              *jet.d4, *tensor.as_dict().values()]
    assert all(math.isfinite(v) and abs(v) >= np.finfo(float).tiny for v in values)
    for a in (*stacked.g, *stacked.d3, *stacked.d4):
        assert np.all(np.isfinite(a)) and np.all(np.abs(a) >= np.finfo(float).tiny)
    with pytest.raises(DomainError, match="too deep"):
        metric_jet(sol, at_depth(1.01 * _R_MAX))
    # and no lower than needed: at twice the bound the unguarded tables overflow
    with pytest.raises(OverflowError):
        _tables(sol.params, 2.0 * _R_MAX, 0.1, 4, math.log)
    # Re z1 = -1e70 (r = 4p 1e70, R1111 ~ -1e-280) stays inside the bound
    assert math.isfinite(tensor_from_jet(metric_jet(sol, Point(complex(-1e70, 0.0), 0j))).R1111)
