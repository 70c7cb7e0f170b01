"""The solver's Taylor recurrence, written out term by term (tubeke._taylor_series).

The reference is the list-based recurrence the generated module replaced,
with each Cauchy sum an explicit left-to-right loop from 0.0: the order of
CPython's sum() of floats up to 3.11, whose compensated sum() from 3.12 on
would round differently.  The written-out function must give its bits,
signed zeros included, for scalars, for stacked arrays and along whole
marches, and the checked-in module must be the generator's output.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from tubeke import _taylor_series, potential_solver
from tubeke.potential_solver import _C_START, _ORDER, _integrate, _series

PS = (1, 2, 3, 5, 8, 1000, 20000)


def _dot(xs, ys):
    """sum(map(mul, xs, ys)) as CPython <= 3.11 forms it: from 0.0, left to right."""
    total = 0.0
    for a, b in zip(xs, ys):
        total = total + a * b
    return total


def reference_series(p, x, F, f, E, h):
    """The order-_ORDER recurrence as a loop over lists."""
    p2m1 = 2.0 * p - 1.0
    Fc, fc, Ec, gc = [F], [f], [E], []
    D = [p2m1 * x * f + 4.0 * p * ((2 * p + 1) / 3.0)]
    for k in range(_ORDER):
        if k:
            Ec.append(3.0 * h * _dot(fc, Ec[::-1]) / k)
            D.append(p2m1 * (x * fc[k] + h * fc[k - 1]))
        g = (h * (4.0 * Ec[k] + _dot(fc, fc[::-1])) - _dot(gc, D[::-1])) / D[0]
        gc.append(g)
        fc.append(g / (k + 1))
        Fc.append(h * fc[k] / (k + 1))
    return Fc, fc


def bits(values) -> list:
    """The bytes of each value: equal lists are equal bit for bit, signed zeros too."""
    return [np.asarray(v, dtype=float).tobytes() for v in values]


def nodes(p, n=40):
    """Seeded node values (x, F, f, E, h), with signed zeros, u = xf up to 1e10 and h from 1e-15.

    h is a scale s over 1 + f + e^{3F/2}, so the coefficients grow like
    s^k and stay finite for s up to about 3.
    """
    rng = np.random.default_rng(p)
    x = rng.uniform(0.0, 1.0, n)
    F = rng.uniform(-3.0, 3.0, n)
    f = 10.0 ** rng.uniform(-3.0, 10.0, n)
    x[:3], f[3:6] = [0.0, -0.0, 1e-300], [0.0, -0.0, 5e-324]
    s = 10.0 ** rng.uniform(-15.0, 0.5, n)
    h = s / (1.0 + f + np.exp(1.5 * F))
    return x, F, f, np.exp(3.0 * F), h


@pytest.mark.parametrize("p", PS)
def test_scalar_coefficients_keep_the_loops_bits(p):
    for node in zip(*(values.tolist() for values in nodes(p))):
        Fc, fc = _series(p, *node)
        expected = reference_series(p, *node)
        assert all(type(c) is float for c in Fc + fc)
        assert np.isfinite(expected).all()
        assert bits(Fc + fc) == bits(expected[0] + expected[1]), node


def solved_nodes(p):
    """The node arrays of a solve, as _node_series passes them."""
    sol = potential_solver.solve_potential(potential_solver.TubeParams(p=p))
    return sol.xs[:-1], sol.Fs[:-1], sol.fs[:-1], np.exp(3.0 * sol.Fs[:-1]), np.diff(sol.xs)


@pytest.mark.parametrize("p", PS)
def test_stacked_coefficients_keep_the_loops_and_each_rows_bits(p):
    for stack in (nodes(p), solved_nodes(p)):
        Fc, fc = _series(p, *stack)
        expected = reference_series(p, *stack)
        assert bits(Fc + fc) == bits(expected[0] + expected[1])
        rows = np.array(Fc + fc).T
        for row, node in zip(rows, zip(*(values.tolist() for values in stack))):
            Fs, fs = _series(p, *node)
            assert bits(row) == bits(Fs + fs)


@pytest.mark.parametrize("p", PS)
def test_a_march_keeps_the_loops_steps_and_nodes(p, monkeypatch):
    steps = []

    def both(*node):
        coeffs = _series(*node)
        steps.append(bits(coeffs[0] + coeffs[1]))
        return coeffs

    def reference(*node):
        coeffs = reference_series(*node)
        steps.append(bits(coeffs[0] + coeffs[1]))
        return coeffs

    monkeypatch.setattr(potential_solver, "_series", both)
    march = _integrate(p, _C_START)
    monkeypatch.setattr(potential_solver, "_series", reference)
    expected = _integrate(p, _C_START)
    assert len(steps) == 2 * (len(march[1]) - 1)
    assert steps[:len(steps) // 2] == steps[len(steps) // 2:]
    assert bits([march[0]]) == bits([expected[0]])
    for got, want in zip(march[1:], expected[1:]):
        assert bits(got) == bits(want)


def test_the_module_is_the_generators_output():
    path = Path(__file__).resolve().parent.parent / "tools" / "write_taylor_series.py"
    spec = importlib.util.spec_from_file_location("write_taylor_series", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.render(_ORDER) == Path(_taylor_series.__file__).read_text()
