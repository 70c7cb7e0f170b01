"""Hostile integer arguments: run_suite's seed and axis_sweep's n.

One seeded pass over values drawn from bools, floats, strings, None,
negatives, numpy integers and 2**70.  An integer of any type (numpy's
among them) is taken as the Python int it equals; anything else is
refused with a ValueError that names the argument, before a suite runs or
a grid is allocated.  A seed must be non-negative, and the report records
it as a Python int, so the report is strict JSON.  Through the CLI,
`verify --seed -1` exits 2 with one line on stderr, before it solves.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from tubeke import axis_sweep, cli, run_suite
from tubeke.cli import _MAX_SWEEP_ROWS, main


def _hostile(rng):
    """(value, kind) pairs, kind one of "other", "negative", "huge" and
    "integer": every kind of value once, then seeded draws."""
    floats = [1.5, 2.0, -0.0, math.nan, math.inf, *rng.uniform(-10.0, 10.0, 3)]
    yield from ((v, "other") for v in (True, False, np.True_, None, "3", b"3", [3], 3 + 0j))
    yield from ((v, "other") for v in floats)
    yield from ((np.float64(v), "other") for v in floats)
    yield from ((-int(k), "negative") for k in (1, *rng.integers(2, 2 ** 40, 3)))
    yield np.int64(-2), "negative"
    yield 2 ** 70, "huge"
    for k in rng.integers(1, 50, 3):
        for kind in (int, np.int8, np.int64, np.uint16):
            yield kind(k), "integer"


def test_seed_and_n_are_integers_or_refused(sol_p1, tmp_path, monkeypatch):
    rng = np.random.default_rng(28)
    plain = run_suite("origin", sol_p1.params, sol_p1, seed=3).to_dict()
    for value, kind in _hostile(rng):
        timings = {}
        if kind in ("other", "negative"):
            with pytest.raises(ValueError, match="^seed must be a"):
                run_suite("origin", sol_p1.params, sol_p1, seed=value, timings=timings)
            assert timings == {}, value
        else:
            report = run_suite("origin", sol_p1.params, sol_p1, seed=value, timings=timings)
            assert type(report.seed) is int and report.seed == value
            data = report.to_dict()
            assert json.loads(json.dumps(data)) == data
            if value == 3:
                assert data == plain

        if kind == "integer":
            rows = axis_sweep(sol_p1, 0.0, 0.5, value)
            assert rows == axis_sweep(sol_p1, 0.0, 0.5, int(value))
        else:
            message = "^n must be an integer, got " if kind == "other" \
                else f"^need 1 <= n <= {_MAX_SWEEP_ROWS}, got "
            with pytest.raises(ValueError, match=message):
                axis_sweep(sol_p1, 0.0, 0.5, value)

    # the CLI checks the seed before it solves
    solves = []
    monkeypatch.setattr(cli, "solve_potential", solves.append)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", "--p", "1", "--suite", "origin", "--seed", "-1",
                     "--report", str(tmp_path / "report.json")])
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue() == "error: seed must be a non-negative integer, got -1\n"
    assert not (tmp_path / "report.json").exists()
    assert solves == []
