"""The door timer (tools/time_doors.py): its summary on synthetic rounds, and its layers."""

import importlib.util
import math
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import tubeke

_ROOT = Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


time_doors = _load("time_doors", _ROOT / "tools" / "time_doors.py")
workloads = _load("bench_workloads", _ROOT / "bench" / "workloads.py")


def rounds(parent: dict, change: dict) -> list:
    """Round records from per-door lists of times, one entry per round."""
    n = len(next(iter(parent.values())))
    return [{side: {door: times[k] for door, times in record.items()}
             for side, record in (("parent", parent), ("change", change))} for k in range(n)]


def test_summary_gives_medians_speedups_and_wins_per_door():
    # the control takes the same time in both processes of every round, so
    # the adjusted ratios are the plain ones
    control = [10.0, 10.0, 10.0, 10.0]
    record = time_doors.summarize(rounds(
        {"control": control, "bisectional": [60.0, 70.0, 66.0, 64.0],
         "bis_extremes": [60.0, 62.0, 58.0, 64.0]},
        {"control": control, "bisectional": [50.0, 44.0, 66.0, 46.0],
         "bis_extremes": [30.0, 31.0, 29.0, 66.0]}))
    assert list(record) == ["control", "bisectional", "bis_extremes"]
    bis = record["bisectional"]
    runs = [50.0, 44.0, 66.0, 46.0]
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    assert bis["change"] == {"runs": runs, "median": 48.0, "q1": q1, "q3": q3}
    assert bis["parent"]["median"] == 65.0 and bis["speedup"] == 65.0 / 48.0
    assert bis["ratio"]["runs"] == [60.0 / 50.0, 70.0 / 44.0, 1.0, 64.0 / 46.0]
    assert bis["adjusted"] == bis["ratio"] and bis["adjusted_won"] == bis["won"]
    # less time wins; a tie (bisectional's round 2) counts for neither side
    assert bis["won"] == "3/4" and record["bis_extremes"]["won"] == "3/4"
    assert record["bis_extremes"]["speedup"] == 61.0 / 30.5


def test_one_round_is_its_own_quartiles():
    record = time_doors.summarize(rounds({"control": [10.0], "metric_jet": [25.0]},
                                         {"control": [10.0], "metric_jet": [26.0]}))["metric_jet"]
    assert record["parent"] == {"runs": [25.0], "median": 25.0, "q1": 25.0, "q3": 25.0}
    assert record["won"] == "0/1"


def test_adjusted_ratios_take_out_the_drift_the_control_sees():
    # round 0: the change's process runs everything twice as slow; round 1
    # the parent's does
    record = time_doors.summarize(rounds(
        {"control": [10.0, 20.0], "same": [30.0, 60.0], "faster": [60.0, 120.0]},
        {"control": [20.0, 10.0], "same": [60.0, 30.0], "faster": [60.0, 30.0]}))
    assert record["same"]["ratio"]["runs"] == [0.5, 2.0]
    assert record["same"]["adjusted"]["runs"] == [1.0, 1.0]
    assert record["faster"]["adjusted"]["runs"] == [2.0, 2.0]
    assert record["control"]["adjusted"]["runs"] == [1.0, 1.0]
    # the plain wins read the drift; the adjusted ones count ratios above 1
    assert record["same"]["won"] == "1/2" and record["same"]["adjusted_won"] == "0/2"
    assert record["faster"]["won"] == "1/2" and record["faster"]["adjusted_won"] == "2/2"


class _Recorder:
    """A tubeke stand-in that records each call other than Point and TangentPair and answers 1.0."""

    Point, TangentPair = tubeke.Point, tubeke.TangentPair

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        def call(*args, **kwargs):
            self.calls.append((name, kwargs))
            return 1.0
        return call


def test_the_query_door_makes_the_calls_of_one_point_queries_op():
    one = _Recorder()
    time_doors.DOORS["query"](one, None, None, None)
    assert [name for name, _ in one.calls] == ["metric_jet", "bisectional", "bisectional",
                                                "bisectional", "einstein_residual"]
    tk = _Recorder()
    bench = workloads.PointQueries(tk, dict.fromkeys(workloads.PS), seed=1, workdir=None)
    tk.calls.clear()
    samples = bench.unit(0, False)
    # boundary_limit_bis is the p = 1 oracle check, outside the timed calls
    timed = [call for call in tk.calls if call[0] != "boundary_limit_bis"]
    assert timed == one.calls * len(samples)


def test_measure_times_every_door_in_process():
    record = time_doors.measure(tubeke, workloads, queries=1)
    assert list(record) == ["control", "solve", "sweep", *time_doors.DOORS]
    assert all(0.0 < us < math.inf for us in record.values())


def test_the_sweep_layer_runs_one_500_row_sweep_per_p(sols):
    calls = []
    tk = SimpleNamespace(axis_sweep=lambda *args: calls.append(args))
    time_doors.sweep(tk, workloads, list(sols.values()))
    # bench's axis_sweep range, in the solutions' order p = 1, 2, 3
    assert calls == [(sol, 0.0, workloads.AxisSweep.X_MAX, 500) for sol in sols.values()]


def test_the_control_layer_runs_no_tubeke_code():
    package = str(Path(tubeke.__file__).parent)
    files = set()
    sys.setprofile(lambda frame, event, arg: files.add(frame.f_code.co_filename))
    try:
        seconds = time_doors.control()
    finally:
        sys.setprofile(None)
    assert 0.0 < seconds < math.inf
    assert files and not any(name.startswith(package) for name in files)
