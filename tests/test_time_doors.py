"""The door timer (tools/time_doors.py): its summary on synthetic rounds, and its layers."""

import importlib.util
import math
import statistics
from pathlib import Path

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
    record = time_doors.summarize(rounds(
        {"bisectional": [60.0, 70.0, 66.0, 64.0], "bis_extremes": [60.0, 62.0, 58.0, 64.0]},
        {"bisectional": [50.0, 44.0, 66.0, 46.0], "bis_extremes": [30.0, 31.0, 29.0, 66.0]}))
    assert list(record) == ["bisectional", "bis_extremes"]
    bis = record["bisectional"]
    runs = [50.0, 44.0, 66.0, 46.0]
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    assert bis["change"] == {"runs": runs, "median": 48.0, "q1": q1, "q3": q3}
    assert bis["parent"]["median"] == 65.0 and bis["speedup"] == 65.0 / 48.0
    assert bis["ratio"]["runs"] == [60.0 / 50.0, 70.0 / 44.0, 1.0, 64.0 / 46.0]
    # less time wins; a tie (bisectional's round 2) counts for neither side
    assert bis["won"] == "3/4" and record["bis_extremes"]["won"] == "3/4"
    assert record["bis_extremes"]["speedup"] == 61.0 / 30.5


def test_one_round_is_its_own_quartiles():
    record = time_doors.summarize(rounds({"metric_jet": [25.0]},
                                         {"metric_jet": [26.0]}))["metric_jet"]
    assert record["parent"] == {"runs": [25.0], "median": 25.0, "q1": 25.0, "q3": 25.0}
    assert record["won"] == "0/1"


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
    assert list(record) == ["solve", *time_doors.DOORS]
    assert all(0.0 < us < math.inf for us in record.values())
