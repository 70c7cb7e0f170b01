"""The door timer's summary (tools/time_doors.py), on synthetic round records."""

import importlib.util
import statistics
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "time_doors.py"
_SPEC = importlib.util.spec_from_file_location("time_doors", _PATH)
time_doors = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(time_doors)


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
