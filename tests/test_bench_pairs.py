"""The pair recorder's summary (tools/bench_pairs.py), on synthetic run records."""

import importlib.util
import statistics
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "ops_per_s", "better": "higher"}, {"name": "op_p50_ms", "better": "lower"}]


def result(ops_per_s, op_p50_ms, failed=0):
    return {"correct": failed == 0, "attempted": 1000, "failed": failed,
            "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                        "op_p50_ms": {"value": op_p50_ms, "unit": "ms"}}}


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    parent = [result(100.0, 0.50), result(110.0, 0.40), result(90.0, 0.60), result(100.0, 0.50)]
    change = [result(120.0, 0.45), result(100.0, 0.45), result(90.0, 0.50),
              result(130.0, 0.50, failed=2)]
    record = bench_pairs.summarize([7, 8, 9, 10], [{"parent": a, "change": b}
                                                   for a, b in zip(parent, change)], END_TO_END)
    assert record["seeds"] == [7, 8, 9, 10]
    assert record["correct"] == {"parent": [True] * 4, "change": [True, True, True, False]}
    assert record["attempted"] == {"parent": [1000] * 4, "change": [1000] * 4}
    assert record["failed"] == {"parent": [0] * 4, "change": [0, 0, 0, 2]}
    # higher is better for ops_per_s (pair 2 ties), lower for op_p50_ms (pair 3 ties)
    assert record["won"] == {"ops_per_s": "2/4", "op_p50_ms": "2/4"}
    runs = [120.0, 100.0, 90.0, 130.0]
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    assert record["change"]["ops_per_s"] == {"runs": runs, "median": 110.0, "q1": q1, "q3": q3}
    assert (q1, q3) == (97.5, 122.5)
    assert record["parent"]["op_p50_ms"]["median"] == 0.5


def test_one_pair_is_its_own_quartiles():
    record = bench_pairs.summarize([0], [{"parent": result(1.0, 2.0), "change": result(1.5, 2.0)}],
                                   END_TO_END)
    assert record["parent"]["op_p50_ms"] == {"runs": [2.0], "median": 2.0, "q1": 2.0, "q3": 2.0}
    assert record["won"] == {"ops_per_s": "1/1", "op_p50_ms": "0/1"}


def test_a_traced_run_keeps_its_values_as_printed():
    traced = bench_pairs.traced_record(result(5.0, 0.25, failed=1))
    assert traced == {"correct": False, "failed": 1, "ops_per_s": 5.0, "op_p50_ms": 0.25}
