"""The pair recorder's summary (tools/bench_pairs.py), on synthetic run records."""

import importlib.util
import json
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


def test_each_workload_keeps_its_own_machine_facts(tmp_path, monkeypatch):
    # two calls, one workload each, into one file: each workload keeps the
    # facts of its own first parent run, and none is overwritten
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "export", lambda ref, dest: "c0ffee")
    runs = []

    def fake_run(checkout, workload, seed, seconds, trace):
        runs.append((workload, seed, checkout == tmp_path))
        side = "change" if checkout == tmp_path else "parent"
        return {**result(100.0, 0.5), "machine": {
            "nproc": len(workload), "cpu_model": f"{workload} {side} seed {seed}",
            "python": "3.x", "numpy": "2.x", "load": 0.5}}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    for workload in ("cold_cli", "verify_suites"):
        argv = ["--label", "t", "--workload", workload, "--pairs", "2", "--seed", "5"]
        assert bench_pairs.main(argv) == 0
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert "machine" not in doc and doc["parent"] == "c0ffee"
    assert {name: record["machine"] for name, record in doc["workloads"].items()} == {
        workload: {"nproc": len(workload), "cpu_model": f"{workload} parent seed 5",
                   "python": "3.x", "numpy": "2.x"}
        for workload in ("cold_cli", "verify_suites")}
    # pair 0 runs the parent first, pair 1 the change
    assert runs[:4] == [("cold_cli", 5, False), ("cold_cli", 5, True),
                        ("cold_cli", 6, True), ("cold_cli", 6, False)]
