"""The benchmark's in-process workloads: traced spans and oracle errors.

A traced benchmark run fails when a span its workload expects is missing,
for instance when an evaluator the tracer wraps is renamed or moved.  This
runs one traced unit of each in-process workload, as bench/run.py does,
so that such a change fails here first.  cold_cli, which traces child
processes, is left to the benchmark.

A change also fails the benchmark when a workload's oracle_err rises more
than 25% above its value at the parent commit; the second test holds the
two in-process values to that bound.
"""

import importlib.util
from pathlib import Path

import pytest

import tubeke

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["axis_sweep", "point_queries", "verify_suites"])
def test_a_traced_unit_passes_and_records_every_expected_span(workload, sols, tmp_path):
    tracer_module, workloads = _load("tracer"), _load("workloads")
    runner = workloads.WORKLOADS[workload](tubeke, sols, 0, tmp_path)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        samples = runner.unit(0, traced=True)
    finally:
        tracer.uninstall()
    assert sum(failed for _, _, failed in samples) == 0
    seen = {span[0] for span in tracer.spans}
    assert [name for name in runner.EXPECTED_SPANS if name not in seen] == []


# oracle_err of axis_sweep (p = 1, 2, 3 rows) and of point_queries' fixed
# p=1 queries.  A change that lowers a value lowers its literal here: a
# literal may only get tighter, never looser.
AXIS_SWEEP_ORACLE_ERR = 2.4868996e-14
POINT_QUERIES_ORACLE_ERR = 2.6645353e-15
ORACLE_BOUND = 1.25   # BENCHMARK.json's 0.25 bound on oracle_err


def test_oracle_errors_stay_within_the_benchmark_bound(sols, tmp_path):
    workloads = _load("workloads")
    sweep = workloads.AxisSweep(tubeke, sols, 0, tmp_path)
    samples = [sample for i in range(3) for sample in sweep.unit(i, traced=False)]
    assert sum(failed for _, _, failed in samples) == 0
    assert sweep.oracle_err <= ORACLE_BOUND * AXIS_SWEEP_ORACLE_ERR
    queries = workloads.PointQueries(tubeke, sols, 0, tmp_path)
    assert queries.oracle_err <= ORACLE_BOUND * POINT_QUERIES_ORACLE_ERR
