"""The benchmark's traced in-process workloads record every expected span.

A traced benchmark run fails when a span its workload expects is missing,
for instance when an evaluator the tracer wraps is renamed or moved.  This
runs one traced unit of each in-process workload, as bench/run.py does,
so that such a change fails here first.  cold_cli, which traces child
processes, is left to the benchmark.
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
