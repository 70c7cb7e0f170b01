"""Benchmark of the tubeke pipeline, one workload per invocation.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: axis_sweep, point_queries, cold_cli, verify_suites (see
BENCHMARK.json and bench/design.json for what each stresses).  The package
is imported from ``src/`` of the checkout that holds this file.

``--trace 0`` measures the end-to-end metrics with no instrumentation; their
times are corrected to a nominal machine speed (see REF_NOMINAL_S) and the
uncorrected op times are printed as well.
``--trace 1`` measures the per-layer metrics: units of work alternate
between traced (wrappers installed, see tracer.py) and untraced, so the
run also reports the tracing overhead.  Either way every output is
checked, human-readable lines go to stdout and the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit status is 0 only when every op passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
# one thread per workload: keep BLAS from starting worker threads on a
# shared two-core machine; children inherit the setting
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The shared machine the benchmark was written on switches, for minutes at
# a time, between speed states about 1.8x apart.  End-to-end times are
# therefore corrected to a nominal machine speed with a fixed reference
# task that runs no tubeke code: corrected = measured * REF_NOMINAL_S /
# reference time.  Op times use the median of the last three reference
# times, taken between units about once every REF_INTERVAL_S.
REF_NOMINAL_S = 0.010
REF_INTERVAL_S = 1.0
# setup_s is the median of the set-up (import tubeke, build the p=1,2,3
# solutions) of the benchmark process and of SETUP_CHILDREN fresh ones,
# half of them started before the timed phase and half after it.  Each
# set-up is corrected by reference times taken in its own process, just
# before and after it: a probe in another process may run on another core.
SETUP_CHILDREN = 4
SETUP_CODE = """
import json, sys
sys.path.insert(0, {bench!r})
from run import timed_setup
print(json.dumps(timed_setup()[2]))
"""


def machine_facts(loadavg) -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "loadavg_at_start": list(loadavg)}


def reference_s() -> float:
    """Time of a fixed sort/dict/numpy task, a probe of the machine's speed."""
    import numpy as np
    t0 = time.perf_counter()
    x = np.random.default_rng(0).random(20000)
    ordered = sorted(x.tolist())
    index = {round(v, 6): i for i, v in enumerate(ordered[:5000])}
    float(np.sort(x).sum()) + len(index)
    return time.perf_counter() - t0


def setup_reference_s() -> float:
    """reference_s without numpy, which must not be loaded before a set-up.

    The op times follow reference_s more closely than this task.
    """
    t0 = time.perf_counter()
    rng = random.Random(0)
    ordered = sorted(rng.random() for _ in range(20000))
    index = {round(v, 6): i for i, v in enumerate(ordered[:5000])}
    len(index)
    return time.perf_counter() - t0


def timed_setup():
    """Import tubeke and build the p=1,2,3 solutions.

    Returns the package, the solutions and the set-up seconds corrected to
    the nominal machine speed by the fastest of three reference times
    before the set-up and the fastest of three after it.
    """
    before = min(setup_reference_s() for _ in range(3))
    t0 = time.perf_counter()
    import tubeke
    sols = {p: tubeke.solve_potential(tubeke.TubeParams(p=p)) for p in (1, 2, 3)}
    setup = time.perf_counter() - t0
    after = min(setup_reference_s() for _ in range(3))
    return tubeke, sols, setup * REF_NOMINAL_S / ((before + after) / 2)


def child_setups(count: int, trace: bool) -> tuple[list, list]:
    """Corrected set-up seconds and stderr of ``count`` fresh processes.

    A traced run starts them with ``-X importtime`` for the import layer.
    """
    setups, stderrs = [], []
    for _ in range(count):
        cmd = [sys.executable, *(["-X", "importtime"] if trace else []),
               "-c", SETUP_CODE.format(bench=str(BENCH_DIR))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        setups.append(json.loads(proc.stdout.splitlines()[-1]))
        stderrs.append(proc.stderr)
    return setups, stderrs


def import_times(stderrs) -> tuple[float, float]:
    """Median (tubeke, scipy) cumulative import ms from ``-X importtime`` output.

    scipy's share is the cumulative time of every scipy subtree that is not
    inside another scipy module, wherever in the import tree it starts.
    """
    tubeke_ms, scipy_ms = [], []
    for stderr in stderrs:
        rows = []  # (depth, name, cumulative us), in post-order
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            rows.append((depth, name.strip(), int(cumulative)))
        total_scipy, ancestors = 0, []
        for depth, name, cumulative in reversed(rows):   # parents before children
            del ancestors[depth:]
            if name.split(".")[0] == "scipy" and not any(a == "scipy" for a in ancestors):
                total_scipy += cumulative
            ancestors.append(name.split(".")[0])
            if depth == 0 and name == "tubeke":
                tubeke_ms.append(cumulative / 1e3)
        scipy_ms.append(total_scipy / 1e3)
    return statistics.median(tubeke_ms), statistics.median(scipy_ms)


def layer_metrics(tracer, workload, ratio, imports) -> dict:
    times = tracer.self_times()
    counters, out = tracer.counters, {}

    def calls(span):
        return times[span][0] if span in times else 0

    def mean_self(span, scale):
        n = calls(span)
        return times[span][1] / n * scale if n else 0.0

    out["import.tubeke_ms"], out["import.scipy_ms"] = imports
    for span in ("potential_solver.solve_potential", "potential_solver.load_solution",
                 "curvature.bis_extremes", "curvature.sectional_max"):
        out[span + ".calls"] = calls(span)
        out[span + ".self_ms"] = mean_self(span, 1e3)
    for span in ("potential_solver.eval", "tube_geometry", "metric_tensor.x_derivatives",
                 "metric_tensor.metric_jet", "metric_tensor.einstein_residual",
                 "curvature.tensor_from_jet", "curvature.bisectional"):
        out[span + ".calls"] = calls(span)
        out[span + ".self_us"] = mean_self(span, 1e6)
    solves = calls("potential_solver.solve_potential")
    out["potential_solver.nodes"] = counters["potential_solver.nodes"] / solves if solves else 0.0
    out["curvature.bisectional_batch.pairs"] = counters["curvature.bisectional_batch.pairs"]
    out["curvature.bisectional_batch.self_us"] = mean_self("curvature.bisectional_batch", 1e6)
    out["curvature.minimize.calls"] = counters["curvature.minimize.calls"]
    out["curvature.minimize.nfev"] = counters["curvature.minimize.nfev"]
    # a Nelder-Mead run is useful when it yields a returned extreme:
    # bis_extremes returns two, sectional_max one
    extremes = 2 * calls("curvature.bis_extremes") + calls("curvature.sectional_max")
    out["curvature.polish_useful_ratio"] = (
        extremes / max(counters["curvature.minimize.calls"], extremes) if extremes else 0.0)
    for suite in ("asymptotics", "origin", "invariance", "einstein", "boundary_limit"):
        out[f"diagnostics.{suite}.self_s"] = mean_self("diagnostics." + suite, 1.0)
    out["diagnostics.checks"] = counters["diagnostics.checks"]
    out["diagnostics.failed_checks"] = counters["diagnostics.failed_checks"]
    out["cli.axis_sweep.self_ms"] = mean_self("cli.axis_sweep", 1e3)
    wall = getattr(workload, "wall", {})
    for command in ("solve", "eval", "metric", "curvature", "curvature_extremes"):
        samples = wall.get(command)
        out[f"cli.{command}.wall_ms"] = statistics.median(samples) * 1e3 if samples else 0.0
    for layer, count in tracer.errors.items():
        out[layer + ".errors"] = count
    out["trace.overhead_ratio"] = ratio
    return out


def summarize(samples) -> tuple[int, int, float, list]:
    ops = sum(s[1] for s in samples)
    failed = sum(s[2] for s in samples)
    busy = sum(s[0] for s in samples)
    return ops, failed, busy, [s[0] / s[1] for s in samples]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    loadavg = os.getloadavg()
    if not (SRC / "tubeke" / "__init__.py").is_file():
        print(f"error: no tubeke sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC),
                                                             os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))

    tubeke, sols, setup = timed_setup()
    if Path(tubeke.__file__).resolve().parent != SRC / "tubeke":
        print(f"error: imported tubeke from {tubeke.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    tracer = Tracer() if args.trace else None
    if tracer:
        # the set-up's spans: a traced run reports no setup_s
        tracer.install()
        sols = {p: tubeke.solve_potential(tubeke.TubeParams(p=p)) for p in (1, 2, 3)}
        tracer.uninstall()
    setups, stderrs = child_setups(SETUP_CHILDREN // 2, bool(tracer))
    setups.append(setup)

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](tubeke, sols, args.seed, OUT)
    workload.tracer = tracer
    traced_samples, plain_samples, raw_samples = [], [], []
    start, unit_s, index = time.perf_counter(), 0.0, 0
    probes, probed = [reference_s()], time.perf_counter()
    # whole units only, ending at the unit boundary nearest to --seconds,
    # and at least two: the latency quantiles need two samples and a
    # traced run one unit of each kind
    while index < 2 or time.perf_counter() - start + unit_s / 2 < args.seconds:
        if time.perf_counter() - probed >= REF_INTERVAL_S:
            probes.append(reference_s())
            probed = time.perf_counter()
        unit_start = time.perf_counter()
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.op = str(index)
            tracer.install()
        try:
            samples = workload.unit(index, traced)
        finally:
            if traced:
                tracer.uninstall()
        unit_s = time.perf_counter() - unit_start
        if time.perf_counter() - probed >= REF_INTERVAL_S:
            # a long unit: include the probe after it
            probes.append(reference_s())
            probed = time.perf_counter()
        # the median of the last three probes damps the probes' own noise
        correction = REF_NOMINAL_S / statistics.median(probes[-3:])
        raw_samples.extend(samples)
        (traced_samples if traced else plain_samples).extend(
            (busy * correction, n, failed) for busy, n, failed in samples)
        index += 1

    more_setups, more_stderrs = child_setups(SETUP_CHILDREN - SETUP_CHILDREN // 2,
                                             bool(tracer))
    setups += more_setups
    stderrs += more_stderrs

    ops, failed, busy, latencies = summarize(traced_samples + plain_samples)
    _, _, raw_busy, raw_latencies = summarize(raw_samples)
    correct = failed == 0
    if tracer:
        imports = import_times(stderrs)
        plain_ops, _, plain_busy, _ = summarize(plain_samples)
        traced_ops, _, traced_busy, _ = summarize(traced_samples)
        ratio = (traced_ops / traced_busy) / (plain_ops / plain_busy)
        tracer.dump(OUT / f"spans-{args.workload}.json")
        values = layer_metrics(tracer, workload, ratio, imports)
        seen = {span[0] for span in tracer.spans if span[4] != "setup"}
        missing = [name for name in workload.EXPECTED_SPANS if name not in seen]
        if missing:
            print(f"error: no spans recorded for {', '.join(missing)}", file=sys.stderr)
            correct = False
        declared = spec["per_layer"]
    else:
        usage = resource.RUSAGE_CHILDREN if args.workload == "cold_cli" else resource.RUSAGE_SELF
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ops / busy,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "success_ratio": (ops - failed) / ops,
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
            "oracle_err": workload.oracle_err,
        }
        declared = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    facts = machine_facts(loadavg)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"units={index} ops={ops} failed={failed} fail_ratio={failed / ops:.6g} "
          f"samples={len(latencies)} "
          # printed, not reported: over ten runs it spread by up to the bound
          f"op_p90_ms={statistics.quantiles(latencies, n=10, method='inclusive')[-1] * 1e3:.6g}")
    print(f"uncorrected: ops_per_s={ops / raw_busy:.6g} "
          f"op_p50_ms={statistics.median(raw_latencies) * 1e3:.6g} "
          f"mean_correction={busy / raw_busy:.4g}")
    print("machine " + json.dumps(facts))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    result = {"correct": correct, "attempted": ops, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
