"""Time the solve and the single-point curvature doors in process, against a parent commit.

Usage::

    python3 tools/time_doors.py --label pr33 --parent HEAD~1 --rounds 15 --queries 300

Each round runs one fresh process per side: the working tree as it stands
(uncommitted edits included) and a ``git archive`` export of ``--parent``,
the parent first in even rounds and the working tree first in odd ones.  A
process imports tubeke from its checkout's ``src/``, solves p = 1, 2, 3 and
draws point_queries' inputs with this tree's ``bench/workloads.py``
(``--queries`` off-axis points and vector pairs per p, from seed SEED).  The
first layer timed is ``control``, this tree's ``bench/run.py`` reference
task, which runs no tubeke code: its per-round ratio shows how far two
processes drift apart on identical work.  Then come ``solve``, one
``solve_potential`` per p = 1, 2, 3, and ``sweep``, one SWEEP_ROWS-row
``axis_sweep`` per p over axis_sweep's range.  For each door it times
REPEATS passes over all the queries.  Each layer keeps its fastest pass, in
microseconds per call.  The doors are the single-point curvature calls and
``query``, one point_queries op: ``metric_jet``, the three ``bisectional``
modes and ``einstein_residual`` at one query.  Each single door reads the
profile once per point, at distinct points, so only ``query`` reads one
|X| more than once.

It writes the ``"doors"`` entry of ``BENCH_<label>.json`` at the root of the
repository, keeping the file's other entries: each door's per-round times
on both sides with their median and quartiles, the ratio of the medians
(parent over change, so above 1 is faster), the per-round ratios with
their median and quartiles, and the rounds the change won.  Each door also
gets ``adjusted``: its per-round ratio over that round's ``control`` ratio,
with its median and quartiles, and ``adjusted_won``, the rounds in which
it is above 1.  Two processes drift apart by up to about 20% on identical
work, and the adjusted ratio takes out the part of that drift the control
sees; a door's claim is read against the control's own spread of ratios.
A one-line summary per door goes to stdout.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, QUARTILES, export, spread  # noqa: E402

SEED = 0
REPEATS = 3
PS = (1, 2, 3)
SWEEP_ROWS = 500

# the control layer: bench/run.py's reference task, which runs no tubeke code
_spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
_bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_bench_run)
control = _bench_run.reference_s


def _query(tk, sol, z, pair):
    """One point_queries op: the calls bench/workloads.py's PointQueries times for one query."""
    tk.metric_jet(sol, z)
    tk.bisectional(sol, z, pair)
    tk.bisectional(sol, z, pair, normalize=False)
    tk.bisectional(sol, z, pair, formula="direct")
    tk.einstein_residual(sol, z)


DOORS = {
    "metric_jet": lambda tk, sol, z, pair: tk.metric_jet(sol, z),
    "bisectional": lambda tk, sol, z, pair: tk.bisectional(sol, z, pair),
    "bisectional_raw": lambda tk, sol, z, pair: tk.bisectional(sol, z, pair, normalize=False),
    "bisectional_direct": lambda tk, sol, z, pair: tk.bisectional(sol, z, pair, formula="direct"),
    "einstein_residual": lambda tk, sol, z, pair: tk.einstein_residual(sol, z),
    "bis_extremes": lambda tk, sol, z, pair: tk.bis_extremes(sol, z),
    "sectional_max": lambda tk, sol, z, pair: tk.sectional_max(sol, z),
    "query": _query,
}


def sweep(tk, workloads, sols) -> None:
    """One SWEEP_ROWS-row axis_sweep per solution, over bench's axis_sweep range."""
    for sol in sols:
        tk.axis_sweep(sol, 0.0, workloads.AxisSweep.X_MAX, SWEEP_ROWS)


def _fastest(run, calls: int) -> float:
    """Microseconds per call of the fastest of REPEATS passes of run(), which makes calls calls."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best / calls


def measure(tk, workloads, queries: int) -> dict:
    """{layer: microseconds per call}, the fastest of REPEATS passes of each.

    tk is the tubeke package timed and workloads bench/workloads.py, whose
    point and vector draws give queries points and pairs per p in PS.  The
    layers are control, the reference task; solve, one solve per p in PS;
    sweep, one sweep per p; and the doors, each over all the queries.
    """
    sols = []

    def solve():
        sols[:] = [tk.solve_potential(tk.TubeParams(p=p)) for p in PS]

    out = {"control": _fastest(control, 1), "solve": _fastest(solve, len(PS)),
           "sweep": _fastest(lambda: sweep(tk, workloads, sols), len(PS))}
    rng = np.random.default_rng(SEED)
    cases = []
    for sol in sols:
        for _ in range(queries):
            z = workloads._random_point(tk, sol.params.p, rng)
            pair = tk.TangentPair(v=workloads._random_vector(rng), w=workloads._random_vector(rng))
            cases.append((sol, z, pair))
    for name, door in DOORS.items():
        def run(door=door):
            for sol, z, pair in cases:
                door(tk, sol, z, pair)
        out[name] = _fastest(run, len(cases))
    return out


# a fresh process: tubeke from the checkout timed, this tree's workloads and measure
CHILD = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}, {tools!r}]
import tubeke, workloads
from time_doors import measure
print(json.dumps(measure(tubeke, workloads, {queries})))
"""


def time_side(checkout: Path, queries: int) -> dict:
    """{door: microseconds per call} of one fresh process on checkout's src/."""
    code = CHILD.format(src=str(checkout / "src"), bench=str(ROOT / "bench"),
                        tools=str(ROOT / "tools"), queries=queries)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"timing {checkout} failed (exit {done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def summarize(rounds: list) -> dict:
    """Each door's record from rounds[k] = {"parent": {door: us}, "change": {door: us}}.

    speedup is the parent's median over the change's, and ratio each
    round's parent time over its change time, which the machine's speed
    state moves less than the times; won counts the rounds in which the
    change took less time (ties count for neither).  adjusted is each
    round's ratio over that round's "control" ratio, and adjusted_won
    counts the rounds in which it is above 1; the control's own adjusted
    ratios are all 1.
    """
    record = {}
    for door in rounds[0]["parent"]:
        runs = {side: [r[side][door] for r in rounds] for side in ("parent", "change")}
        parent, change = spread(runs["parent"]), spread(runs["change"])
        pairs = list(zip(runs["parent"], runs["change"]))
        ratios = [old / new for old, new in pairs]
        adjusted = [ratio / (r["parent"]["control"] / r["change"]["control"])
                    for ratio, r in zip(ratios, rounds)]
        record[door] = {"parent": parent, "change": change,
                        "speedup": parent["median"] / change["median"],
                        "ratio": spread(ratios),
                        "won": f"{sum(new < old for old, new in pairs)}/{len(rounds)}",
                        "adjusted": spread(adjusted),
                        "adjusted_won": f"{sum(a > 1.0 for a in adjusted)}/{len(rounds)}"}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    parser.add_argument("--parent", default="HEAD", help="the git ref measured against")
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--queries", type=int, default=300, help="points per p")
    args = parser.parse_args(argv)

    out = ROOT / f"BENCH_{args.label}.json"
    with tempfile.TemporaryDirectory() as tmp:
        parent_dir = Path(tmp)
        commit = export(args.parent, parent_dir)
        checkouts = {"parent": parent_dir, "change": ROOT}
        rounds = []
        for k in range(args.rounds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            rounds.append({side: time_side(checkouts[side], args.queries) for side in order})
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["doors"] = {
        "what": "In-process microseconds per call: control, bench/run.py's reference task "
                "(no tubeke code); solve, one solve_potential per p = "
                f"{', '.join(map(str, PS))}; sweep, one {SWEEP_ROWS}-row axis_sweep per p; and "
                f"each door over point_queries' seeded inputs (seed {SEED}); each the fastest "
                f"of {REPEATS} passes, one fresh process per side and round; round k ran the "
                "parent first when k is even.",
        "parent": commit,
        "command": f"python3 tools/time_doors.py --label {args.label} --parent {args.parent} "
                   f"--rounds {args.rounds} --queries {args.queries}",
        "quartiles": QUARTILES,
        "doors": (record := summarize(rounds)),
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for door, entry in record.items():
        adjusted = entry["adjusted"]
        print(f"{door}: {entry['parent']['median']:.1f} -> {entry['change']['median']:.1f} us "
              f"(x{entry['speedup']:.2f}; per round x{entry['ratio']['median']:.2f}, "
              f"won {entry['won']}; over control x{adjusted['median']:.2f} "
              f"[{adjusted['q1']:.2f}, {adjusted['q3']:.2f}], won {entry['adjusted_won']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
