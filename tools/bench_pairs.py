"""Record interleaved benchmark pairs of the working tree against a parent commit.

Usage::

    python3 tools/bench_pairs.py --label pr32 --parent HEAD~1 \\
        --workload point_queries --pairs 10 --seconds 25 --seed 100 [--traced-seed 3001]

For each workload it runs ``bench/run.py`` unmodified, ``--pairs`` times on
each side: on a ``git archive`` export of ``--parent`` in a temporary
directory, and on the working tree as it stands (uncommitted edits
included).  Pair k runs with seed ``--seed`` + k, the parent first when k is
even and the working tree first when k is odd.  ``--traced-seed`` adds one
``--trace 1`` run per side, whose per-layer metrics are kept as printed.

It writes ``BENCH_<label>.json`` at the root of the repository: for each
workload the seeds, each side's ``correct``, ``attempted`` and ``failed``,
each end-to-end metric's runs with their median and quartiles, the pairs
in which the working tree reads better than the parent ("won"; ties count
for neither side), and the machine facts of its first parent run.  An
existing file for the same parent commit keeps the workloads that this call
does not run, so workloads can be recorded in separate calls.  A one-line
summary per workload goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUARTILES = "statistics.quantiles(runs, n=4, method='inclusive')"


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """bench/run.py's result line, {"correct", "attempted", "failed", "metrics"}, and its machine facts."""
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"bench/run.py in {checkout} printed no result "
                           f"(exit {done.returncode}):\n{done.stderr}") from None
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), {})
    return {**result, "machine": machine}


def spread(runs: list) -> dict:
    """runs with their median and quartiles (QUARTILES; one run is its own quartiles)."""
    if len(runs) < 2:
        q1 = q3 = runs[0]
    else:
        q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"runs": runs, "median": statistics.median(runs), "q1": q1, "q3": q3}


def summarize(seeds: list, pairs: list, end_to_end: list) -> dict:
    """One workload's record from its pairs of bench/run.py results.

    pairs[k] is {"parent": result, "change": result}, the results of seed
    seeds[k]; end_to_end is BENCHMARK.json's list of end-to-end metrics,
    each with its "name" and "better" ("higher" or "lower").
    """
    record = {"seeds": list(seeds)}
    for key in ("correct", "attempted", "failed"):
        record[key] = {side: [pair[side][key] for pair in pairs] for side in ("parent", "change")}
    won = {}
    for side in ("parent", "change"):
        record[side] = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs]
                  for side in ("parent", "change")}
        for side, runs in values.items():
            record[side][name] = spread(runs)
        wins = sum(sign * (new - old) > 0.0 for old, new in zip(values["parent"], values["change"]))
        won[name] = f"{wins}/{len(pairs)}"
    record["won"] = won
    return record


def traced_record(result: dict) -> dict:
    """A traced run's correct, failed and per-layer values."""
    return {"correct": result["correct"], "failed": result["failed"],
            **{name: metric["value"] for name, metric in result["metrics"].items()}}


def export(ref: str, dest: Path) -> str:
    """Write ref's tree into dest with git archive; return ref's commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    parser.add_argument("--parent", default="HEAD", help="the git ref measured against")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=100, help="the first pair's seed")
    parser.add_argument("--traced-seed", type=int, default=None)
    args = parser.parse_args(argv)

    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    out = ROOT / f"BENCH_{args.label}.json"
    seeds = list(range(args.seed, args.seed + args.pairs))
    with tempfile.TemporaryDirectory() as tmp:
        parent_dir = Path(tmp)
        commit = export(args.parent, parent_dir)
        doc = json.loads(out.read_text()) if out.exists() else {}
        if doc.get("parent") not in (None, commit):
            parser.error(f"{out.name} records parent {doc['parent']}, not {commit}")
        checkouts = {"parent": parent_dir, "change": ROOT}
        doc.update({
            "what": "End-to-end metrics of bench/run.py, unmodified, at the parent commit and "
                    "at the working tree, in alternating pairs on one machine; the pair with "
                    "index k (from 0) ran the parent first when k is even and the change first "
                    "when k is odd.",
            "parent": commit,
            "command": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} "
                       "--trace 0",
            "quartiles": QUARTILES,
            "won": "pairs in which the change reads better than the parent; ties count for "
                   "neither",
        })
        doc.setdefault("workloads", {})
        for workload in args.workload:
            pairs = []
            for k, seed in enumerate(seeds):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pairs.append({side: run_bench(checkouts[side], workload, seed, args.seconds, 0)
                              for side in order})
            doc["workloads"][workload] = record = summarize(seeds, pairs, end_to_end)
            record["machine"] = {key: pairs[0]["parent"]["machine"].get(key)
                                 for key in ("nproc", "cpu_model", "python", "numpy")}
            if args.traced_seed is not None:
                doc["traced_command"] = (f"python3 bench/run.py --workload W --seed "
                                         f"{args.traced_seed} --seconds {args.seconds:g} --trace 1")
                doc.setdefault("traced", {})[workload] = {
                    side: traced_record(run_bench(checkouts[side], workload, args.traced_seed,
                                                  args.seconds, 1))
                    for side in ("parent", "change")}
            out.write_text(json.dumps(doc, indent=1) + "\n")
            print(workload + ": " + "; ".join(
                f"{name} {record['parent'][name]['median']:.4g} -> "
                f"{record['change'][name]['median']:.4g} (won {record['won'][name]})"
                for name in (m["name"] for m in end_to_end)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
