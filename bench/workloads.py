"""The four benchmark workloads and their output checks.

Each workload runs in one process and one thread.  ``unit(index, traced)``
performs one small unit of work (one sweep call, ten queries per p, one
CLI process or one pass over the suites; the index cycles p) and returns
``(busy seconds, ops, failed ops)`` samples; the measurement loop in
run.py repeats units for the measured time.  Output checks run outside
the timed region and reuse the tolerances of tests/test_acceptance.py and
of the diagnostics suites.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent

PS = (1, 2, 3)
LN2_3 = math.log(2.0) / 3.0
SWEEP_HEADER = "x,F,f,f1,f2,f3,Z,det_g,bis_min,bis_max,sect_max"


def _report(exc: BaseException) -> None:
    traceback.print_exception(exc, file=sys.stderr)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _random_point(tk, p, rng):
    """Off-axis point with |X| <= 0.99 (the shape of diagnostics' sampler)."""
    x = rng.uniform(-0.99, 0.99)
    r = rng.uniform(0.2, 3.0)
    y1, y2 = rng.uniform(-2.0, 2.0, 2)
    return tk.Point(complex((1.0 - r) / (4 * p), y1),
                    complex(x * r ** (1.0 / (2 * p)), y2))


def _random_vector(rng):
    return rng.normal(size=2) + 1j * rng.normal(size=2)


class AxisSweep:
    """axis_sweep(sol, 0, 1-1e-4, n), one call per unit cycling p; one op is one row."""

    N_ROWS = 10
    X_MAX = 1.0 - 1e-4
    # beyond |x| = 0.999 the curvature assembly loses digits (ROADMAP
    # open item 3); the ball rows there get the looser tolerance and
    # oracle_err reports the actual deviation
    BOUNDARY_X = 0.999
    BOUNDARY_TOL = 1e-3
    EXPECTED_SPANS = ("cli.axis_sweep", "potential_solver.eval", "tube_geometry",
                      "metric_tensor.x_derivatives", "metric_tensor.metric_jet",
                      "curvature.tensor_from_jet", "curvature.bis_extremes",
                      "curvature.sectional_max")

    def __init__(self, tk, sols, seed, workdir):
        # the sweep grid is fixed: the closed-form rows need x = 0 and the
        # p=1 profile on the whole axis; the seed does not change the inputs
        self.tk, self.sols, self.workdir = tk, sols, workdir
        self.oracle_err = 0.0
        self.closed = {p: tk.origin_closed_forms(tk.TubeParams(p=p)) for p in PS}

    def unit(self, index, traced):
        p = PS[index % len(PS)]
        t0 = time.perf_counter()
        try:
            rows = self.tk.axis_sweep(self.sols[p], 0.0, self.X_MAX, self.N_ROWS)
        except Exception as exc:
            _report(exc)
            return [(time.perf_counter() - t0, self.N_ROWS, self.N_ROWS)]
        busy = time.perf_counter() - t0
        return [(busy, self.N_ROWS, self._failed_rows(p, rows))]

    def _failed_rows(self, p, rows):
        path = self.workdir / "sweep.csv"
        self.tk.cli.write_sweep_csv(rows, path)
        header = path.read_text().splitlines()[0]
        xs = [row.x for row in rows]
        if (header != SWEEP_HEADER or len(rows) != self.N_ROWS or xs[0] != 0.0
                or not all(a < b for a, b in zip(xs, xs[1:]))):
            return self.N_ROWS
        failed = 0
        for row in rows:
            values = [getattr(row, c) for c in SWEEP_HEADER.split(",")]
            ok = (all(math.isfinite(v) for v in values)
                  and row.bis_min <= row.bis_max < 0.0
                  and row.bis_min >= -5.0 and row.bis_max <= -0.1)
            if p == 1:
                # the complex ball: constant holomorphic curvature -2
                F_exact = LN2_3 - math.log(1.0 - row.x ** 2)
                curv = max(abs(row.bis_min + 2.0), abs(row.bis_max + 1.0),
                           abs(row.sect_max + 2.0))
                F_err = abs(row.F - F_exact)
                self.oracle_err = max(self.oracle_err, curv, F_err)
                if row.x <= self.BOUNDARY_X:
                    ok = ok and curv < 1e-6 and F_err < 1e-5   # criteria 3 and 1
                else:
                    ok = ok and max(curv, F_err) < self.BOUNDARY_TOL
            elif row.x == 0.0:
                c = self.closed[p]
                err = max(abs(row.bis_min - float(c.bis_min)),
                          abs(row.bis_max - float(c.bis_max)),
                          abs(row.sect_max - float(c.sect_max)))
                self.oracle_err = max(self.oracle_err, err)
                ok = ok and err < 1e-6                             # criteria 3 and 4
            failed += not ok
        return failed


class PointQueries:
    """Seeded off-axis points and vector pairs, one query per op."""

    PER_P = 10   # queries per p in one unit
    EXPECTED_SPANS = ("potential_solver.eval", "tube_geometry",
                      "metric_tensor.x_derivatives", "metric_tensor.metric_jet",
                      "metric_tensor.einstein_residual", "curvature.tensor_from_jet",
                      "curvature.bisectional")

    ORACLE_QUERIES = 200

    def __init__(self, tk, sols, seed, workdir):
        self.tk, self.sols = tk, sols
        self.rng = np.random.default_rng(seed)
        # oracle_err comes from a fixed set of p=1 queries, so that it does
        # not depend on the seed; the seeded p=1 queries are checked too
        fixed = np.random.default_rng(0)
        self.oracle_err = max(self._ball_error(_random_point(tk, 1, fixed),
                                               tk.TangentPair(v=_random_vector(fixed),
                                                              w=_random_vector(fixed)))
                              for _ in range(self.ORACLE_QUERIES))

    def _ball_error(self, z, pair, jet=None, normalized=None):
        """|Bis - exact ball value| for p=1, the complex ball."""
        sol = self.sols[1]
        jet = jet or self.tk.metric_jet(sol, z)
        if normalized is None:
            normalized = self.tk.bisectional(sol, z, pair)
        return abs(normalized - self.tk.boundary_limit_bis(jet, pair))

    def unit(self, index, traced):
        tk, samples = self.tk, []
        for p in PS:
            sol = self.sols[p]
            for _ in range(self.PER_P):
                z = _random_point(tk, p, self.rng)
                pair = tk.TangentPair(v=_random_vector(self.rng), w=_random_vector(self.rng))
                t0 = time.perf_counter()
                try:
                    jet = tk.metric_jet(sol, z)
                    normalized = tk.bisectional(sol, z, pair)
                    raw = tk.bisectional(sol, z, pair, normalize=False)
                    direct = tk.bisectional(sol, z, pair, formula="direct")
                    residual = tk.einstein_residual(sol, z)
                except Exception as exc:
                    _report(exc)
                    samples.append((time.perf_counter() - t0, 1, 1))
                    continue
                busy = time.perf_counter() - t0
                ok = (all(math.isfinite(v) for v in (normalized, raw, direct, residual))
                      and residual <= 1e-8                           # criterion 6
                      and _rel(normalized, raw) <= 1e-7              # criterion 7
                      and _rel(direct, normalized) <= 1e-10)         # invariance suite
                if p == 1:
                    ok = ok and self._ball_error(z, pair, jet, normalized) <= 1e-8  # crit. 8
                samples.append((busy, 1, int(not ok)))
        return samples


CLI_ENTRY = "import sys; from tubeke.cli import main; sys.exit(main())"
CLI_COMMANDS = ("solve", "eval", "metric", "curvature", "curvature_extremes")


class ColdCli:
    """One fresh process per CLI call and per unit.

    The calls run in blocks of solve --out, eval --derivs, metric,
    curvature --v --w and curvature --extremes for one p, cycling p.
    """

    TIMEOUT_S = 120
    EXPECTED_SPANS = ("potential_solver.solve_potential", "potential_solver.load_solution",
                      "potential_solver.eval", "tube_geometry",
                      "metric_tensor.x_derivatives", "metric_tensor.metric_jet",
                      "curvature.tensor_from_jet", "curvature.bisectional",
                      "curvature.bis_extremes", "curvature.sectional_max")

    # |F0(p=1) - ln2/3| is ~2e-13 today, at rounding level: report it no
    # lower than this floor, far below criterion 1's 1e-6, so that the
    # metric moves on a real loss of accuracy and not on a reordering
    ORACLE_FLOOR = 1e-10

    def __init__(self, tk, sols, seed, workdir):
        self.tk, self.sols, self.workdir = tk, sols, workdir
        self.rng = np.random.default_rng(seed)
        self.oracle_err = self.ORACLE_FLOOR
        self.tracer = None
        self.wall = {c: [] for c in CLI_COMMANDS}

    @staticmethod
    def _reals(values):
        # "--opt=value" form: argparse reads a leading "-0.3,..." as an option
        return ",".join(repr(float(v)) for v in values)

    def _call(self, argv, traced, op):
        if traced:
            out = self.workdir / "trace_child.json"
            cmd = [sys.executable, str(BENCH_DIR / "trace_cli.py"), *argv]
            out.unlink(missing_ok=True)
            env = dict(os.environ, BENCH_TRACE_OUT=str(out), BENCH_OP=op)
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
            env = None
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=self.TIMEOUT_S)
        busy = time.perf_counter() - t0
        if traced and out.exists():
            self.tracer.merge(json.loads(out.read_text()))
        if proc.returncode != 0:
            sys.stderr.write(f"{' '.join(argv)}: exit {proc.returncode}\n{proc.stderr}")
            return busy, None
        try:
            return busy, json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            _report(exc)
            return busy, None

    def unit(self, index, traced):
        tk, rng = self.tk, self.rng
        command = CLI_COMMANDS[index % len(CLI_COMMANDS)]
        p = PS[index // len(CLI_COMMANDS) % len(PS)]
        sol, path = self.sols[p], str(self.workdir / f"p{p}.json")
        x = z = v = w = None
        if command == "solve":
            argv = ["solve", "--p", str(p), "--out", path]
        elif command == "eval":
            x = float(rng.uniform(-0.99, 0.99))
            argv = ["eval", "--sol", path, f"--x={x!r}", "--derivs"]
        else:
            z = _random_point(tk, p, rng)
            argv = ["metric" if command == "metric" else "curvature", "--sol", path,
                    "--point=" + self._reals(z.as_reals())]
            if command == "curvature":
                v, w = _random_vector(rng), _random_vector(rng)
                argv += ["--v=" + self._reals(np.column_stack([v.real, v.imag]).ravel()),
                         "--w=" + self._reals(np.column_stack([w.real, w.imag]).ravel())]
            elif command == "curvature_extremes":
                argv.append("--extremes")
        busy, out = self._call(argv, traced, f"{index}.{command}")
        if traced:
            self.wall[command].append(busy)
            # the check below calls the library in this process: keep its
            # spans out of the child's layers
            self.tracer.uninstall()
        ok = out is not None
        if ok:
            try:
                ok = self._check(command, out, p, sol, x, z, v, w)
            except (KeyError, TypeError, ValueError) as exc:
                _report(exc)
                ok = False
        return [(busy, 1, int(not ok))]

    def _check(self, command, out, p, sol, x, z, v, w):
        """CLI output against the in-process library on the same inputs."""
        tk = self.tk
        if command == "solve":
            F0 = out["F0"]
            ok = out["p"] == p and out["nodes"] == len(sol.xs) and _rel(F0, sol.F0) <= 1e-12
            if p == 1:
                self.oracle_err = max(self.oracle_err, abs(F0 - LN2_3))
                ok = ok and abs(F0 - LN2_3) < 1e-6                  # criterion 1
            return ok
        if command == "eval":
            f, f1, f2, f3 = sol.eval_f_derivs(x, 3)
            expected = {"F": sol.eval_F(x), "f": f, "f1": f1, "f2": f2, "f3": f3,
                        "Z": sol.eval_Z(x, 0)[0]}
            return all(_rel(out[k], val) <= 1e-12 for k, val in expected.items())
        if command == "metric":
            jet = tk.metric_jet(sol, z)
            return (_rel(out["det"], jet.det) <= 1e-12
                    and np.allclose(np.array(out["g"]), jet.metric, rtol=1e-12, atol=0.0))
        if command == "curvature":
            # against the independent 16-term formula (invariance suite tolerance)
            direct = tk.bisectional(sol, z, tk.TangentPair(v=v, w=w), formula="direct")
            return len(out["tensor"]) == 6 and _rel(out["bis"], direct) <= 1e-10
        ext = out["extremes"]
        jet = tk.metric_jet(sol, z)
        tensor = tk.curvature.tensor_from_jet(jet)
        expected = tk.curvature.bis_extremes_from_jet(jet, tensor)
        sect_max, _ = tk.curvature.sectional_max_from_jet(jet, tensor)
        ok = (ext["min"] <= ext["max"] < 0.0
              and _rel(ext["min"], expected.min) <= 1e-10
              and _rel(ext["max"], expected.max) <= 1e-10
              and _rel(ext["sect_max"], sect_max) <= 1e-10)
        if p == 1:
            # the complex ball, criterion 3
            ok = ok and max(abs(ext["min"] + 2.0), abs(ext["max"] + 1.0),
                            abs(ext["sect_max"] + 2.0)) < 1e-6
        return ok


class VerifySuites:
    """solve_potential(p=2), then every verification suite except regions.

    This is `tubeke verify` without its regions suite.  regions takes 9 s
    of verify's 9.6 s, so a 25 s run held two or three ops and its figures
    spread by more than the bounds over ten runs; its 100-point extremes
    sweep is the path axis_sweep measures.
    """

    SUITES = ("asymptotics", "origin", "invariance", "einstein", "boundary_limit")
    EXPECTED_SPANS = ("potential_solver.solve_potential", "potential_solver.eval",
                      "tube_geometry", "metric_tensor.x_derivatives",
                      "metric_tensor.metric_jet", "metric_tensor.einstein_residual",
                      "curvature.tensor_from_jet", "curvature.bisectional",
                      "curvature.bisectional_batch", "curvature.bis_extremes",
                      "curvature.sectional_max", "diagnostics.run_suite",
                      *("diagnostics." + suite for suite in SUITES))

    # the origin suite's closed forms agree to ~1e-15, at rounding level:
    # report the error no lower than this floor (the suite checks 1e-6)
    ORACLE_FLOOR = 1e-12

    def __init__(self, tk, sols, seed, workdir):
        self.tk, self.sols, self.seed = tk, sols, seed
        self.oracle_err = self.ORACLE_FLOOR

    def unit(self, index, traced):
        tk = self.tk
        t0 = time.perf_counter()
        try:
            sol = tk.solve_potential(tk.TubeParams(p=2))
            reports = [tk.run_suite(suite, sol.params, sol, seed=self.seed * 1000 + index)
                       for suite in self.SUITES]
        except Exception as exc:
            _report(exc)
            return [(time.perf_counter() - t0, 1, 1)]
        busy = time.perf_counter() - t0
        ok = _rel(sol.F0, self.sols[2].F0) <= 1e-12
        for report in reports:
            for c in report.checks:
                if report.suite_name == "origin" and c.name.endswith("_closed_form"):
                    self.oracle_err = max(self.oracle_err, abs(c.observed - c.expected))
            if not report.overall:
                sys.stderr.write("\n".join(line for line in report.lines()
                                           if line.startswith("[FAIL]")) + "\n")
            ok = ok and report.overall
        return [(busy, 1, int(not ok))]


WORKLOADS = {
    "axis_sweep": AxisSweep,
    "point_queries": PointQueries,
    "cold_cli": ColdCli,
    "verify_suites": VerifySuites,
}
