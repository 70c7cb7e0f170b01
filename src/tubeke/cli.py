"""Command-line interface and axis sweep.

Subcommands
-----------
solve      solve for the profile and record the solve as JSON
eval       evaluate the profile (and optionally its derivatives) at one x
metric     metric tensor, determinant, and derivative jet at a point
curvature  curvature tensor plus either one bisectional value or extremes
sweep      CSV table of profile + curvature quantities along the real axis
verify     run a named verification suite and report pass/fail per check

Exit status: 0 on success, 1 when a verification suite fails or a sweep
row is not finite, 2 on usage, domain or output-path errors.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

# called through the modules, whose bodies run on first use: each verb
# runs only the modules it needs
from . import curvature, diagnostics, metric_tensor, tube_geometry
from .errors import DomainError
from .params import SUITE_NAMES, TubeParams, as_integer, as_seed
from .potential_solver import _P_MAX, PotentialSolution, load_solution, solve_potential

__all__ = ["SweepRow", "axis_sweep", "main"]

SWEEP_COLUMNS = ("x", "F", "f", "f1", "f2", "f3", "Z",
                 "det_g", "bis_min", "bis_max", "sect_max")


@dataclass(frozen=True)
class SweepRow:
    x: float
    F: float
    f: float
    f1: float
    f2: float
    f3: float
    Z: float
    det_g: float
    bis_min: float
    bis_max: float
    sect_max: float


# The most rows one sweep takes.  A sweep's arrays and rows peak at about
# 1.3 KB per row (1e5 rows: +121 MB resident, p=2), so this bounds one call
# to about 1.3 GB.
_MAX_SWEEP_ROWS = 10 ** 6


def axis_sweep(sol: PotentialSolution, x_min: float = 0.0,
               x_max: float = 1.0 - 1e-4, n: int = 500, health: dict | None = None) -> list:
    """Tabulate profile and curvature quantities at n points of [x_min, x_max].

    Points on the real-z2 axis represent every orbit of the automorphism
    group with X >= 0, so this one table captures the whole geometry.
    The jet, tensor and extremes run once on the stacked axis points.
    Rows come back in x order and are checked to be finite.  A health dict,
    if given, receives the rows' largest Einstein defect.  n is an integer
    (bools refused) from 1 to 10^6 (_MAX_SWEEP_ROWS), checked before
    anything is allocated.
    """
    n = as_integer("n", n)
    if not 1 <= n <= _MAX_SWEEP_ROWS:
        raise ValueError(f"need 1 <= n <= {_MAX_SWEEP_ROWS}, got {n}")
    if not (-1.0 < x_min < 1.0) or not (-1.0 < x_max < 1.0):
        raise ValueError("sweep endpoints must lie in (-1, 1)")
    if n > 1 and not x_min < x_max:
        raise ValueError("need x_min < x_max for a multi-point sweep")
    xs = np.linspace(x_min, x_max, n)
    jet = metric_tensor.metric_jet(sol, tube_geometry.Point(np.zeros(n, complex),
                                                            xs.astype(complex)))
    tensor = curvature.tensor_from_jet(jet)
    ext = curvature.bis_extremes_from_jet(jet, tensor)
    sect_max, _ = curvature.sectional_max_from_jet(jet, tensor)
    F = sol.eval_F(xs)
    # Z = e^{3F} as eval_Z forms it, without a second interpolation of F
    columns = np.array([xs, F, *jet.profile, np.exp(3.0 * F), jet.det,
                        ext.min, ext.max, sect_max])
    finite = np.isfinite(columns).all(axis=0)
    if not finite.all():
        raise RuntimeError(f"non-finite sweep row at x={xs[np.argmin(finite)]}")
    if health is not None:
        health["einstein_defect"] = float(ext.einstein_defect.max())
    return [SweepRow(*row) for row in columns.T.tolist()]


def write_sweep_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([repr(getattr(row, c)) for c in SWEEP_COLUMNS])


def _parse_vector(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected 4 comma-separated reals, got {text!r}")
    a, b, c, d = (float(s) for s in parts)
    return np.array([complex(a, b), complex(c, d)], dtype=complex)


def _vector_reals(v) -> list:
    return [float(v[0].real), float(v[0].imag), float(v[1].real), float(v[1].imag)]


class _Stages:
    """Wall seconds of a verb's stages, in the order they ran."""

    def __init__(self):
        self.seconds = {}
        self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        """Charge the time since the previous lap (or the start) to stage."""
        now = time.perf_counter()
        self.seconds[stage] = now - self._last
        self._last = now


def _print_stats(stages: _Stages, sol: PotentialSolution, **extra) -> None:
    """--stats: one JSON object on stderr, stdout untouched.

    It holds "<stage>_s" for each stage, the solver's stats under
    "solver", then the verb's extra entries.
    """
    print(json.dumps({**{f"{name}_s": t for name, t in stages.seconds.items()},
                      "solver": sol.stats, **extra}), file=sys.stderr)


def _check_writable(path) -> None:
    """Raise the OSError that writing path would, before the verb's work, changing no file."""
    existed = os.path.lexists(path)
    open(path, "a").close()
    if not existed:
        os.remove(path)


def _print_json(obj) -> None:
    """A verb's result as one JSON line on stdout; a NaN or inf in it is a ValueError."""
    print(json.dumps(obj, allow_nan=False))


def _cmd_solve(args) -> int:
    params = TubeParams(p=args.p)
    _check_writable(args.out)
    stages = _Stages()
    sol = solve_potential(params)
    stages.lap("solve")
    sol.save(args.out)
    _print_json({**sol.to_dict(), "out": str(args.out)})
    stages.lap("write")
    if args.stats:
        _print_stats(stages, sol)
    return 0


def _cmd_eval(args) -> int:
    stages = _Stages()
    sol = load_solution(args.sol)
    stages.lap("load")
    f = [float(v) for v in sol.eval_f_derivs(args.x, 3 if args.derivs else 0)]
    out = {"x": args.x, "F": float(sol.eval_F(args.x)), "f": f[0]}
    if args.derivs:
        out.update({"f1": f[1], "f2": f[2], "f3": f[3], "Z": float(sol.eval_Z(args.x, 0)[0])})
    stages.lap("eval")
    _print_json(out)
    stages.lap("write")
    if args.stats:
        _print_stats(stages, sol)
    return 0


def _cmd_metric(args) -> int:
    stages = _Stages()
    sol = load_solution(args.sol)
    stages.lap("load")
    z = tube_geometry.Point.parse(args.point)
    jet = metric_tensor.metric_jet(sol, z)
    stages.lap("jet")
    _print_json({
        "point": z.as_reals(),
        "X": jet.x_value,
        "g": jet.metric.tolist(),
        "det": jet.det,
        **{f"d{n}": {"".join(map(str, word)): jet.deriv(*word)
                     for word in itertools.product((1, 2), repeat=n)} for n in (3, 4)},
    })
    stages.lap("write")
    if args.stats:
        _print_stats(stages, sol)
    return 0


def _cmd_curvature(args) -> int:
    if (args.v is None) != (args.w is None) or (args.v is None and not args.extremes):
        raise ValueError("provide both --v and --w, or --extremes")
    stages = _Stages()
    sol = load_solution(args.sol)
    stages.lap("load")
    z = tube_geometry.Point.parse(args.point)
    jet = metric_tensor.metric_jet(sol, z)
    stages.lap("jet")
    tensor = curvature.tensor_from_jet(jet)
    stages.lap("tensor")
    out = {"point": z.as_reals(), "X": jet.x_value, "tensor": tensor.as_dict()}
    if args.v is not None:
        pair = curvature.TangentPair(v=_parse_vector(args.v), w=_parse_vector(args.w))
        out["bis"] = curvature.bisectional(sol, z, pair)
        stages.lap("bis")
    if args.extremes:
        ext = curvature.bis_extremes_from_jet(jet, tensor)
        sm, vstar = curvature.sectional_max_from_jet(jet, tensor)
        out["extremes"] = {
            "min": ext.min,
            "argmin": {"v": _vector_reals(ext.argmin.v),
                       "w": _vector_reals(ext.argmin.w)},
            "max": ext.max,
            "argmax": {"v": _vector_reals(ext.argmax.v),
                       "w": _vector_reals(ext.argmax.w)},
            "sect_max": sm,
            "arg_sect_max": _vector_reals(vstar),
        }
        stages.lap("extremes")
    _print_json(out)
    stages.lap("write")
    if args.stats:
        # the closed forms' defect at X, which both modes read; kept on the tensor
        defect = curvature.bis_extremes_from_jet(jet, tensor).einstein_defect
        _print_stats(stages, sol, einstein_defect=defect)
    return 0


def _cmd_sweep(args) -> int:
    _check_writable(args.out)
    stages = _Stages()
    sol = load_solution(args.sol)
    stages.lap("load")
    health = {}
    rows = axis_sweep(sol, x_min=args.x_min, x_max=args.x_max, n=args.n, health=health)
    stages.lap("sweep")
    write_sweep_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    stages.lap("write")
    if args.stats:
        _print_stats(stages, sol, **health)
    return 0


def _cmd_verify(args) -> int:
    params = TubeParams(p=args.p)
    seed = as_seed(args.seed)
    diagnostics._suite_names(args.suite, params.p)   # refused before the solve, as the seed is
    if args.report:
        _check_writable(args.report)
    stages = _Stages()
    sol = solve_potential(params)
    stages.lap("solve")
    timings = {}
    report = diagnostics.run_suite(args.suite, params, sol, seed=seed, timings=timings)
    for line in report.lines():
        print(line)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
    if args.stats:
        _print_stats(stages, sol, suite_s=timings, checks=len(report.checks),
                     failed=sum(not c.passed for c in report.checks))
    return 0 if report.overall else 1


def _reals_help(what: str, option: str) -> str:
    return (f"{what} as re1,im1,re2,im2; when the first value is negative write "
            f"{option}=-1,0,0,0 ({option} -1,0,0,0 is read as an option)")


def _add_stats(parser: argparse.ArgumentParser, stages: str) -> None:
    parser.add_argument("--stats", action="store_true",
                        help=f"print the wall seconds of each stage ({stages}) and the "
                             f"solver's stats as one JSON object on stderr; stdout is "
                             f"unchanged")


def _add_sol(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sol", required=True,
                        help="solution JSON from solve: its p is solved again (about "
                             "6 ms), and the file is refused unless it records that solve")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tubeke",
        description="Kähler-Einstein metrics of the tube domains T_p: "
                    "radial potential, metric, curvature, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve for the potential and record the solve")
    p_solve.add_argument("--p", type=int, required=True,
                         help=f"domain parameter, 1 to {_P_MAX}")
    p_solve.add_argument("--out", required=True,
                         help="output JSON path for the record {p, F0, blowup_x, nodes}")
    _add_stats(p_solve, "solve, write")
    p_solve.set_defaults(func=_cmd_solve)

    p_eval = sub.add_parser("eval", help="evaluate the profile at one x")
    _add_sol(p_eval)
    p_eval.add_argument("--x", type=float, required=True)
    p_eval.add_argument("--derivs", action="store_true",
                        help="include f', f'', f''' and Z = e^{3F}")
    _add_stats(p_eval, "load, eval, write")
    p_eval.set_defaults(func=_cmd_eval)

    p_metric = sub.add_parser("metric", help="metric tensor and jet at a point")
    _add_sol(p_metric)
    p_metric.add_argument("--point", required=True, help=_reals_help("z", "--point"))
    _add_stats(p_metric, "load, jet, write")
    p_metric.set_defaults(func=_cmd_metric)

    p_curv = sub.add_parser("curvature",
                            help="curvature tensor, bisectional values, extremes")
    _add_sol(p_curv)
    p_curv.add_argument("--point", required=True, help=_reals_help("z", "--point"))
    p_curv.add_argument("--v", help=_reals_help("first tangent vector", "--v"))
    p_curv.add_argument("--w", help=_reals_help("second tangent vector", "--w"))
    p_curv.add_argument("--extremes", action="store_true",
                        help="extremal bisectional/sectional values, from closed forms "
                             "at the point's X, up to the grid end")
    _add_stats(p_curv, "load, jet, tensor, then bis and/or extremes, write; "
                       "einstein_defect follows, that of the closed forms at X")
    p_curv.set_defaults(func=_cmd_curvature)

    p_sweep = sub.add_parser("sweep", help="CSV sweep along the real-z2 axis")
    _add_sol(p_sweep)
    p_sweep.add_argument("--x-min", type=float, default=0.0)
    p_sweep.add_argument("--x-max", type=float, default=1.0 - 1e-4)
    p_sweep.add_argument("--n", type=int, default=500)
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    _add_stats(p_sweep, "load, sweep, write; the rows' largest einstein_defect follows")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--p", type=int, required=True)
    p_verify.add_argument("--suite", default="all",
                          choices=list(SUITE_NAMES) + ["all"])
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--report", help="write the report as JSON here")
    _add_stats(p_verify, "solve, and each suite under suite_s; the check counts follow")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
