"""Write a byte-exact snapshot of the package's outputs, for diffing two checkouts.

Usage::

    PYTHONPATH=<checkout>/src python tools/snapshot.py OUTDIR

It imports ``tubeke`` from the checkout on PYTHONPATH and writes into OUTDIR:

- ``p{p}.json`` (the saved solution) and ``stats{p}.txt`` (``repr`` of its
  stats) for p = 1..8 and 1000;
- ``evaluators.txt``: ``repr`` of eval_F, eval_f_derivs (orders 0..3) and
  eval_Z (orders 0..2) for p = 1, 2, 3, 5, 8 at every float of a fixed
  grid, then at scalar, 0-d and array arguments;
- the output files, stdout, stderr and exit code of these CLI calls, run in
  process through ``tubeke.cli.main`` from OUTDIR: ``sweep`` (500 rows) for
  p = 1, 2, 3, ``verify --p 2 --report``, ``eval --derivs`` at x = 0,
  +-0.5, +-0.99, and ``curvature --extremes`` at four points and
  ``curvature --v --w`` there for p = 1, 2, 3 with fixed vector pairs
  (among them vectors scaled by 2^600 and 2^-600, and a subnormal one).

``--stats``, whose timings vary from run to run, is left out.  Two
checkouts give the same outputs exactly when ``diff -r`` between their
OUTDIRs is empty.  The package does not import this script and the test
suite does not run it.
"""

import contextlib
import io
import math
import os
import sys
from pathlib import Path

import numpy as np

import tubeke
from tubeke.cli import main as cli_main

SOLVE_PS = (*range(1, 9), 1000)
EVAL_PS = (1, 2, 3, 5, 8)
EVAL_XS = ("0", "0.5", "-0.5", "0.99", "-0.99")
EXTREME_POINTS = ("0.01,0.2,0.5,-0.1", "-0.1,0.3,0.9,0.0", "0.0,0.0,0.0,0.0",
                  "0.05,-1.0,-0.7,0.4")
# (v, w) as re1,im1,re2,im2: plain, scaled far out of and into the double
# range by exact powers of two, and subnormal
_V, _W = (0.3, -1.2, 0.7, 0.5), (-0.4, 0.9, 1.1, -0.2)
VECTOR_PAIRS = tuple(
    (",".join(map(repr, v)), ",".join(map(repr, w))) for v, w in (
        ((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)),
        (_V, _W),
        (tuple(math.ldexp(c, 600) for c in _V), _W),
        (_V, tuple(math.ldexp(c, -600) for c in _W)),
        ((5e-324, 0.0, 0.0, -1e-320), _W),
    ))


def _evaluator_lines(sol):
    g = np.r_[np.linspace(-0.9999, 0.9999, 301), 0.0, -0.0, 0.5, -0.5, 0.99, -0.99]
    args = [*map(float, g), np.float64(0.3), np.array(0.3), np.array(-0.0), g, -g,
            np.array([0.0, -0.0])]
    for x in args:
        yield f"F {x!r}: {sol.eval_F(x)!r}"
        for k in range(4):
            yield f"f{k} {x!r}: {sol.eval_f_derivs(x, k)!r}"
        for k in range(3):
            yield f"Z{k} {x!r}: {sol.eval_Z(x, k)!r}"


def _cli(name, *argv):
    """Run one CLI call and write its stdout, stderr and exit code to name.txt."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:
            code = exc.code
    Path(f"{name}.txt").write_text(f"argv: {list(argv)}\nexit: {code}\n"
                                   f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def main(outdir):
    np.set_printoptions(floatmode="unique", threshold=10**7)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)
    sols = {}
    for p in SOLVE_PS:
        sols[p] = tubeke.solve_potential(tubeke.TubeParams(p=p))
        sols[p].save(f"p{p}.json")
        Path(f"stats{p}.txt").write_text(repr(sols[p].stats) + "\n")
    with open("evaluators.txt", "w") as fh:
        for p in EVAL_PS:
            fh.write(f"# p = {p}\n")
            fh.writelines(line + "\n" for line in _evaluator_lines(sols[p]))
    for p in (1, 2, 3):
        _cli(f"sweep{p}", "sweep", "--sol", f"p{p}.json", "--out", f"sweep{p}.csv")
    _cli("verify", "verify", "--p", "2", "--report", "verify.json")
    for i, x in enumerate(EVAL_XS):
        _cli(f"eval{i}", "eval", "--sol", "p2.json", f"--x={x}", "--derivs")
    for i, point in enumerate(EXTREME_POINTS):
        _cli(f"extremes{i}", "curvature", "--sol", "p3.json", f"--point={point}",
             "--extremes")
        for p in (1, 2, 3):
            for j, (v, w) in enumerate(VECTOR_PAIRS):
                _cli(f"pair{i}_p{p}_{j}", "curvature", "--sol", f"p{p}.json",
                     f"--point={point}", f"--v={v}", f"--w={w}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
