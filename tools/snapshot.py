"""Write a byte-exact snapshot of the package's outputs, for diffing two checkouts.

Usage::

    PYTHONPATH=<checkout>/src python tools/snapshot.py OUTDIR

It imports ``tubeke`` from the checkout on PYTHONPATH and writes into OUTDIR:

- ``p{p}.json`` (the saved record of the solve), ``nodes{p}.txt``
  (``repr`` of the node lists xs, Fs and fs, so that a change of the
  profile shows) and ``stats{p}.txt`` (``repr`` of its stats, the node
  count and the largest integral-identity residual) for p = 1..8, 37, 38,
  1000 and 20000: 37 is the last p whose march from F(0) = 2 blows up
  before x = 2, 38 the first whose march blows up beyond it, and 20000 the
  largest p solved, whose march blows up near 1040;
- ``evaluators.txt``: ``repr`` of eval_F, eval_f_derivs (orders 0..3) and
  eval_Z (orders 0..2) for p = 1, 2, 3, 5, 8 at every float of a fixed
  grid, then at scalar, 0-d and array arguments;
- ``depth.txt``: ``in_domain``, ``x_invariant`` and ``bis_extremes`` (min,
  max) at seeded points of depth r = 10^-k, k = 1..16, for p = 3 and 5
  (values or the refusal), and ``apply.txt``: ``apply`` of fixed
  automorphisms at fixed points for p = 1, 2, 3 (the image or the
  refusal);
- the output files, stdout, stderr and exit code of these CLI calls, run in
  process through ``tubeke.cli.main`` from OUTDIR: ``sweep`` (500 rows) for
  p = 1, 2, 3, ``verify --p 2 --report``, ``eval --derivs`` at x = 0,
  +-0.5, +-0.99, and ``curvature --extremes`` at four points, ``metric``
  (the raw jet) there for p = 1, 2, 3, and ``curvature --v --w`` there for
  p = 1, 2, 3 with fixed vector pairs (among them vectors scaled by 2^600
  and 2^-600, and a subnormal one); ``curvature --v --w`` with the same
  pairs for p = 1, 2 on the axis at 1 - X = 1e-5 and at the grid end
  (``edge*``);
- ``pairs.txt``: ``repr`` of ``bisectional`` in its three modes (tube,
  ``normalize=False``, ``formula="direct"``) and at ``normalize=False,
  formula="direct"``, for p = 1, 2, 3, with the same fixed pairs at each
  of ``EXTREME_POINTS`` and two deep points (Re z1 = -1e100 and -1e300),
  then at the stack of the four and at the stack of all six, with each
  pair and with one pair per point (values or the refusal).

``--stats``, whose timings vary from run to run, is left out.  Two
checkouts give the same outputs exactly when ``diff -r`` between their
OUTDIRs is empty.  The package does not import this script; the test suite
takes its fixed points and pairs (``pair_points``, ``tangent_pairs``) but
does not run it.
"""

import contextlib
import io
import math
import os
import sys
from pathlib import Path

import numpy as np

import tubeke
from tubeke.cli import _parse_vector, main as cli_main

SOLVE_PS = (*range(1, 9), 37, 38, 1000, 20000)
EVAL_PS = (1, 2, 3, 5, 8)
EVAL_XS = ("0", "0.5", "-0.5", "0.99", "-0.99")
EDGE_PS = (1, 2)
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


PAIR_PS = (1, 2, 3)
MODES = (("tube", {}), ("raw", {"normalize": False}), ("direct", {"formula": "direct"}),
         ("raw_direct", {"normalize": False, "formula": "direct"}))
# (Re z1, X) of the deep points, where lam = 1/(1 - 4p Re z1) nears 1e-300
DEEP = ((-1e100, 0.6), (-1e300, -0.9))


def pair_points(p):
    """EXTREME_POINTS and the deep points of p, as Points."""
    deep = [tubeke.Point(complex(re1, 0.3),
                         complex(x * (1.0 - 4 * p * re1) ** (1.0 / (2 * p)), -0.2))
            for re1, x in DEEP]
    return [*map(tubeke.Point.parse, EXTREME_POINTS), *deep]


def tangent_pairs():
    """VECTOR_PAIRS as TangentPairs."""
    return [tubeke.TangentPair(v=_parse_vector(v), w=_parse_vector(w)) for v, w in VECTOR_PAIRS]


def _pair_lines(sol):
    points = pair_points(sol.params.p)
    # the raw jet refuses the deep points, and with them a stack that holds them
    stacks = {"stack": points[:len(EXTREME_POINTS)], "deep stack": points}
    pairs = tangent_pairs()
    for name, kw in MODES:
        def bis(z, pair):
            return _outcome(lambda: tubeke.bisectional(sol, z, pair, **kw))
        for j, pair in enumerate(pairs):
            for z in points:
                yield f"{name} pair{j} {z}: {bis(z, pair)}"
            for label, stack in stacks.items():
                yield f"{name} pair{j} {label}: {bis(tubeke.Point.stack(stack), pair)}"
        for label, stack in stacks.items():
            # one pair per point, cycling through the pairs
            cycled = [pairs[i % len(pairs)] for i in range(len(stack))]
            rows = tubeke.TangentPair(v=[pair.v for pair in cycled], w=[pair.w for pair in cycled])
            yield f"{name} rows {label}: {bis(tubeke.Point.stack(stack), rows)}"


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


DEPTH_PS = (3, 5)
APPLY_PS = (1, 2, 3)
# (lam, u, flip): plain, the generators, and lam or u at the ends of the double range
AUTOMORPHISMS = ((0.35, (0.0, 0.0), False), (2.6, (1.3, -0.4), True), (1.0, (1.3, -0.4), False),
                 (1e-300, (0.0, 0.0), False), (1.7e308, (0.0, 0.0), False),
                 (1.0, (1.7e308, 0.0), False))


def _outcome(call):
    """repr of the call's value, or the class and message of its refusal."""
    try:
        return repr(call())
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _depth_lines(sol):
    params, p = sol.params, sol.params.p
    rng = np.random.default_rng(p)
    for k in range(1, 17):
        x, y1, y2 = rng.uniform(-0.9, 0.9), *rng.uniform(-2.0, 2.0, 2)
        r = 10.0 ** -k
        z = tubeke.Point(complex((1.0 - r) / (4 * p), y1), complex(x * r ** (1.0 / (2 * p)), y2))
        yield f"{z}"
        yield f"  in_domain: {_outcome(lambda: tubeke.in_domain(params, z))}"
        yield f"  X: {_outcome(lambda: tubeke.x_invariant(params, z))}"
        ext = _outcome(lambda: (lambda e: (e.min, e.max))(tubeke.bis_extremes(sol, z)))
        yield f"  bis_extremes: {ext}"


def _apply_lines(p):
    params = tubeke.TubeParams(p=p)
    for point in EXTREME_POINTS:
        z = tubeke.Point.parse(point)
        for lam, u, flip in AUTOMORPHISMS:
            a = tubeke.TubeAutomorphism(params=params, lam=lam, u=u, flip=flip)
            yield f"{z} lam={lam!r} u={u!r} flip={flip}: {_outcome(lambda: tubeke.apply(a, z))}"


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
        Path(f"nodes{p}.txt").write_text(
            "".join(f"{key} = {getattr(sols[p], key).tolist()!r}\n" for key in ("xs", "Fs", "fs")))
        Path(f"stats{p}.txt").write_text(repr(sols[p].stats) + "\n")
    with open("evaluators.txt", "w") as fh:
        for p in EVAL_PS:
            fh.write(f"# p = {p}\n")
            fh.writelines(line + "\n" for line in _evaluator_lines(sols[p]))
    with open("depth.txt", "w") as fh:
        for p in DEPTH_PS:
            fh.write(f"# p = {p}\n")
            fh.writelines(line + "\n" for line in _depth_lines(sols[p]))
    with open("pairs.txt", "w") as fh:
        for p in PAIR_PS:
            fh.write(f"# p = {p}\n")
            fh.writelines(line + "\n" for line in _pair_lines(sols[p]))
    with open("apply.txt", "w") as fh:
        for p in APPLY_PS:
            fh.write(f"# p = {p}\n")
            fh.writelines(line + "\n" for line in _apply_lines(p))
    for p in (1, 2, 3):
        _cli(f"sweep{p}", "sweep", "--sol", f"p{p}.json", "--out", f"sweep{p}.csv")
    _cli("verify", "verify", "--p", "2", "--report", "verify.json")
    for i, x in enumerate(EVAL_XS):
        _cli(f"eval{i}", "eval", "--sol", "p2.json", f"--x={x}", "--derivs")
    for i, point in enumerate(EXTREME_POINTS):
        _cli(f"extremes{i}", "curvature", "--sol", "p3.json", f"--point={point}",
             "--extremes")
        for p in (1, 2, 3):
            _cli(f"metric{i}_p{p}", "metric", "--sol", f"p{p}.json", f"--point={point}")
            for j, (v, w) in enumerate(VECTOR_PAIRS):
                _cli(f"pair{i}_p{p}_{j}", "curvature", "--sol", f"p{p}.json",
                     f"--point={point}", f"--v={v}", f"--w={w}")
    for p in EDGE_PS:
        for i, x in enumerate((1.0 - 1e-5, sols[p].x_max)):
            for j, (v, w) in enumerate(VECTOR_PAIRS):
                _cli(f"edge{i}_p{p}_{j}", "curvature", "--sol", f"p{p}.json",
                     f"--point=0,0,{x!r},0", f"--v={v}", f"--w={w}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
