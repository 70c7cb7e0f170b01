"""Write the Taylor recurrence of tubeke.potential_solver out term by term.

Usage::

    python tools/write_taylor_series.py    # (re)write the series module

The module written is src/tubeke/_taylor_series.py, one straight-line
function of locals f0.., E0.., g0.. and D0.. for the solver's _ORDER.  It
makes the operations of the reference loop in tests/test_taylor_series.py,
in the same order; that test also checks the module against render().  Each
Cauchy sum is written 0.0 + t0 + t1 + ..., the left-to-right order of
CPython's sum() up to 3.11, so its bits do not depend on the interpreter.
x - 0 and x / 1 are exact, so they are left out.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tubeke"
OUT = SRC / "_taylor_series.py"

HEADER = '''"""The Taylor recurrence of the radial profile (tubeke.potential_solver), term by term.

Written by tools/write_taylor_series.py; do not edit.
"""


def series(p, x, F, f, E, h):
    """The Taylor coefficients of (F, f) through a node, in the offset t = (x' - x)/h.

    x, F, f and E = e^{{3F}} are the node's values and h the offset's scale:
    floats, or float arrays for many nodes at once, since the recurrence
    reads only +, * and /.  Returns the lists [F_0..F_N] and [f_0..f_N],
    N = {order}.  In t the ODE reads g D = h (4E + f^2) with g = df/dt, and
    order k of it, of dF/dt = h f and of dE/dt = 3h f E gives

        g_k D_0 = h (4 E_k + sum_j f_j f_{{k-j}}) - sum_{{j<k}} g_j D_{{k-j}},
        f_{{k+1}} = g_k/(k+1),   F_{{k+1}} = h f_k/(k+1),
        E_k = 3h sum_{{j<k}} f_j E_{{k-1-j}}/k,   D_k = (2p-1)(x f_k + h f_{{k-1}}),

    each sum taken from 0.0, left to right.
    """
    p2m1 = 2.0 * p - 1.0
    h3 = 3.0 * h
    f0, E0 = f, E
    D0 = p2m1 * x * f + 4.0 * p * ((2 * p + 1) / 3.0)
'''


def _sum(terms) -> str:
    return " + ".join(["0.0", *terms])


def _wrap(line: str, width: int = 99) -> str:
    """line broken inside its brackets, before a + or after a comma, to lines of <= width."""
    out = []
    while len(line) > width:
        plus, comma = line.rfind(" + ", 0, width - 1), line.rfind(", ", 0, width - 1)
        cut = max(plus, comma + 1)
        out.append(line[:cut])
        line = "        " + line[cut + 1:]
    return "\n".join([*out, line])


def render(order: int) -> str:
    lines = []
    for k in range(order):
        ff = _sum(f"f{j} * f{k - j}" for j in range(k + 1))
        g = f"h * (4.0 * E{k} + ({ff}))"
        if k:
            fE = _sum(f"f{j} * E{k - 1 - j}" for j in range(k))
            lines.append(f"    E{k} = h3 * ({fE})" + (f" / {k}" if k > 1 else ""))
            lines.append(f"    D{k} = p2m1 * (x * f{k} + h * f{k - 1})")
            g = f"({g} - ({_sum(f'g{j} * D{k - j}' for j in range(k))}))"
        lines.append(f"    g{k} = {g} / D0")
        lines.append(f"    f{k + 1} = g{k}" + (f" / {k + 1}" if k else ""))
        lines.append(f"    F{k + 1} = h * f{k}" + (f" / {k + 1}" if k else ""))
    for name, first in (("F", "F"), ("f", "f0")):
        terms = [first, *(f"{name}{k}" for k in range(1, order + 1))]
        lines.append(f"    {name}c = [{', '.join(terms)}]")
    lines.append("    return Fc, fc")
    return HEADER.format(order=order) + "\n".join(map(_wrap, lines)) + "\n"


def main() -> int:
    solver = (SRC / "potential_solver.py").read_text()
    OUT.write_text(render(int(re.search(r"^_ORDER = (\d+)$", solver, re.M)[1])))
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
