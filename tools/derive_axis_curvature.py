"""Derive the axis curvature kernel of tubeke.curvature with sympy, p symbolic.

Usage::

    python tools/derive_axis_curvature.py            # (re)write the coefficient module
    python tools/derive_axis_curvature.py --check    # exit 1 if it differs from the derivation

On the axis z = (0, x) the depth r is 1, the X/L tables of metric_tensor
are polynomials in x and p, and the ODE gives f', f'' and f''' as
rational functions of (x, f, Z = e^{3F}).  The metric jet, the curvature
tensor R = -d4 + d3 g^{-1} d3 and its components Q in the g-orthonormal
frame e1 = (alpha, beta), e2 = (0, gamma) of tubeke.curvature are then
rational in (x, f, Z) up to one factor 1/sqrt(Z), which the components
with an odd number of frame index 1 carry.

The ODE's dilation law (x, f, Z) -> (x/lam, lam f, lam^2 Z) leaves each
component, times sqrt(Z)/f for the odd ones, unchanged, so each is a
rational function of the dilation invariants s = f^2/Z and u = xf:

    Q = N(s, u) / (2 s (s + 4)^2 P^3),      P = 8p^2 + 4p + (6p - 3) u,

(times f/sqrt(Z) for Q1112 and Q1222), with N a polynomial in s and u
whose coefficients are integer polynomials in p.  The derivation sets
f = 1 (x = u, Z = 1/s) and checks the law at exact random points.  s = 0
at x = 0, so N's s-free terms N(0, u), which carry u^2 (even) or u (odd),
are divided by s here: u^2/s = x^2 Z and (f/sqrt(Z)) u/s = x sqrt(Z).

It also checks the Einstein identities Q2222 = Q1111, Q1122 = -3 - Q1111
and Q1222 = -Q1112, which make the mixed term b and a + 3/2 vanish.  The
kernel evaluates Q1111, Q1112 and Q1212 alone and takes the rest from
these identities.

The module written is src/tubeke/_axis_coefficients.py.  The package
imports that module, not this script, and the test suite does not run
it.  A derivation takes about ten seconds.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from pathlib import Path

from sympy import QQ, Poly, symbols
from sympy.polys.fields import field

OUT = Path(__file__).resolve().parent.parent / "src" / "tubeke" / "_axis_coefficients.py"
KERNEL = ("Q1111", "Q1112", "Q1212")
ODD = ("Q1112", "Q1222")


def _jet(p, x, f, Z, one):
    """(g11, g12, g22), d3, d4 on the axis, as metric_tensor._chain forms them at r = 1."""
    K = (2 * p + 1) / 3
    D = (2 * p - 1) * x * f + 4 * p * K
    f1 = (4 * Z + f * f) / D
    Z1 = 3 * f * Z
    D1 = (2 * p - 1) * (f + x * f1)
    f2 = (4 * Z1 - f1 * D1 + 2 * f * f1) / D
    Z2 = 3 * (f1 * Z + f * Z1)
    D2 = (2 * p - 1) * (2 * f1 + x * f2)
    f3 = (4 * Z2 - 2 * f2 * D1 - f1 * D2 + 2 * f1 * f1 + 2 * f * f2) / D
    c = [one, one, 1 + 2 * p, (1 + 2 * p) * (1 + 4 * p), (1 + 2 * p) * (1 + 4 * p) * (1 + 6 * p)]
    A = [ca * x for ca in c]
    B = [ca / 2 for ca in c]
    L = [0 * one, 0 * one, 4 * p * K, 16 * p ** 2 * K, 96 * p ** 3 * K]
    g = (f1 * A[1] ** 2 + f * A[2] + L[2], f1 * A[1] * B[0] + f * B[1], f1 * B[0] ** 2)
    d3 = (f2 * B[0] ** 3,
          f2 * A[1] * B[0] ** 2 + 2 * f1 * B[1] * B[0],
          f2 * A[1] ** 2 * B[0] + f1 * (A[2] * B[0] + 2 * B[1] * A[1]) + f * B[2],
          f2 * A[1] ** 3 + 3 * f1 * A[2] * A[1] + f * A[3] + L[3])
    d4 = (f3 * B[0] ** 4,
          f3 * A[1] * B[0] ** 3 + 3 * f2 * B[1] * B[0] ** 2,
          (f3 * A[1] ** 2 * B[0] ** 2 + f2 * (A[2] * B[0] ** 2 + 4 * B[1] * A[1] * B[0])
           + f1 * (2 * B[2] * B[0] + 2 * B[1] ** 2)),
          (f3 * A[1] ** 3 * B[0] + f2 * (3 * A[2] * A[1] * B[0] + 3 * B[1] * A[1] ** 2)
           + f1 * (A[3] * B[0] + 3 * B[2] * A[1] + 3 * A[2] * B[1]) + f * B[3]),
          (f3 * A[1] ** 4 + 6 * f2 * A[2] * A[1] ** 2 + f1 * (4 * A[3] * A[1] + 3 * A[2] ** 2)
           + f * A[4] + L[4]))
    return g, d3, d4


def _frame_components(p, x, f, Z, one):
    """The six Q, each odd one times sqrt(Z), as rational functions.

    alpha^2 = g22/Z (the closure det), beta = t alpha with t = -g12/g22,
    gamma^2 = 1/g22, so gamma alpha = 1/sqrt(Z): the odd components are
    1/sqrt(Z) times what is returned for them.
    """
    (g11, g12, g22), d3, d4 = _jet(p, x, f, Z, one)
    det = g11 * g22 - g12 * g12
    inv = ((g22 / det, -g12 / det), (-g12 / det, g11 / det))

    def R(i, j, k, l):
        ik, jl = (i == 1) + (k == 1), (j == 1) + (l == 1)
        return -d4[ik + jl] + sum(d3[ik + (a == 1)] * inv[a - 1][b - 1] * d3[jl + (b == 1)]
                                  for a in (1, 2) for b in (1, 2))

    R1111, R1112, R1122 = R(1, 1, 1, 1), R(1, 1, 1, 2), R(1, 1, 2, 2)
    R1212, R1222, R2222 = R(1, 2, 1, 2), R(1, 2, 2, 2), R(2, 2, 2, 2)
    t = -g12 / g22
    a2, g2 = g22 / Z, 1 / g22
    return {
        "Q1111": a2 * a2 * (R1111 + 4 * t * R1112 + t * t * (4 * R1122 + 2 * R1212)
                            + 4 * t ** 3 * R1222 + t ** 4 * R2222),
        "Q1112": a2 * (R1112 + t * (2 * R1122 + R1212) + 3 * t * t * R1222 + t ** 3 * R2222),
        "Q1122": g2 * a2 * (R1122 + 2 * t * R1222 + t * t * R2222),
        "Q1212": g2 * a2 * (R1212 + 2 * t * R1222 + t * t * R2222),
        "Q1222": g2 * (R1222 + t * R2222),
        "Q2222": g2 * g2 * R2222,
    }


def derive():
    """{name: (N', n0)} for the three kernel components, over 2 s (s + 4)^2 P^3.

    N = s N'(s, u) + N(0, u), n0 = N(0, u)/u^2 for the even components and
    N(0, u)/u for the odd ones; all as {(i, j): [integer coefficients of
    p^0, p^1, ...]} for the monomial s^i u^j (n0: j alone).
    """
    F, p, s, u = field("p,s,u", QQ)
    Q = _frame_components(p, u, F(1), 1 / s, F(1))
    # the Einstein identities; the odd components carry sqrt(Z) = 1/sqrt(s) here
    assert Q["Q2222"] == Q["Q1111"], "Q2222 != Q1111"
    assert Q["Q1122"] == -3 - Q["Q1111"], "Q1122 != -3 - Q1111"
    assert Q["Q1222"] == -Q["Q1112"], "Q1222 != -Q1112"
    P = 8 * p ** 2 + 4 * p + (6 * p - 3) * u
    den = 2 * s * (s + 4) ** 2 * P ** 3
    ps, ss, us = symbols("p s u")
    out = {}
    for name in KERNEL:
        num = Q[name] * den
        assert num.denom == 1, f"{name}: the denominator is not 2 s (s+4)^2 P^3"
        poly = Poly(num.numer.as_expr(), ss, us)
        rest, free = {}, {}
        for (i, j), coeff in poly.terms():
            coeffs = Poly(coeff, ps).all_coeffs()
            assert all(c.is_integer for c in coeffs), f"{name}: a coefficient is not an integer"
            ints = [int(c) for c in reversed(coeffs)]
            if i:
                rest[(i - 1, j)] = ints
            else:
                free[j] = ints
        lowest = 1 if name in ODD else 2
        assert min(free, default=lowest) >= lowest, f"{name}: N(0, u) lacks a factor u^{lowest}"
        out[name] = (rest, {j - lowest: c for j, c in free.items()})
    _check_dilation(out)
    return out


def _check_dilation(out, trials=4):
    """The (s, u) forms against the full (x, f, Z) derivation at exact random points."""
    rng = random.Random(1)
    for _ in range(trials):
        p = Fraction(rng.randint(1, 9))
        x, f, Z = (Fraction(rng.randint(1, 99), rng.randint(1, 99)) for _ in range(3))
        full = _frame_components(p, x, f, Z, Fraction(1))
        s, u = f * f / Z, x * f
        P = 8 * p * p + 4 * p + (6 * p - 3) * u
        den = 2 * (s + 4) ** 2 * P ** 3
        for name in KERNEL:
            rest, free = out[name]
            n1 = sum(_at(c, p) * s ** i * u ** j for (i, j), c in rest.items())
            n0 = sum(_at(c, p) * u ** j for j, c in free.items())
            if name in ODD:
                # full holds Q sqrt(Z): the kernel's form times sqrt(Z)
                value, expected = (f * n1 + x * Z * n0) / den, full[name]
            else:
                value, expected = (n1 + x * x * Z * n0) / den, full[name]
            assert value == expected, f"{name}: the dilation law fails at p={p}, x={x}"


def _at(coeffs, p):
    return sum(c * p ** k for k, c in enumerate(coeffs))


def render(out) -> str:
    lines = [
        '"""Coefficient tables of the axis curvature kernel (tubeke.curvature._axis_components).',
        "",
        "Written by tools/derive_axis_curvature.py; do not edit.  On the axis,",
        "with s = f^2/Z, u = xf and P = 8p^2 + 4p + (6p - 3)u, the frame",
        "components are",
        "",
        "    Q = (N(s, u) + x^2 Z n0(u)) / (2 (s + 4)^2 P^3)       (Q1111, Q1212)",
        "    Q = ((f/sqrt Z) N(s, u) + x sqrt(Z) n0(u)) / (2 (s + 4)^2 P^3)    (Q1112)",
        "",
        "NUMERATORS[name] is (N, n0).  N holds one row per power of s, lowest",
        "first, and each row one entry per power of u; n0 holds one entry per",
        "power of u.  An entry is an integer polynomial in p, as its",
        "coefficients, lowest power first (() for 0).",
        '"""',
        "",
        "NUMERATORS = {",
    ]
    for name in KERNEL:
        rest, free = out[name]
        lines.append(f"    {name!r}: (")
        lines.append("        (")
        for i in range(max(i for i, _ in rest) + 1):
            row = [tuple(rest.get((i, j), ())) for j in range(max(j for _, j in rest) + 1)]
            while row and not row[-1]:
                row.pop()
            lines.append("            (")
            lines.extend(f"                {entry!r}," for entry in row)
            lines.append("            ),")
        lines.append("        ),")
        n0 = [tuple(free.get(j, ())) for j in range(max(free, default=-1) + 1)]
        lines.append("        (" + "".join(f"{entry!r}, " for entry in n0).rstrip() + "),")
        lines.append("    ),")
    lines.append("}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare the committed module with the derivation, write nothing")
    args = parser.parse_args(argv)
    text = render(derive())
    if args.check:
        same = OUT.exists() and OUT.read_text() == text
        print(f"{OUT.name}: {'matches' if same else 'differs from'} the derivation")
        return 0 if same else 1
    OUT.write_text(text)
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
