"""
Solving the reduced potential equation by one Taylor march
==========================================================

The radial profile F solves F'' = (4 e^{3F} + F'^2) / ((2p-1) x F' + 4pK)
with F'(0) = 0 and F' blowing up at x = 1.  The equation is invariant
under F(x) -> F(lambda x) + (2/3) ln(lambda), so one march from any
F(0) = c that blows up at x_b gives the critical value c + (2/3) ln(x_b),
and every march blows up somewhere.  The solver marches once from
F(0) = 2 with order-24 Taylor series, in steps and up to a stop that the
dilation leaves unchanged, and maps the march's nodes onto the profile by
the same law: 79 steps for every p.  Everything else in the library is
evaluated from the nodes' series.
"""

import math

import numpy as np

from tubeke import TubeParams, solve_potential

# --- solve two domains ------------------------------------------------

for p in (1, 2):
    sol = solve_potential(TubeParams(p=p))
    print(f"p={p}: F(0) = {sol.F0:.15f}, blow-up at x = "
          f"{sol.achieved_blowup_x:.12f}, {len(sol.xs)} nodes, "
          f"{len(sol.xs) - 1} Taylor steps")

# --- the p=1 profile has a closed form --------------------------------
# F(x) = ln(2)/3 - ln(1 - x^2), so F(0) = ln(2)/3 and f = 2x/(1-x^2).

sol1 = solve_potential(TubeParams(p=1))
xs = np.linspace(0.0, 0.999, 7)
exact = math.log(2.0) / 3.0 - np.log(1.0 - xs**2)
err = np.max(np.abs(sol1.eval_F(xs) - exact))
print(f"\np=1 closed form: F(0) - ln(2)/3 = {sol1.F0 - math.log(2.0)/3.0:+.3e}, "
      f"max |F - exact| on [0, 0.999] = {err:.3e}")

# --- growth near the boundary -----------------------------------------
# f ~ 1/(1-x) and (1-x)^3 e^{3F} -> (2p-1)/4 as x -> 1; the k-th
# derivative grows like k!/(1-x)^{k+1}.

sol2 = solve_potential(TubeParams(p=2))
d = 1e-4
f, f1, f2, f3 = sol2.eval_f_derivs(1.0 - d, 3)
Z = sol2.eval_Z(1.0 - d, 0)[0]
print(f"\np=2 at x = 1 - {d:g}:")
print(f"  f * (1-x)        = {f * d:.6f}   (-> 1)")
print(f"  (1-x)^3 e^(3F)   = {d**3 * Z:.6f}   (-> (2p-1)/4 = 0.75)")
print(f"  f'' (1-x)^3 / 2  = {f2 * d**3 / 2.0:.6f}   (-> 1)")

# --- determinism -------------------------------------------------------
# The march uses no randomness: a second solve reproduces the stored
# nodes bit for bit.

again = solve_potential(TubeParams(p=2))
print(f"\nre-solve reproduces nodes exactly: "
      f"{np.array_equal(sol2.xs, again.xs) and np.array_equal(sol2.Fs, again.Fs)}")
