"""
Holomorphic bisectional curvature and pinching
===============================================

The bisectional curvature of the metric is negative and pinched between
explicit bounds.  At the center the extremes have closed forms; toward
the strictly pseudoconvex boundary every value approaches the ball-like
limit -1 - |<v,w>|^2/(|v|^2 |w|^2) in [-2, -1].
"""

import numpy as np

from tubeke import (
    Point,
    TangentPair,
    TubeParams,
    bis_extremes,
    bisectional,
    boundary_limit_bis,
    metric_jet,
    origin_closed_forms,
    sectional_max,
    solve_potential,
)

ORIGIN = Point(0j, 0j)

# --- center extremes vs closed forms ------------------------------------

print("center extremes (computed | exact):")
for p in (1, 2, 3):
    sol = solve_potential(TubeParams(p=p))
    ext = bis_extremes(sol, ORIGIN)
    vals = origin_closed_forms(sol.params)
    smax, _ = sectional_max(sol, ORIGIN)
    print(f"  p={p}: bis in [{ext.min:.9f}, {ext.max:.9f}] | "
          f"[{float(vals.bis_min):.9f}, {float(vals.bis_max):.9f}],  "
          f"sect_max {smax:.9f} | {float(vals.sect_max):.9f}")

# --- profile along the axis ---------------------------------------------
# p=1 is biholomorphic to the ball, so its extremes are frozen at
# (-2, -1); for p >= 2 they interpolate between the center values and
# the boundary limits (-2, -1).

sol = solve_potential(TubeParams(p=2))
print("\np=2 axis profile:")
print("      x      bis_min    bis_max   sect_max")
for x in (0.0, 0.5, 0.9, 0.99, 0.999):
    z = Point(0j, complex(x))
    ext = bis_extremes(sol, z)
    smax, _ = sectional_max(sol, z)
    print(f"  {x:7.3f}  {ext.min:9.6f}  {ext.max:9.6f}  {smax:9.6f}")

# --- convergence to the boundary limit ----------------------------------

rng = np.random.default_rng(1)
# 300 stacked pairs: one TangentPair of (300, 2) rows, one value per pair
pairs = TangentPair(v=rng.normal(size=(300, 2)) + 1j * rng.normal(size=(300, 2)),
                    w=rng.normal(size=(300, 2)) + 1j * rng.normal(size=(300, 2)))
print("\nsup |Bis - boundary limit| over 300 pairs:")
for x in (0.9, 0.99, 0.999):
    z = Point(0j, complex(x))
    gaps = bisectional(sol, z, pairs) - boundary_limit_bis(metric_jet(sol, z), pairs)
    gap = np.abs(gaps).max()
    print(f"  x = {x:5.3f}: {gap:.3e}")
