"""
The metric tensor and its Einstein property
============================================

The potential g = F(X) + (K/p) ln(1/r) produces the metric as its
complex Hessian.  Being Kähler-Einstein with Ricci curvature -3 is, for
this potential, the single scalar identity det[g_{ij}] = e^{3g}; the
residual of that identity is the library's primary self-check.
"""

import numpy as np

from tubeke import (
    Point,
    TubeParams,
    einstein_residual,
    metric_jet,
    solve_potential,
)

params = TubeParams(p=2)
sol = solve_potential(params)

# --- the metric at a generic point -------------------------------------

z = Point(-0.3 + 0.8j, 0.7 - 1.1j)
jet = metric_jet(sol, z)
print(f"at z = {z} (X = {jet.x_value:.6f}):")
print("g =")
print(np.array2string(jet.metric, precision=8))
# the jet's det g is the closure value Z(X) / r^{(2p+1)/p}, r = 1 - 4p Re z1;
# the residual below forms det g from the entries of g and checks that closure
print(f"det g          = {jet.det:.10f}")
print(f"g . g^(-1) - I = {np.max(np.abs(jet.metric @ jet.inverse - np.eye(2))):.2e}")
eigs = np.linalg.eigvalsh(jet.metric)
print(f"eigenvalues    = {eigs[0]:.8f}, {eigs[1]:.8f}  (positive definite)")

# --- Einstein identity --------------------------------------------------

print(f"\n|ln det g - 3 g|({z}) = {einstein_residual(sol, z):.2e}")
rng = np.random.default_rng(7)
points = []
for _ in range(200):
    x = rng.uniform(-0.95, 0.95)
    r = rng.uniform(0.3, 2.5)
    points.append(Point(complex((1.0 - r) / (4 * params.p), rng.uniform(-2, 2)),
                        complex(x * r ** (1.0 / (2 * params.p)), rng.uniform(-2, 2))))
# one array pass over the stacked points
worst = einstein_residual(sol, Point.stack(points)).max()
print(f"worst residual over 200 random points: {worst:.2e}")

# --- invariance and translation blindness -------------------------------
# The jet depends only on (r, Re z2): shifting the imaginary parts leaves
# every entry bitwise unchanged.

shifted = Point(z.z1 + 4.5j, z.z2 - 2.25j)
same = np.array_equal(metric_jet(sol, shifted).metric, jet.metric)
print(f"\nimaginary translation leaves g unchanged: {same}")

# Third and fourth derivatives depend only on how many indices are 1:
# the jet keeps one value per count class, and deriv reads any index word.
print(f"deriv(1,2,2) == deriv(2,1,2) == deriv(2,2,1): "
      f"{jet.deriv(1, 2, 2) == jet.deriv(2, 1, 2) == jet.deriv(2, 2, 1)}")
