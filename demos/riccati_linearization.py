"""
The Riccati locus and its hypergeometric-type linearization
===========================================================

On the wall kappa0 = 0 the plane p = 0 is invariant under the flow and
the q-equation closes as a Riccati equation, so the whole dynamics
linearizes through a first-order linear system.  The monodromy image
of the locus is pinned at a singular point of the cubic surface.
"""

import numpy as np

from pvi import cubic, flow, fuchsian, params

# kappa0 = 0 with generic remaining components (affine constraint holds).
kappa = params.Exponents.from_free(0.23, 0.31, 0.17, 0.29)
assert abs(kappa.k0) < 1e-15
pt = fuchsian.PhasePoint.make(0.4 + 0.3j, 0.0, (0.0, 1.0, 2.0), kappa)

path = flow.TimePath.line((0.0, 1.0, 2.0), (0.0, 1.0, 2.5 + 0.3j))
traj, report = flow.riccati_flow(pt, path)

# Locus invariance: p stays pinned at zero along the full Hamiltonian
# integration, not just in the reduced equation.
print(f"max |p| along the flow = {report.max_p:.3g}")

# The reduced equation dq/dt_i = a_i q^2 + b_i q + c_i is exactly
# quadratic; the defect compares it with the full vector field at p = 0.
print(f"quadratic closure defect = {report.quadratic_defect:.3g}")
print("Riccati coefficients (a_i, b_i, c_i) per pole direction:")
for i, (ai, bi, ci) in enumerate(report.coefficients):
    print(f"  t{i + 1}: a = {ai:.6f}, b = {bi:.6f}, c = {ci:.6f}")

# q = y1/y2 turns the Riccati equation into the linear system
# (y1, y2)' = [[b, c], [-a, 0]] (y1, y2); y2 is the Y of the second-order
# form q = -Y'/(a Y).  The deviation tracks both integrations.
print("linearization deviation |q + Y'/(a Y)| ="
      f" {report.max_linearization_deviation:.3g}")

# The monodromy image of the locus is not a generic surface point: it
# sits on the singular set of S(theta).
theta = params.rh_param(kappa)
sing = cubic.singular_points(theta)
sp = fuchsian.rh_point(traj.end())
dist = min(max(abs(sp.x - s.x)) for s in sing.points)
print()
print(f"surface image x = {np.round(sp.x, 8)}")
print(f"distance to nearest singular point of S(theta) = {dist:.3g}")
