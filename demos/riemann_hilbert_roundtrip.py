"""
From a phase point to its monodromy and back along the flow
===========================================================

A phase point (q, p) over a pole triple t with exponents kappa encodes a
rank-two Fuchsian system.  Numeric transport around the poles produces
its monodromy; trace coordinates land on the cubic surface S(theta).
Moving t along the isomonodromic flow must keep that image fixed.
"""

import numpy as np

from pvi import flow, fuchsian, params

kappa = params.Exponents.from_free(0.21, 0.33, 0.17, 0.11)
pt = fuchsian.PhasePoint.make(0.4 + 0.3j, 0.2 - 0.5j, (0.0, 1.0, 2.0), kappa)

# Monodromy around each finite pole, normalized into SL2.  The traces
# are pinned by kappa alone: 2 cos(pi kappa_i) at the finite poles and
# -2 cos(pi kappa_4) for the loop at infinity.
rep = fuchsian.monodromy(pt)
a = params.kappa_to_a(pt.kappa)
print("normalized traces vs targets")
for i, m in enumerate(rep.matrices):
    tr = np.trace(m)
    print(f"  M{i + 1}: trace = {tr:.12f}, target = {a[i]:.12f}, "
          f"|error| = {abs(tr - a[i]):.3g}")
print(f"product defect |M4 M3 M2 M1 - I| = {rep.product_defect():.3g}")

# q is an apparent singularity: the equation has a pole there, but the
# exponents are 0 and 2 and the Frobenius series has no logarithm, so
# the loop around q is trivial.  The check is the relative m = 2
# obstruction |p^2 - a0 p + b0| of the series, with no integration.
print(f"apparency |p^2 - a0 p + b0| (relative) = {fuchsian.apparent_check(pt):.3g}")

# The pair traces are a point on the cubic surface with theta from kappa.
sp = fuchsian.rh_point(pt)
print()
print("surface coordinates x =", np.round(sp.x, 10))
print(f"cubic residual |f(x, theta)| = {sp.residual:.3g}")

# Isomonodromy: integrate the Hamiltonian flow while the third pole
# moves by 0.5; the monodromy image must not drift.
path = flow.TimePath.line((0.0, 1.0, 2.0), (0.0, 1.0, 2.5))
traj = flow.integrate(pt, path)
end = traj.end()
sp_end = fuchsian.rh_point(end)
print()
print(f"flow endpoint: q = {end.q:.10f}, p = {end.p:.10f}")
print(f"x drift along the flow = {max(abs(sp_end.x - sp.x)):.3g}")

# With poles held at (0, 1, x) the flow in x satisfies the scalar
# second-order equation for q(x); the quadrature-consistency residual
# certifies every recorded interval.
pt2 = fuchsian.PhasePoint.make(pt.q, pt.p, (0.0, 1.0, 2.0 + 0.1j), kappa)
path2 = flow.TimePath.line(pt2.t, (0.0, 1.0, 3.0 + 0.1j))
traj2 = flow.integrate(pt2, path2)
res = flow.pvi_residual(traj2)
print(f"scalar-equation residual along a desk-scale run = {max(res):.3g}")
