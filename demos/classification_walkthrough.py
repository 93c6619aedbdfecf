"""
Stratifying cubic surfaces by their singular configurations
===========================================================

The family f(x, theta) = x1 x2 x3 + x1^2 + x2^2 + x3^2
- theta1 x1 - theta2 x2 - theta3 x3 + theta4 degenerates on the
reflection walls of the exponent space.  This walkthrough classifies
one representative per stratum and inspects the worst degeneration.
"""

import numpy as np

from pvi import cubic, params

# One exponent tuple per stratum, built by zeroing wall coordinates and
# solving the affine constraint 2 k0 + k1 + k2 + k3 + k4 = 1 for the rest.
REPRESENTATIVES = [
    (5 / 32, 1 / 4, 1 / 4, 1 / 8, 1 / 16),
    (0.0, 7 / 20, 1 / 10, 3 / 20, 2 / 5),
    (5 / 32, 0.0, 1 / 4, 1 / 8, 5 / 16),
    (5 / 16, 0.0, 0.0, 1 / 8, 1 / 4),
    (7 / 16, 0.0, 0.0, 0.0, 1 / 8),
    (1 / 2, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 1 / 4, 1 / 4, 1 / 2),
    (0.0, 0.0, 0.0, 1 / 2, 1 / 2),
    (0.0, 0.0, 0.0, 0.0, 1.0),
]

# classify_stratum takes the points in closed form, each typed by its
# component of the integral root subsystem (params.reducible_points).
print("stratum table (kappa -> surface degeneration)")
print(f"{'kappa':44s} {'type':7s} {'|I|':>3s} {'singular points':>15s}")
for row in REPRESENTATIVES:
    kappa = params.Exponents(*row)
    label = params.classify_stratum(kappa)
    n_sing = len(label.report.points)
    ktxt = "(" + ", ".join(f"{c:.4g}" for c in row) + ")"
    print(f"{ktxt:44s} {label.dynkin_type:7s} {label.index_set_size:3d} "
          f"{n_sing:15d}")

# The deepest stratum carries a single D4 point.  Its theta values are
# integers, and the singular point sits at the corner (2, 2, 2);
# cubic.singular_points solves for it from theta alone.
kappa = params.Exponents(0.0, 0.0, 0.0, 0.0, 1.0)
theta = params.rh_param(kappa)
report = cubic.singular_points(theta)
print()
print("deepest stratum: theta =", np.round(theta.real, 10))
for pt in report.points:
    print(f"  singular point x = {np.round(pt.x.real, 10)}, "
          f"type {pt.local_type}, Milnor number {pt.milnor}, "
          f"Hessian corank {pt.hessian_corank}")

# Away from every wall the surface is smooth: the lifted discriminant is
# bounded away from zero and no singular points exist.
kappa = params.Exponents(5 / 32, 1 / 4, 1 / 4, 1 / 8, 1 / 16)
a = params.kappa_to_a(kappa)
print()
print(f"generic point: discriminant lift = {cubic.discriminant_lift(a):.6g}, "
      f"on_wall = {params.on_wall(kappa)}")

# Critical points of f off the surface still exist for generic theta;
# the on-surface ones are exactly the singular points.
theta = params.rh_param(kappa)
crit = cubic.critical_points(theta)
print(f"ambient critical points of f: {len(crit)}, "
      f"largest |f| among them = "
      f"{max(abs(cubic.eval_f(c, theta)) for c in crit):.4g}")
