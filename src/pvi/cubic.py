"""The family of affine cubic surfaces carrying SL2 trace coordinates.

S(theta) is the zero locus of the Fricke polynomial

    f(x, theta) = x1 x2 x3 + x1^2 + x2^2 + x3^2
                  - th1 x1 - th2 x2 - th3 x3 + th4,

the single relation satisfied by the trace coordinates of a four-point
SL2(C) representation.  This module evaluates f, its gradient and Hessian,
the Poincare residue two-form on the smooth locus, the lifted discriminant
factors, and the singular points of S(theta) together with their ADE types
(at most four rational double points, total Milnor number at most 4).
"""

from __future__ import annotations

import cmath
import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)


class SingularPointError(ValueError):
    """Operation requested at (or too close to) a singular surface point."""


class NoConvergenceError(RuntimeError):
    """Singular-point refinement failed to converge."""


def _theta_array(theta):
    arr = np.asarray(theta, dtype=complex)
    if arr.shape != (4,):
        raise ValueError("theta must have four components")
    return arr


def _x_array(x):
    arr = np.asarray(x, dtype=complex)
    if arr.shape != (3,):
        raise ValueError("x must have three components")
    return arr


def eval_f(x, theta):
    """Evaluate the Fricke cubic at x, as a Python complex.

    Squares are products: Python's complex ** raises OverflowError where
    a product overflows to inf, and the bits are numpy's either way.
    """
    x1, x2, x3 = _x_array(x).tolist()
    t1, t2, t3, t4 = _theta_array(theta).tolist()
    return x1 * x2 * x3 + x1 * x1 + x2 * x2 + x3 * x3 - t1 * x1 - t2 * x2 - t3 * x3 + t4


def grad_f(x, theta):
    """Gradient of f with respect to x."""
    x1, x2, x3 = _x_array(x)
    t1, t2, t3, _ = _theta_array(theta)
    return np.array(
        [x2 * x3 + 2 * x1 - t1, x3 * x1 + 2 * x2 - t2, x1 * x2 + 2 * x3 - t3]
    )


def hessian_f(x):
    """Hessian of f (independent of theta)."""
    x1, x2, x3 = _x_array(x)
    return np.array([[2, x3, x2], [x3, 2, x1], [x2, x1, 2]], dtype=complex)


@dataclass(frozen=True)
class SurfacePoint:
    """A point of C^3 together with its theta and the defect |f(x,theta)|."""

    x: np.ndarray
    theta: np.ndarray
    residual: float

    @classmethod
    def make(cls, x, theta):
        x = _x_array(x)
        theta = _theta_array(theta)
        return cls(x, theta, float(abs(eval_f(x, theta))))


def residue_form(point, u, v):
    """Poincare residue two-form omega(u, v) at a smooth surface point.

    omega = dx_i ^ dx_j / (df/dx_k) for cyclic (i,j,k); the three cyclic
    expressions agree on tangent vectors, so the partial of largest modulus
    is used as denominator.  Raises SingularPointError when all three
    partials vanish to tolerance.
    """
    u = _x_array(u)
    v = _x_array(v)
    g = grad_f(point.x, point.theta)
    scale = max(1.0, float(np.max(np.abs(point.x))) ** 2, float(np.max(np.abs(point.theta))))
    k = int(np.argmax(np.abs(g)))
    if abs(g[k]) < 1e-12 * scale:
        raise SingularPointError("all partials vanish: singular point")
    i, j = (k + 1) % 3, (k + 2) % 3
    return (u[i] * v[j] - u[j] * v[i]) / g[k]


_SIGNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def fricke_w(a):
    """The degree-four trace polynomial w(a) entering the discriminant.

    Product of (e1 a1 + e2 a2 + e3 a3 + a4) over sign triples with
    e1 e2 e3 = 1, minus the product of (a_i a_4 - a_j a_k) over cyclic
    (i,j,k).
    """
    a1, a2, a3, a4 = np.asarray(a, dtype=complex)
    first = np.prod([e1 * a1 + e2 * a2 + e3 * a3 + a4 for e1, e2, e3 in _SIGNS])
    second = (a1 * a4 - a2 * a3) * (a2 * a4 - a3 * a1) * (a3 * a4 - a1 * a2)
    return first - second


def discriminant_lift(a):
    """Lift of the cubic-surface discriminant: w(a)^2 * prod_i (a_i^2 - 4)."""
    a = np.asarray(a, dtype=complex)
    return fricke_w(a) ** 2 * np.prod(a**2 - 4.0)


@dataclass(frozen=True)
class SingularPoint:
    x: np.ndarray
    local_type: str  # A1 | A2 | A3 | D4
    milnor: int
    hessian_corank: int


@dataclass(frozen=True)
class SingularPointReport:
    theta: np.ndarray
    points: tuple

    def __bool__(self):
        return bool(self.points)


def _cluster_roots(roots, radius):
    """Merge root clusters of a polynomial to their centroids.

    Multiple roots split symmetrically under rounding, so the centroid of a
    cluster is far more accurate than any member.
    """
    roots = list(roots)
    used = [False] * len(roots)
    merged = []
    for i, r in enumerate(roots):
        if used[i]:
            continue
        cluster = [r]
        used[i] = True
        for j in range(i + 1, len(roots)):
            if not used[j] and abs(roots[j] - r) < radius:
                cluster.append(roots[j])
                used[j] = True
        merged.append(sum(cluster) / len(cluster))
    return merged


def _solve_quadratic(a, b, c):
    """Roots of a z^2 + b z + c with a double root snapped to -b/(2a)."""
    disc = b * b - 4 * a * c
    scale = max(abs(a), abs(b), abs(c), 1.0)
    if abs(disc) < 1e-12 * scale**2:
        return [-b / (2 * a)]
    sq = np.sqrt(disc)
    # stable variant: avoid cancellation in the smaller root
    if abs(-b + sq) > abs(-b - sq):
        z1 = (-b + sq) / (2 * a)
    else:
        z1 = (-b - sq) / (2 * a)
    return [z1, c / (a * z1)]


def _special_branch(theta, slot):
    """Critical-point candidates with x_slot = ±2.

    f is invariant under cyclic relabeling of (x, theta[:3]) together, so
    the slot is rotated into the third position, where fixing x3 = t and
    eliminating x1 = (th1 - x2 t)/2 reduces grad_f = 0 to the quadratic
    -t x2^2 + th1 x2 + 4 t - 2 th3 = 0.  These are the lines where the
    quintic elimination of _critical_candidates cannot solve for x2.  A
    corank-2 (D4) point has every coordinate equal to ±2, since all 2x2
    minors of its Hessian vanish, including the diagonal ones 4 - x_k^2;
    there the quadratic has a double root, which the snap in the solver
    recovers exactly.  A corank-1 point need not lie on these lines: the
    A2 point (0, √2, √2) of theta = (2, 2√2, 2√2, 4) comes from the quintic.
    """
    shift = (slot - 2) % 3
    t1, t2, t3 = (theta[(i + shift) % 3] for i in range(3))
    out = []
    for t in (2.0 + 0.0j, -2.0 + 0.0j):
        for x2 in _solve_quadratic(-t, t1, 4.0 * t - 2.0 * t3):
            rot = [(t1 - x2 * t) / 2.0, x2, t]
            x = np.empty(3, dtype=complex)
            for i in range(3):
                x[(i + shift) % 3] = rot[i]
            out.append(x)
    return out


def _critical_candidates(theta):
    """Candidate solutions of grad_f = 0 by elimination.

    From df/dx1 = 0, x1 = (th1 - x2 x3)/2.  Substituting into the other two
    components gives P = x2 (4 - x3^2) + th1 x3 - 2 th2 = 0 (linear in x2)
    and Q = -x3 x2^2 + th1 x2 + 4 x3 - 2 th3 = 0.  Eliminating x2 yields a
    quintic in x3 with constant leading coefficient 4; the branches x_k = ±2,
    where the linear solve degenerates, are searched separately in every
    coordinate slot.  A degenerate critical point off those lines is a
    multiple root of the quintic; its split roots are merged to their
    centroid.  Special-branch candidates come first: their double roots are
    snapped exactly, and deduplication keeps the first member of a cluster.
    """
    t1, t2, t3, _ = theta
    candidates = []
    for slot in range(3):
        candidates.extend(_special_branch(theta, slot))
    poly = np.array(
        [
            4.0,
            -2.0 * t3,
            -32.0,
            2.0 * t1 * t2 + 16.0 * t3,
            64.0 - 4.0 * t1**2 - 4.0 * t2**2,
            8.0 * t1 * t2 - 32.0 * t3,
        ],
        dtype=complex,
    )
    scale = max(1.0, float(np.max(np.abs(theta))))
    # multiple roots split by as much as eps^(1/4); centroids of merged
    # clusters are first-order accurate
    x3_roots = _cluster_roots(np.roots(poly), 3e-3 * max(1.0, scale**0.25))
    for x3 in x3_roots:
        denom = 4.0 - x3 * x3
        if abs(denom) < 1e-6 * scale:
            continue  # covered by the special branch
        x2 = (2.0 * t2 - t1 * x3) / denom
        x1 = (t1 - x2 * x3) / 2.0
        candidates.append(np.array([x1, x2, x3]))
    return candidates


def _defect(x, theta):
    return max(float(np.max(np.abs(grad_f(x, theta)))), float(abs(eval_f(x, theta))))


_NEWTON_STEPS = 40


def _conditioning(x1, x2, x3):
    """Cofactors and determinant of the Hessian at x, and a lower bound on
    sigma_min / sigma_max.

    H = [[2, x3, x2], [x3, 2, x1], [x2, x1, 2]] is symmetric, so its
    adjugate is its cofactor matrix.  |det H| = s1 s2 s3 <= s1^2 s3 and
    s1 <= ||H||_F with ||H||_F^2 = 12 + 2 sum |x_i|^2, so the bound is
    |det H| / ||H||_F^3.  It is formed from squares, which overflow to inf
    (and the bound to nan) instead of raising.
    """
    c11 = 4 - x1 * x1
    c22 = 4 - x2 * x2
    c33 = 4 - x3 * x3
    c12 = x1 * x2 - 2 * x3
    c13 = x3 * x1 - 2 * x2
    c23 = x2 * x3 - 2 * x1
    det = 2 * c11 + x3 * c12 + x2 * c13
    frob2 = 12 + 2 * sum(v.real * v.real + v.imag * v.imag for v in (x1, x2, x3))
    bound2 = (det.real * det.real + det.imag * det.imag) / (frob2 * frob2 * frob2)
    return (c11, c22, c33, c12, c13, c23), det, bound2**0.5


def _newton_well_conditioned(x, theta):
    """Newton on grad_f = 0 by the adjugate of the Hessian, in Python scalars.

    While the conditioning bound exceeds 1e-6, lstsq's rcond=1e-9 cutoff in
    _refine_gradient cannot truncate, so both solve the same linear system
    with the same stopping rule.  Returns None when the bound falls to 1e-6
    or below, a step is not finite, or _NEWTON_STEPS pass; the caller then
    restarts the candidate on _refine_gradient, which keeps the rounding
    that degenerate roots have always had.
    """
    x1, x2, x3 = (complex(v) for v in x)
    t1, t2, t3 = (complex(v) for v in theta[:3])
    for _ in range(_NEWTON_STEPS):
        (c11, c22, c33, c12, c13, c23), det, bound = _conditioning(x1, x2, x3)
        if not bound > 1e-6:
            return None
        g1 = x2 * x3 + 2 * x1 - t1
        g2 = x3 * x1 + 2 * x2 - t2
        g3 = x1 * x2 + 2 * x3 - t3
        s1 = -(c11 * g1 + c12 * g2 + c13 * g3) / det
        s2 = -(c12 * g1 + c22 * g2 + c23 * g3) / det
        s3 = -(c13 * g1 + c23 * g2 + c33 * g3) / det
        if not (cmath.isfinite(s1) and cmath.isfinite(s2) and cmath.isfinite(s3)):
            return None
        x1, x2, x3 = x1 + s1, x2 + s2, x3 + s3
        if max(abs(s1), abs(s2), abs(s3)) < 1e-14 * max(1.0, abs(x1), abs(x2), abs(x3)):
            return np.array([x1, x2, x3])
    return None


def _refine_gradient(x, theta):
    """Newton iteration on grad_f = 0 by lstsq.

    Critical points of a generic surface do not lie on the surface, so f
    itself is no equation here.  lstsq runs with a singular-value cutoff so
    that near a degenerate root the kernel direction receives no
    noise-amplified update; the kernel component of the error is whatever
    the candidate generator achieved, and _kernel_polish repairs it
    afterwards.
    """
    x1, x2, x3 = (complex(v) for v in x)
    t1, t2, t3 = (complex(v) for v in theta[:3])
    for _ in range(_NEWTON_STEPS):
        g = np.array([x2 * x3 + 2 * x1 - t1, x3 * x1 + 2 * x2 - t2, x1 * x2 + 2 * x3 - t3])
        if not np.all(np.isfinite(g)):
            raise NoConvergenceError("refinement diverged")
        H = np.array([[2, x3, x2], [x3, 2, x1], [x2, x1, 2]], dtype=complex)
        step, *_ = np.linalg.lstsq(H, -g, rcond=1e-9)
        if not np.all(np.isfinite(step)):
            raise NoConvergenceError("refinement produced non-finite step")
        s1, s2, s3 = step.tolist()
        x1, x2, x3 = x1 + s1, x2 + s2, x3 + s3
        if max(abs(s1), abs(s2), abs(s3)) < 1e-14 * max(1.0, abs(x1), abs(x2), abs(x3)):
            break
    return np.array([x1, x2, x3])


def _kernel_polish(x, theta):
    """Newton along the Hessian kernel line using the exact cubic Taylor.

    f is a cubic, so along x + s v the kernel component of the gradient is
    exactly quadratic in s:

        v . grad_f(x + s v) = (v.g) + s (v^T H v) + s^2 (3 v1 v2 v3).

    Solving that quadratic with the double-root snap recovers the kernel
    coordinate of a degenerate critical point to machine accuracy, where
    residual-driven iterations stall near sqrt(eps).  A step is kept unless
    it raises the defect by more than rounding: a stalled end point can
    read a defect of exactly 0 while the exact root reads a few ulps.
    """
    for _ in range(3):
        if _conditioning(*(complex(v) for v in x))[2] > 1e-5:
            break  # proves sv[2] > 1e-5 sv[0] below, without the SVD
        H = hessian_f(x)
        _, sv, vh = np.linalg.svd(H)
        if sv[2] > 1e-5 * sv[0]:
            break  # no near-kernel direction: nothing to polish
        v = vh[2].conj()
        g = grad_f(x, theta)
        alpha = 3.0 * v[0] * v[1] * v[2]
        beta = v @ H @ v
        gamma = v @ g
        if abs(alpha) < 1e-12:
            if abs(beta) < 1e-12:
                break
            s = -gamma / beta
        else:
            s = min(_solve_quadratic(alpha, beta, gamma), key=abs)
        if not np.isfinite(s) or abs(s) > 1.0:
            break  # not in the basin of a degenerate root
        xn = x + s * v
        ulps = 1e-15 * max(1.0, float(np.max(np.abs(theta))), float(np.max(np.abs(x))) ** 3)
        if _defect(xn, theta) <= _defect(x, theta) + ulps:
            x = xn
        else:
            break
        if abs(s) < 1e-14:
            break
    return x


#: Milnor number and Hessian corank of each ADE type of a singular point.
ADE = {"A1": (1, 0), "A2": (2, 1), "A3": (3, 1), "D4": (4, 2)}


def _local_type(x):
    """ADE type from the Hessian rank, with A2/A3 split on the kernel line.

    The only cubic monomial of f is x1 x2 x3, so f restricted to the line
    x + s*v is exactly quadratic + (v1 v2 v3) s^3; at a rank-2 point the
    kernel coefficient v1 v2 v3 decides A2 (nonzero) against A3 (zero).
    Total Milnor number is at most 4, which closes the case analysis.
    """
    H = hessian_f(x)
    _, sv, vh = np.linalg.svd(H)
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    if rank == 3:
        return "A1"
    if rank == 2:
        v = vh[2].conj()  # right singular vector spanning the kernel
        return "A2" if abs(v[0] * v[1] * v[2]) > 1e-6 else "A3"
    if rank == 1:
        return "D4"
    raise NoConvergenceError("Hessian rank 0 is impossible for this family")


def critical_points(theta, counts=None):
    """All solutions of grad_f = 0 (on or off the surface), deduplicated.

    Each candidate is refined by the closed-form Newton iteration; one that
    meets a badly conditioned Hessian restarts from its start point on
    lstsq.  A dict passed as counts receives the number of candidates and
    of those restarts.
    """
    theta = _theta_array(theta)
    scale = max(1.0, float(np.max(np.abs(theta))))
    candidates = _critical_candidates(theta)
    restarts = 0
    accepted = []
    for cand in candidates:
        x = _newton_well_conditioned(cand, theta)
        if x is None:
            restarts += 1
            try:
                x = _refine_gradient(cand, theta)
            except NoConvergenceError:
                continue  # spurious candidate ran away; legitimate roots remain
        x = _kernel_polish(x, theta)
        xscale = max(1.0, float(np.max(np.abs(x))) ** 2, scale)
        if float(np.max(np.abs(grad_f(x, theta)))) > 1e-7 * xscale:
            continue
        accepted.append(x)
    if counts is not None:
        counts.update(candidates=len(candidates), restarts=restarts)
    return _merge_close(accepted, theta, 1e-6)


def _merge_close(points, theta, radius):
    """Deduplicate, keeping the lowest-defect representative of a cluster.

    Endpoints stalled along a degenerate direction of the same root carry a
    strictly larger defect than a snapped representative, so defect ranking
    selects the accurate one.
    """
    kept = []
    for x in points:
        d = _defect(x, theta)
        for i, (y, dy) in enumerate(kept):
            if np.max(np.abs(x - y)) < radius:
                if d < dy:
                    kept[i] = (x, d)
                break
        else:
            kept.append((x, d))
    return [x for x, _ in kept]


#: checked_theta's bound on max|theta_i|: on kappa on A1, 2A1 and 3A1 walls
#: with growing imaginary parts, the first wrong stratum came at 1.7e8.
_THETA_BOUND = 1e6


def checked_theta(theta):
    """theta as an array; ValueError when max|theta_i| > _THETA_BOUND or not finite."""
    theta = _theta_array(theta)
    if not float(np.max(np.abs(theta))) <= _THETA_BOUND:
        entries = ", ".join(f"{complex(z):.3g}" for z in theta)
        raise ValueError(f"theta ({entries}) is out of range: singular points are "
                         f"computed for max|theta_i| <= {_THETA_BOUND:.0e}")
    return theta


def singular_points(theta):
    """Singular points of S(theta) with local ADE data.

    theta must pass checked_theta.  Critical points of f (elimination plus
    one Newton pass on grad_f = 0 per root) with |f| <= 1e-7 max(1,
    max|theta_i|) lie on the surface.  They are merged once at distance
    1e-4, as stalled endpoints of one degenerate root can sit ~eps^(1/3)
    apart, and typed by their Hessian (_local_type).  More than 4 points or
    a total Milnor number above 4 raises NoConvergenceError.  The |f| band is
    wider than rounding: theta = rh_param(kappa) shows a node up to a few
    1e-3 (5.9e-3 measured) from a wall; params.reducible_points has none.
    """
    theta = checked_theta(theta)
    scale = max(1.0, float(np.max(np.abs(theta))))
    counts = {}
    on_surface = [
        x for x in critical_points(theta, counts)
        if abs(eval_f(x, theta)) <= 1e-8 * scale * 10.0
    ]
    merged = _merge_close(on_surface, theta, 1e-4)
    points = [SingularPoint(x, t, *ADE[t]) for x, t in zip(merged, map(_local_type, merged))]
    report = SingularPointReport(theta, tuple(sorted(points, key=lambda p: tuple(p.x.real))))
    log.debug(
        "singular_points: %d candidates, %d closed-form, %d lstsq restarts, %d kept",
        counts["candidates"], counts["candidates"] - counts["restarts"],
        counts["restarts"], len(report.points),
    )
    if len(report.points) > 4 or sum(p.milnor for p in report.points) > 4:
        raise NoConvergenceError(
            "more singular structure than the family admits; refinement "
            "likely failed for this theta"
        )
    return report
