"""Numeric Riemann-Hilbert map via second-order Fuchsian equations.

A phase point (q, p, t; kappa) determines the unique Fuchsian equation

    f'' - v1(z) f' + v2(z) f = 0,
    v1 = 1/(z-q) + sum_i (kappa_i - 1)/(z - t_i),
    v2 = p/(z-q) + sum_i H_i/(z - t_i),

with regular singular points t1, t2, t3, infinity and an apparent one at
q.  Transporting the companion system around loops gives the monodromy
matrices; after scalar normalization to SL2 their traces are the local
data a and the surface coordinates x, landing on the Fricke cubic.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass

import numpy as np

from . import cubic, params
from .rk import adaptive_rk


# Cap on the attempted steps of one leg, a tail or a whole circle.  The longest
# legs of the test suite and of the benchmark's rh inputs take 724 and 571
# steps, so a leg that reaches the cap has stalled; it fails in about a second.
_LEG_MAX_STEPS = 15_000


class PoleClearanceError(ValueError):
    """A transport path passes closer to a pole than the clearance."""


def _min_gap(points):
    """Smallest pairwise distance between the points; inf for fewer than two.

    points is an array or a sequence of Python scalars.
    """
    if isinstance(points, np.ndarray):
        points = points.tolist()
    return min(
        (abs(a - b) for a, b in itertools.combinations(points, 2)),
        default=float("inf"),
    )


def _clearance(poles):
    """Distance a transport path keeps from every pole: 0.05 of the minimal gap."""
    gap = _min_gap(poles)
    return 0.05 * gap if np.isfinite(gap) else 0.0


@dataclass(frozen=True)
class PhasePoint:
    """Canonical coordinates (q, p, t1, t2, t3) with exponent data."""

    q: complex
    p: complex
    t: np.ndarray
    kappa: params.Exponents

    @classmethod
    def make(cls, q, p, t, kappa):
        q = complex(q)
        p = complex(p)
        t = np.asarray(t, dtype=complex)
        if t.shape != (3,):
            raise ValueError("t must have three components")
        if not isinstance(kappa, params.Exponents):
            kappa = params.Exponents(*np.asarray(kappa, dtype=complex))
        if _min_gap(t) == 0:
            raise ValueError("t components must be pairwise distinct")
        if min(abs(q - ti) for ti in t) == 0:
            raise ValueError("q must avoid t1, t2, t3")
        return cls(q, p, t, kappa)

    def poles(self):
        """The four finite singular points t1, t2, t3, q."""
        return np.array([self.t[0], self.t[1], self.t[2], self.q])


def hamiltonian(i, pt):
    """H_i(q, p, t; kappa), polynomial in (q, p)."""
    if i not in (1, 2, 3):
        raise ValueError("Hamiltonian index must be 1, 2 or 3")
    return _hamiltonian(i - 1, pt.q, pt.p, pt.t, pt.kappa)


def _hamiltonian(i0, q, p, t, kappa):
    """H_{i0+1} at scalars, or elementwise at sample arrays.

    q and p are scalars or arrays of one shape; t is (t1, t2, t3), whose
    entries are scalars or arrays of that shape.
    """
    j0, k0 = (i0 + 1) % 3, (i0 + 2) % 3
    kk = (kappa.k1, kappa.k2, kappa.k3)
    qi = q - t[i0]
    qj = q - t[j0]
    qk = q - t[k0]
    tij = t[i0] - t[j0]
    tik = t[i0] - t[k0]
    num = (
        qi * qj * qk * p**2
        - ((kk[i0] - 1) * qj * qk + kk[j0] * qk * qi + kk[k0] * qi * qj) * p
        + kappa.k0 * (kappa.k0 + kappa.k4) * qi
    )
    return num / (tij * tik)


@dataclass(frozen=True)
class FuchsianEquation:
    """Partial-fraction data of (v1, v2) over the poles (t1, t2, t3, q)."""

    poles: np.ndarray
    v1_residues: np.ndarray
    v2_residues: np.ndarray

    def indicial_roots(self, pole_index):
        """Local exponents {0, 1 + res(v1)} at the given finite pole."""
        return 0.0 + 0.0j, 1.0 + self.v1_residues[pole_index]


def build_equation(pt):
    """The Fuchsian equation attached to a phase point.

    The v1 residues are kappa_i - 1 at t_i and 1 at q.  The v2 residues at
    the t_i are minus the Hamiltonians, and p at q: the sign is pinned by
    regularity at infinity, which demands that the v2 residues sum to zero
    and that the first moment q p - sum_i t_i H_i equal the product
    kappa0 (kappa0 + kappa4) of the exponents at infinity.  Both identities
    hold exactly for the H_i returned by hamiltonian (whose sign convention
    is the one the flow equations use) and make useful independent checks.
    A point whose H_i overflow raises ValueError.
    """
    k = pt.kappa
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            h = [hamiltonian(i, pt) for i in (1, 2, 3)]
    except (OverflowError, FloatingPointError):  # OverflowError: p**2 of a complex
        raise ValueError(f"the Hamiltonians H_i overflow at q = {pt.q}, p = {pt.p}, "
                         f"t = {tuple(pt.t.tolist())}") from None
    return FuchsianEquation(
        poles=pt.poles(),
        v1_residues=np.array([k.k1 - 1.0, k.k2 - 1.0, k.k3 - 1.0, 1.0]),
        v2_residues=np.array([-h[0], -h[1], -h[2], pt.p]),
    )


def _segment_pole_distance(z0, z1, c):
    """Distance from pole c to the segment [z0, z1]."""
    d = z1 - z0
    if d == 0:
        return abs(c - z0)
    s = min(1.0, max(0.0, ((c - z0) / d).real))
    return abs(c - (z0 + s * d))


def transport(eq, path):
    """Transfer matrix of the companion system along a polyline.

    Returns T with (f, f')(end) = T (f, f')(start).  A path that comes
    closer to a pole than 0.05 times the minimal pole gap raises
    PoleClearanceError.  Each segment is one leg of _transport_leg.
    """
    path = np.asarray(path, dtype=complex)
    if path.ndim != 1 or len(path) < 1:
        raise ValueError("path must be a nonempty sequence of points")
    clearance = _clearance(eq.poles)
    for z0, z1 in zip(path[:-1], path[1:]):
        for c in eq.poles:
            if _segment_pole_distance(z0, z1, c) < clearance:
                raise PoleClearanceError(f"pole clearance violated near {c:.6g}")

    T = np.eye(2, dtype=complex)
    for z0, z1 in zip(path[:-1].tolist(), path[1:].tolist()):
        seg = z1 - z0
        if seg != 0.0:
            T = _transport_leg(eq, T, lambda s, z0=z0, seg=seg: (z0 + s * seg, seg))
    return T


def _transport_leg(eq, T, leg):
    """T carried along one leg, where leg(s) = (z(s), dz/ds) for 0 <= s <= 1.

    The first step is at most 0.25 |z(0) - c| / |dz/ds(0)| for the nearest
    pole c; the error estimate sets every later step.  A leg that needs
    more than _LEG_MAX_STEPS steps raises StepUnderflowError.
    """
    poles = eq.poles.tolist()
    residues = list(zip(poles, eq.v1_residues.tolist(), eq.v2_residues.tolist()))

    def rhs(s, y):
        # companion system on the flattened fundamental matrix
        # y = (f_1, f_2, f_1', f_2'), with v1 = a and v2 = b at z
        z, dz = leg(s)
        a = b = 0.0
        for c, r1, r2 in residues:
            w = 1.0 / (z - c)
            a += r1 * w
            b += r2 * w
        f1, f2, g1, g2 = y.tolist()
        return np.array([dz * g1, dz * g2, dz * (a * g1 - b * f1), dz * (a * g2 - b * f2)])

    z0, dz0 = leg(0.0)
    first_step = max(1e-12, 0.25 / abs(dz0) * min(abs(z0 - c) for c in poles))
    y = adaptive_rk(rhs, T.reshape(4), 0.0, 1.0, first_step=first_step,
                    max_steps=_LEG_MAX_STEPS)
    return y.reshape(2, 2)


def _auto_basepoint(poles):
    """A basepoint north of the poles with pole-free straight tails.

    Placing the basepoint above the cluster makes the anticlockwise loops
    compose so that the transport of a large boundary circle equals
    M3 M2 M1, which is the arrangement behind the product identity
    M4 M3 M2 M1 = I (checked against an explicitly integrated big circle).
    """
    clearance = _clearance(poles)
    center = np.mean(poles)
    span = max(1.0, max(abs(c - center) for c in poles) * 2.0)
    for trial in range(24):
        bp = center + span * (0.1371 + 0.31 * trial) + 1.8j * span
        if all(
            _segment_pole_distance(bp, c, other) >= clearance
            for c in poles
            for other in poles
            if other != c
        ):
            return bp
    raise PoleClearanceError("no pole-free basepoint found")


@dataclass(frozen=True)
class MonodromyRep:
    """SL2-normalized monodromy quadruple with M4 M3 M2 M1 = I."""

    matrices: tuple
    basepoint: complex

    def product_defect(self):
        m4, m3, m2, m1 = (self.matrices[i] for i in (3, 2, 1, 0))
        return float(np.linalg.norm(m4 @ m3 @ m2 @ m1 - np.eye(2)))

    def traces(self):
        return np.array([np.trace(m) for m in self.matrices])

    def surface_coordinates(self):
        m1, m2, m3, _ = self.matrices
        return np.array(
            [np.trace(m2 @ m3), np.trace(m3 @ m1), np.trace(m1 @ m2)]
        )

    def surface_point(self, kappa):
        """x = surface_coordinates() on the cubic of theta = rh_param(kappa).

        The returned SurfacePoint carries |f(x, theta)| as residual.
        """
        return cubic.SurfacePoint.make(
            self.surface_coordinates(), params.rh_param(kappa)
        )


def _loop_transport(eq, pole_index, basepoint):
    """Transfer matrix of the anticlockwise loop around the pole c.

    The loop runs out along a straight tail from the basepoint, once around
    the circle z(s) = c + r e^{i(phi0 + 2 pi s)}, one leg with dz/ds =
    2 pi i (z - c), and back along the tail reversed, which inverts the way
    out: T = T_tail^-1 C T_tail.  r is 0.3 times the distance from c to the
    nearest other pole, so the loop encloses exactly its own pole.
    """
    poles = eq.poles.tolist()
    c = poles[pole_index]
    r = 0.3 * min(abs(c - other) for i, other in enumerate(poles) if i != pole_index)
    phi0 = cmath.phase(basepoint - c)

    def circle(s):
        z = c + cmath.rect(r, phi0 + 2.0 * cmath.pi * s)
        return z, 2j * cmath.pi * (z - c)

    tail = transport(eq, [basepoint, circle(0.0)[0]])
    C = _transport_leg(eq, np.eye(2, dtype=complex), circle)
    return np.linalg.solve(tail, C @ tail)


def monodromy(pt, basepoint=None):
    """Normalized monodromy of the Fuchsian equation of a phase point.

    Raw transports around t1, t2, t3 have determinant e^{2 pi i kappa_i};
    the scalar factor e^{-i pi kappa_i} moves them into SL2 with trace
    2 cos(pi kappa_i).  The matrix at infinity is realized as the inverse
    of the raw product M3 M2 M1 and carries the extra sign forced by the
    Fuchs relation, reproducing the trace -2 cos(pi kappa_4).
    """
    eq = build_equation(pt)
    if basepoint is None:
        basepoint = _auto_basepoint(eq.poles)
    k = pt.kappa
    raw = [_loop_transport(eq, i, basepoint) for i in range(3)]
    raw4 = np.linalg.inv(raw[2] @ raw[1] @ raw[0])
    kk = (k.k1, k.k2, k.k3)
    normalized = [np.exp(-1j * np.pi * kk[i]) * raw[i] for i in range(3)]
    normalized.append(-np.exp(-1j * np.pi * (2 * k.k0 + k.k4)) * raw4)
    return MonodromyRep(tuple(normalized), basepoint)


def apparent_check(pt):
    """Relative Frobenius obstruction to q being an apparent singular point.

    Near q, v1 = 1/(z-q) + a0 + ... and v2 = p/(z-q) + b0 + ..., where a0
    and b0 sum the residues at t1, t2, t3 over q - t_i.  The exponents at q
    are 0 and 2: the series solution with c0 = 1 has c1 = p, and at m = 2
    its recurrence reads 0 c2 = p (a0 - p) - b0.  So q is apparent exactly
    when p^2 - a0 p + b0 = 0, as the H_i in b0 ensure.  Returns its modulus
    over max(1, |p|^2, |a0 p|, |b0|), so rounding reads ~1e-16 at any scale.
    """
    eq, q, p = build_equation(pt), pt.q, pt.p
    a0 = sum(r / (q - c) for c, r in zip(eq.poles.tolist(), eq.v1_residues[:3].tolist()))
    b0 = sum(r / (q - c) for c, r in zip(eq.poles.tolist(), eq.v2_residues[:3].tolist()))
    return abs(p * p - a0 * p + b0) / max(1.0, abs(p * p), abs(a0 * p), abs(b0))


def rh_point(pt):
    """The Riemann-Hilbert image of a phase point on its cubic surface.

    x_i = Tr(M_j M_k) for (i,j,k) cyclic, theta = rh_param(kappa); the
    returned SurfacePoint carries |f(x, theta)| as residual.
    """
    return monodromy(pt).surface_point(pt.kappa)
