"""Hamiltonian dynamics of Painleve VI in canonical coordinates.

The flow moves a phase point (q, p) as the pole triple (t1, t2, t3) travels
along a path, with one Hamiltonian per pole position.  This module
integrates that system along polyline time paths, realizes pure braids as
concrete closed loops (the nonlinear monodromy), evaluates the scalar
second-order residual in the (0, 1, x) chart, and handles the Riccati
invariant locus together with its second-order linearization.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from . import fuchsian, modular, params, rk

log = logging.getLogger(__name__)

#: Letter -> pair of t-indices braided by that letter (third one is fixed).
_BRAID_PAIRS = {1: (0, 1), 2: (1, 2), 3: (2, 0)}

#: Chords of the polyline half-turn of one braid letter.
_BRAID_CHORDS = 16

#: The flow raises BlowUpError when q comes closer to a pole than this
#: fraction of the path scale, or when |q| or |p| exceeds the bound.
_BLOWUP_CLEARANCE = 1e-8
_BLOWUP_BOUND = 1e8


class BlowUpError(RuntimeError):
    """The trajectory ran into a movable pole and left the chart.

    The attributes hold the last accepted state, so callers can see where
    the solution blew up.  Meromorphic continuation past the pole exists
    but requires a chart change, which is out of scope here.
    """

    def __init__(self, message, arclength, t, q, p):
        super().__init__(message)
        self.arclength = arclength
        self.t = t
        self.q = q
        self.p = p


class NotOnRiccatiLocusError(ValueError):
    """Raised when riccati_flow is called off the locus kappa0 = 0, p = 0."""


@dataclass(frozen=True)
class TimePath:
    """Polyline in the space of pairwise-distinct pole triples."""

    vertices: tuple

    @classmethod
    def make(cls, vertices):
        vs = []
        for v in vertices:
            arr = np.asarray(v, dtype=complex)
            if arr.shape != (3,):
                raise ValueError("each vertex must be a complex triple")
            vs.append(arr)
        if not vs:
            raise ValueError("a time path needs at least one vertex")
        path = cls(tuple(vs))
        if path.min_gap() <= 0.0:
            raise ValueError("path collapses two pole positions")
        return path

    @classmethod
    def line(cls, start, end):
        """Straight segment between two pole triples."""
        return cls.make([start, end])

    def segments(self):
        return list(zip(self.vertices[:-1], self.vertices[1:]))

    def min_gap(self):
        """Exact minimum of |t_i - t_j| over the whole polyline.

        On each straight segment the difference t_i - t_j is linear in the
        parameter, so the minimum is a point-to-segment distance.
        """
        gap = fuchsian._min_gap(self.vertices[0])
        for a, b in self.segments():
            for i, j in itertools.combinations(range(3), 2):
                gap = min(gap, fuchsian._segment_pole_distance(
                    a[i] - a[j], b[i] - b[j], 0))
        return gap

    def length(self):
        return sum(
            float(np.linalg.norm(b - a)) for a, b in self.segments()
        )


@dataclass(frozen=True)
class FlowSample:
    """The state after one accepted integrator step, or the initial state."""

    arclength: float
    t: np.ndarray
    q: complex
    p: complex


@dataclass(frozen=True)
class Trajectory:
    """Samples of an integrated flow, all sharing one exponent vector."""

    kappa: params.Exponents
    samples: tuple

    def __len__(self):
        return len(self.samples)

    def start(self):
        s = self.samples[0]
        return fuchsian.PhasePoint.make(s.q, s.p, s.t, self.kappa)

    def end(self):
        s = self.samples[-1]
        return fuchsian.PhasePoint.make(s.q, s.p, s.t, self.kappa)


def _field(q, p, t, kk, b, dt):
    """Contraction of the Hamiltonian vector field with a t-direction dt."""
    qs = q - t
    u = qs[0] * qs[1] * qs[2]
    uq = qs[1] * qs[2] + qs[2] * qs[0] + qs[0] * qs[1]
    dq = 0.0 + 0.0j
    dp = 0.0 + 0.0j
    for i0 in range(3):
        if dt[i0] == 0.0:
            continue
        j0, k0 = (i0 + 1) % 3, (i0 + 2) % 3
        di = (t[i0] - t[j0]) * (t[i0] - t[k0])
        wi = (
            (kk[i0] - 1.0) * qs[j0] * qs[k0]
            + kk[j0] * qs[k0] * qs[i0]
            + kk[k0] * qs[i0] * qs[j0]
        )
        wiq = (
            (kk[i0] - 1.0) * (qs[j0] + qs[k0])
            + kk[j0] * (qs[k0] + qs[i0])
            + kk[k0] * (qs[i0] + qs[j0])
        )
        dq += dt[i0] * (2.0 * u * p - wi) / di
        dp -= dt[i0] * (uq * p * p - wiq * p + b) / di
    return dq, dp


def vector_field(pt, dt):
    """(dq, dp) for a time increment dt, from exact Hamiltonian partials.

    dq = sum_i (dH_i/dp) dt_i and dp = -sum_i (dH_i/dq) dt_i, with the
    partial derivatives expanded in closed form rather than differenced.
    """
    dt = np.asarray(dt, dtype=complex)
    if dt.shape != (3,):
        raise ValueError("dt must be a complex triple")
    k = pt.kappa
    kk = (k.k1, k.k2, k.k3)
    b = k.k0 * (k.k0 + k.k4)
    return _field(pt.q, pt.p, pt.t, kk, b, dt)


def _coerce_path(path):
    if isinstance(path, TimePath):
        return path
    return TimePath.make(path)


def _moving_segments(path):
    """(a, v, cap) for each segment t = a + s v, 0 <= s <= 1, that moves.

    cap(s, state) is the step cap of adaptive_rk in s: 0.05 times the
    minimal pole gap at t(s), over the largest component of v.
    """
    for a, b in path.segments():
        v = b - a
        vmax = max(abs(z) for z in v)
        if vmax == 0.0:
            continue

        def cap(s, state, a=a, v=v, vmax=vmax):
            return max(1e-12, 0.05 * fuchsian._min_gap(a + s * v) / vmax)

        yield a, v, cap


def integrate(pt, path):
    """Integrate the Hamiltonian system along a polyline time path.

    The step size is capped at 0.05 times the current minimal pole gap.
    Raises BlowUpError when q comes closer to a pole position than
    _BLOWUP_CLEARANCE times the path scale or when |q| or |p| exceeds
    _BLOWUP_BOUND; this is the movable-pole diagnostic.
    """
    path = _coerce_path(path)
    t0 = path.vertices[0]
    scale = max(1.0, max(abs(z) for v in path.vertices for z in v))
    if max(abs(pt.t[i] - t0[i]) for i in range(3)) > 1e-9 * scale:
        raise ValueError("path must start at the phase point's pole triple")
    clearance = _BLOWUP_CLEARANCE * scale
    k = pt.kappa
    kk = (k.k1, k.k2, k.k3)
    b = k.k0 * (k.k0 + k.k4)

    samples = [FlowSample(0.0, pt.t.copy(), pt.q, pt.p)]
    y = np.array([pt.q, pt.p], dtype=complex)
    arc_base = 0.0
    for a, v, cap in _moving_segments(path):
        vnorm = float(np.linalg.norm(v))

        def rhs(s, state, a=a, v=v):
            t_s = a + s * v
            dq, dp = _field(state[0], state[1], t_s, kk, b, v)
            return np.array([dq, dp])

        def record(s, state, h, err, a=a, v=v, vnorm=vnorm):
            t_s = a + s * v
            q_s, p_s = state
            arc = arc_base + s * vnorm
            pole_dist = min(abs(q_s - t_s[i]) for i in range(3))
            if pole_dist < clearance:
                raise BlowUpError(
                    f"blow-up near pole: |q - t_i| = {pole_dist:.3e} "
                    f"at arclength {arc:.6f}",
                    arc, t_s, q_s, p_s,
                )
            if abs(q_s) > _BLOWUP_BOUND or abs(p_s) > _BLOWUP_BOUND:
                raise BlowUpError(
                    f"blow-up: coordinate bound {_BLOWUP_BOUND:.1e} exceeded "
                    f"at arclength {arc:.6f}",
                    arc, t_s, q_s, p_s,
                )
            samples.append(FlowSample(arc, t_s, q_s, p_s))

        y = rk.adaptive_rk(rhs, y, 0.0, 1.0, max_step=cap, on_accept=record)
        arc_base += vnorm
    return Trajectory(kappa=pt.kappa, samples=tuple(samples))


def braid_loop_path(t, braid):
    """Polyline realizing a braid word as successive half-turns.

    Each letter rotates the corresponding pole pair half a revolution
    around its midpoint (anticlockwise for a positive letter), the third
    pole staying put; the word acts first letter first.  A pure braid
    therefore produces a closed loop.  Raises ValueError when the fixed
    pole sits too close to a rotation circle for the loop's homotopy class
    to be trustworthy.
    """
    letters = modular.parse_word(braid)
    current = np.asarray(t, dtype=complex).copy()
    vertices = [current.copy()]
    for letter in letters:
        ia, ib = _BRAID_PAIRS[abs(letter)]
        ic = 3 - ia - ib
        mid = (current[ia] + current[ib]) / 2.0
        rad = (current[ia] - current[ib]) / 2.0
        ring_dist = abs(abs(current[ic] - mid) - abs(rad))
        if ring_dist < 0.2 * abs(rad):
            raise ValueError(
                "fixed pole is within 20% of the braid circle; "
                "choose a different geometry"
            )
        sign = 1.0 if letter > 0 else -1.0
        for c in range(1, _BRAID_CHORDS + 1):
            phase = np.exp(1j * sign * np.pi * c / _BRAID_CHORDS)
            vertex = current.copy()
            vertex[ia] = mid + rad * phase
            vertex[ib] = mid - rad * phase
            vertices.append(vertex)
        swapped = current.copy()
        swapped[ia], swapped[ib] = current[ib], current[ia]
        vertices[-1] = swapped
        current = swapped
    return TimePath.make(vertices)


def nonlinear_monodromy(pt, braid):
    """Poincare return map of the flow along a closed pure-braid loop.

    The braid must be pure (identity underlying permutation), so the
    realized loop is closed in the space of ordered pole triples and the
    end point lives in the same fiber as the start.
    """
    letters = modular.parse_word(braid)
    if modular.perm_image(letters) != (0, 1, 2):
        raise ValueError("braid is not pure: the pole triple would not return")
    path = braid_loop_path(pt.t, letters)
    return integrate(pt, path).end()


def _chart_derivatives(q, p, x, kappa):
    """Analytic (q_x, p_x, q_xx) at a phase point in the (0, 1, x) chart.

    All three come from the Hamiltonian attached to the moving pole and
    its closed-form partial derivatives; q_xx is the chain-rule total
    x-derivative of q_x along the flow.
    """
    k1, k2, k3 = kappa.k1, kappa.k2, kappa.k3
    b = kappa.k0 * (kappa.k0 + kappa.k4)
    q1 = q
    q2 = q - 1.0
    q3 = q - x
    d = x * (x - 1.0)
    dx = 2.0 * x - 1.0
    u = q1 * q2 * q3
    uq = q1 * q2 + q2 * q3 + q3 * q1
    ux = -q1 * q2
    w = (k3 - 1.0) * q1 * q2 + k1 * q2 * q3 + k2 * q3 * q1
    wq = (k3 - 1.0) * (q1 + q2) + k1 * (q2 + q3) + k2 * (q3 + q1)
    wx = -k1 * q2 - k2 * q1
    f = (2.0 * u * p - w) / d
    fq = (2.0 * uq * p - wq) / d
    fp = 2.0 * u / d
    fx = (2.0 * ux * p - wx) / d - f * dx / d
    g = -(uq * p * p - wq * p + b) / d
    return f, g, fq * f + fp * g + fx


def _pvi_rhs(q, qx, x, kappa):
    """Right-hand side of the scalar second-order equation for q(x)."""
    k1, k2, k3, k4 = kappa.k1, kappa.k2, kappa.k3, kappa.k4
    quad = 0.5 * (1.0 / q + 1.0 / (q - 1.0) + 1.0 / (q - x)) * qx * qx
    lin = (1.0 / x + 1.0 / (x - 1.0) + 1.0 / (q - x)) * qx
    front = q * (q - 1.0) * (q - x) / (2.0 * x * x * (x - 1.0) ** 2)
    bracket = (
        k4 * k4
        - k1 * k1 * x / (q * q)
        + k2 * k2 * (x - 1.0) / ((q - 1.0) ** 2)
        + (1.0 - k3 * k3) * x * (x - 1.0) / ((q - x) ** 2)
    )
    return quad - lin + front * bracket


def pvi_residual(traj):
    """Per-sample defect of the scalar second-order equation.

    Requires the chart t1 = 0, t2 = 1, t3 = x.  Each sample contributes
    two analytic terms: the pointwise defect |q_xx - rhs(q, q_x, x)| using
    the chain-rule second derivative, and a quadrature-consistency defect
    for the interval ending at the sample.  The latter compares the
    sampled increment of q against the trapezoidal integral of the
    analytic derivative with its second-derivative correction, divided by
    the interval length; it is what ties the residual to the trajectory
    data (the pointwise term alone is an algebraic identity in (q, p, x)),
    so splicing inconsistent samples into a trajectory drives it up.  No
    sampled quantity is ever divided by a vanishing step, so the oracle is
    free of differencing noise.
    """
    kappa = traj.kappa
    res = np.zeros(len(traj.samples))
    prev = None
    for n, smp in enumerate(traj.samples):
        if abs(smp.t[0]) > 1e-9 or abs(smp.t[1] - 1.0) > 1e-9:
            raise ValueError("trajectory is not in the (0, 1, x) chart")
        x = smp.t[2]
        f, _, chain = _chart_derivatives(smp.q, smp.p, x, kappa)
        res[n] = abs(chain - _pvi_rhs(smp.q, f, x, kappa))
        if prev is not None:
            x0, q0, f0, c0 = prev
            h = x - x0
            if abs(h) > 1e-13:
                defect = (
                    smp.q - q0
                    - 0.5 * h * (f0 + f)
                    + h * h / 12.0 * (chain - c0)
                )
                res[n] += abs(defect) / abs(h)
        prev = (x, smp.q, f, chain)
    return res


def riccati_coefficients(t, kappa):
    """Quadratic coefficients (a_i, b_i, c_i) of dq/dt_i on the locus p = 0.

    On the Riccati locus the q-equation dq/dt_i = a_i q^2 + b_i q + c_i
    closes in q alone; the coefficients fall out of expanding the degree-2
    polynomial w_i in powers of q.
    """
    t = np.asarray(t, dtype=complex)
    kk = (kappa.k1, kappa.k2, kappa.k3)
    out = []
    for i0 in range(3):
        j0, k0 = (i0 + 1) % 3, (i0 + 2) % 3
        di = (t[i0] - t[j0]) * (t[i0] - t[k0])
        w2 = (kk[i0] - 1.0) + kk[j0] + kk[k0]
        w1 = -(
            (kk[i0] - 1.0) * (t[j0] + t[k0])
            + kk[j0] * (t[k0] + t[i0])
            + kk[k0] * (t[i0] + t[j0])
        )
        w0 = (
            (kk[i0] - 1.0) * t[j0] * t[k0]
            + kk[j0] * t[k0] * t[i0]
            + kk[k0] * t[i0] * t[j0]
        )
        out.append((-w2 / di, -w1 / di, -w0 / di))
    return out


@dataclass(frozen=True)
class RiccatiReport:
    """Diagnostics of a Riccati-locus integration.

    coefficients holds (a_i, b_i, c_i) of dq/dt_i at the start triple;
    quadratic_defect is the worst mismatch between the full vector field
    at p = 0 and that quadratic (zero up to roundoff certifies the
    first-order equation is genuinely Riccati); max_p tracks the locus
    invariance and max_linearization_deviation the agreement of q with
    -Y'/(aY) for the co-integrated second-order linearization.
    """

    coefficients: tuple
    quadratic_defect: float
    max_p: float
    max_linearization_deviation: float


def _riccati_abc(t, v, kappa):
    """Path coefficients A, B, C and dA/ds for direction v at triple t."""
    coeffs = riccati_coefficients(t, kappa)
    a = sum(coeffs[i][0] * v[i] for i in range(3))
    b = sum(coeffs[i][1] * v[i] for i in range(3))
    c = sum(coeffs[i][2] * v[i] for i in range(3))
    kk = (kappa.k1, kappa.k2, kappa.k3)
    aprime = 0.0 + 0.0j
    for i0 in range(3):
        if v[i0] == 0.0:
            continue
        j0, k0 = (i0 + 1) % 3, (i0 + 2) % 3
        tij = t[i0] - t[j0]
        tik = t[i0] - t[k0]
        vij = v[i0] - v[j0]
        vik = v[i0] - v[k0]
        di = tij * tik
        diprime = vij * tik + tij * vik
        w2 = (kk[i0] - 1.0) + kk[j0] + kk[k0]
        aprime += w2 * v[i0] * diprime / (di * di)
    return a, b, c, aprime


def riccati_flow(pt, path):
    """Integrate on the Riccati locus and verify its linearization.

    Returns (trajectory, report).  The trajectory comes from the full
    Hamiltonian system, so max_p in the report measures genuine locus
    invariance.  Alongside it, each straight segment co-integrates the
    reduced Riccati equation q' = A q^2 + B q + C together with the linear
    second-order equation A Y'' - (A' + A B) Y' + A^2 C Y = 0 and records
    the worst deviation |q - (-Y'/(A Y))|.
    """
    if abs(pt.kappa.k0) > 1e-12:
        raise NotOnRiccatiLocusError("kappa0 must vanish on the Riccati locus")
    if abs(pt.p) > 1e-12:
        raise NotOnRiccatiLocusError("p must vanish on the Riccati locus")
    path = _coerce_path(path)
    traj = integrate(pt, path)
    max_p = max(abs(s.p) for s in traj.samples)

    coeffs = riccati_coefficients(pt.t, pt.kappa)
    k = pt.kappa
    kk = (k.k1, k.k2, k.k3)
    b0 = k.k0 * (k.k0 + k.k4)
    probes = (0.3 + 0.7j, -1.2 + 0.4j, 2.1 - 0.9j, 0.8 + 1.6j)
    quadratic_defect = 0.0
    for i0 in range(3):
        unit = np.zeros(3, dtype=complex)
        unit[i0] = 1.0
        ai, bi, ci = coeffs[i0]
        for z in probes:
            dq, _ = _field(z, 0.0 + 0.0j, pt.t, kk, b0, unit)
            quadratic_defect = max(
                quadratic_defect, abs(dq - (ai * z * z + bi * z + ci))
            )

    dev = 0.0
    q = pt.q
    for a_v, v, cap in _moving_segments(path):
        a0, _, _, _ = _riccati_abc(a_v, v, pt.kappa)
        if abs(a0) < 1e-12:
            raise NotOnRiccatiLocusError(
                "quadratic coefficient vanishes; linearization undefined"
            )
        y = np.array([q, 1.0, -a0 * q], dtype=complex)

        def rhs(s, state, a_v=a_v, v=v):
            t_s = a_v + s * v
            aa, bb, cc, ap = _riccati_abc(t_s, v, pt.kappa)
            qq, yy, yp = state
            return np.array([
                aa * qq * qq + bb * qq + cc,
                yp,
                ((ap + aa * bb) * yp - aa * aa * cc * yy) / aa,
            ])

        track = {"dev": 0.0}

        def watch(s, state, h, err, a_v=a_v, v=v, track=track):
            t_s = a_v + s * v
            aa, _, _, _ = _riccati_abc(t_s, v, pt.kappa)
            qq, yy, yp = state
            if abs(aa * yy) > 1e-300:
                track["dev"] = max(track["dev"], abs(qq + yp / (aa * yy)))

        y = rk.adaptive_rk(rhs, y, 0.0, 1.0, max_step=cap, on_accept=watch)
        dev = max(dev, track["dev"])
        q = y[0]

    report = RiccatiReport(
        coefficients=tuple(coeffs),
        quadratic_defect=quadratic_defect,
        max_p=max_p,
        max_linearization_deviation=dev,
    )
    return traj, report
