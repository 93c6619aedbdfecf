"""Hamiltonian dynamics of Painleve VI in canonical coordinates.

The flow moves a phase point (q, p) as the pole triple (t1, t2, t3) travels
along a path, with one Hamiltonian per pole position.  This module
integrates that system along polyline time paths, realizes pure braids as
concrete closed loops (the nonlinear monodromy), evaluates the scalar
second-order residual in the (0, 1, x) chart, and handles the Riccati
invariant locus together with its linearization as a first-order linear
system.
"""

from __future__ import annotations

import functools
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
#: fraction of the local pole gap, or when |q| or |p| exceeds the bound.
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
        t = np.array(vs)
        with np.errstate(over="ignore", invalid="ignore"):
            denominators = (t - np.roll(t, 1, axis=1)) * (t - np.roll(t, -1, axis=1))
        for v, d in zip(vs, denominators):
            if not np.isfinite(d).all():
                raise ValueError(f"pole triple {tuple(v.tolist())} is out of range: "
                                 f"(t_i - t_j)(t_i - t_k) overflows")
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
        """Exact minimum of |t_i - t_j| over the whole polyline."""
        return min([fuchsian._min_gap(self.vertices[0])]
                   + [_segment_gap(a, b) for a, b in self.segments()])

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

    @functools.cached_property
    def columns(self):
        """(arclength, t, q, p) over the samples as arrays; t has shape (n, 3)."""
        samples = self.samples
        return (
            np.array([s.arclength for s in samples], dtype=float),
            np.array([s.t for s in samples], dtype=complex).reshape(-1, 3),
            np.array([s.q for s in samples], dtype=complex),
            np.array([s.p for s in samples], dtype=complex),
        )

    def in_chart(self):
        """Whether every sample has t1 = 0 and t2 = 1, the chart of pvi_residual."""
        t = self.columns[1]
        return bool(
            np.all(np.abs(t[:, 0]) <= 1e-9) and np.all(np.abs(t[:, 1] - 1.0) <= 1e-9)
        )


def _numpy_quotients(x, y, d):
    """(x / d, y / d) for Python complex scalars, rounded as numpy rounds them.

    CPython's complex division is another algorithm than numpy's, and the
    two differ in the last bit of about 43% of quotients; one bit in the
    field moves the step sequence of an integration.  This is the Smith
    division of numpy's complex128 scalars, with the ratio and the scale
    of d shared by both numerators.  A zero or nan d, which no valid time
    path produces but an underflowed product can, goes to numpy itself
    and gives its inf or nan, without a warning.
    """
    dr, di = d.real, d.imag
    try:
        if abs(dr) >= abs(di):
            rat = di / dr
            scl = 1.0 / (dr + di * rat)
            return (
                complex((x.real + x.imag * rat) * scl, (x.imag - x.real * rat) * scl),
                complex((y.real + y.imag * rat) * scl, (y.imag - y.real * rat) * scl),
            )
        rat = dr / di
        scl = 1.0 / (di + dr * rat)
        return (
            complex((x.real * rat + x.imag) * scl, (x.imag * rat - x.real) * scl),
            complex((y.real * rat + y.imag) * scl, (y.imag * rat - y.real) * scl),
        )
    except ZeroDivisionError:
        with np.errstate(all="ignore"):
            d = np.complex128(d)
            return complex(np.complex128(x) / d), complex(np.complex128(y) / d)


def _field_constants(kappa):
    """(kk, b) of _field as Python complex: (k1, k2, k3) and k0 (k0 + k4)."""
    k0, k1, k2, k3, k4 = (
        complex(z) for z in (kappa.k0, kappa.k1, kappa.k2, kappa.k3, kappa.k4)
    )
    return (k1, k2, k3), k0 * (k0 + k4)


def _field(q, p, t, kk, b, dt):
    """Contraction of the Hamiltonian vector field with a t-direction dt.

    Every argument is a Python complex scalar or a sequence of three; the
    result equals, bit for bit, the same formula on numpy complex128
    values, overflow giving inf or nan and no warning.
    """
    qs = (q - t[0], q - t[1], q - t[2])
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
        fq, fp = _numpy_quotients(
            dt[i0] * (2.0 * u * p - wi), dt[i0] * (uq * p * p - wiq * p + b), di
        )
        dq += fq
        dp -= fp
    return dq, dp


def vector_field(pt, dt):
    """(dq, dp) for a time increment dt, from exact Hamiltonian partials.

    dq = sum_i (dH_i/dp) dt_i and dp = -sum_i (dH_i/dq) dt_i, with the
    partial derivatives expanded in closed form rather than differenced.
    """
    dt = np.asarray(dt, dtype=complex)
    if dt.shape != (3,):
        raise ValueError("dt must be a complex triple")
    kk, b = _field_constants(pt.kappa)
    return _field(complex(pt.q), complex(pt.p), pt.t.tolist(), kk, b, dt.tolist())


def _segment_gap(a, b):
    """Exact minimum of |t_i - t_j| on the straight segment from triple a to b.

    On the segment the difference t_i - t_j is linear in the parameter, so
    its minimum is a point-to-segment distance.
    """
    return min(fuchsian._segment_pole_distance(a[i] - a[j], b[i] - b[j], 0)
               for i, j in itertools.combinations(range(3), 2))


def _coerce_path(path):
    if isinstance(path, TimePath):
        return path
    return TimePath.make(path)


def _moving_segments(path):
    """(v, at, first_step) for each segment t = a + s v, 0 <= s <= 1, that moves.

    v is a list of Python complex scalars and at(s) the triple t(s) of
    them.  first_step is the first step of adaptive_rk in s: 0.05 times
    the minimal pole gap at t(0), over the largest component of v.
    """
    for a, b in path.segments():
        v = (b - a).tolist()
        vmax = max(abs(z) for z in v)
        if vmax == 0.0:
            continue
        a0, a1, a2 = a.tolist()
        v0, v1, v2 = v

        def at(s, a0=a0, a1=a1, a2=a2, v0=v0, v1=v1, v2=v2):
            return (a0 + s * v0, a1 + s * v1, a2 + s * v2)

        yield v, at, max(1e-12, 0.05 * fuchsian._min_gap(at(0.0)) / vmax)


def integrate(pt, path):
    """Integrate the Hamiltonian system along a polyline time path.

    Each segment's first step is at most 0.05 times the minimal pole gap
    at its start.  Raises BlowUpError when q is closer to a pole position
    than _BLOWUP_CLEARANCE times the local pole gap (the minimal gap of the
    start triple, or of the segment after an accepted step on it) or when
    |q| or |p| exceeds _BLOWUP_BOUND; this is the movable-pole diagnostic.
    """
    path = _coerce_path(path)
    t0 = path.vertices[0]
    scale = max(1.0, max(abs(z) for v in path.vertices for z in v))
    if max(abs(pt.t[i] - t0[i]) for i in range(3)) > 1e-9 * scale:
        raise ValueError("path must start at the phase point's pole triple")
    clearance = _BLOWUP_CLEARANCE * fuchsian._min_gap(pt.t)
    kk, b = _field_constants(pt.kappa)
    samples = []

    def add_sample(arc, t_s, q_s, p_s):
        ta, tb, tc = t_s
        pole_dist = min(abs(q_s - ta), abs(q_s - tb), abs(q_s - tc))
        t_s = np.array(t_s)
        if pole_dist < clearance:
            why = f"blow-up near pole: |q - t_i| = {pole_dist:.3e}"
        elif abs(q_s) > _BLOWUP_BOUND or abs(p_s) > _BLOWUP_BOUND:
            why = f"blow-up: coordinate bound {_BLOWUP_BOUND:.1e} exceeded"
        else:
            samples.append(FlowSample(arc, t_s, q_s, p_s))
            return
        raise BlowUpError(f"{why} at arclength {arc:.6f}", arc, t_s, q_s, p_s)

    add_sample(0.0, pt.t.tolist(), pt.q, pt.p)
    y = np.array([pt.q, pt.p], dtype=complex)
    arc_base = 0.0
    n_segments = 0
    for v, at, first_step in _moving_segments(path):
        vnorm = float(np.linalg.norm(v))
        clearance = _BLOWUP_CLEARANCE * _segment_gap(at(0.0), at(1.0))
        n_segments += 1

        def rhs(s, state, at=at, v=v):
            q_s, p_s = state.tolist()
            return _field(q_s, p_s, at(s), kk, b, v)

        def record(s, state, h, err, at=at, vnorm=vnorm):
            add_sample(arc_base + s * vnorm, at(s), *state.tolist())

        y = rk.adaptive_rk(rhs, y, 0.0, 1.0, first_step=first_step, on_accept=record)
        arc_base += vnorm
    traj = Trajectory(kappa=pt.kappa, samples=tuple(samples))
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "flow.integrate: %d moving segments, %d accepted samples, max |q| %.6g",
            n_segments, len(samples) - 1, float(np.max(np.abs(traj.columns[2]))),
        )
    return traj


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
    if not traj.in_chart():
        raise ValueError("trajectory is not in the (0, 1, x) chart")
    kappa = traj.kappa
    _, t, q, p = traj.columns
    x = t[:, 2]
    with np.errstate(all="ignore"):
        f, _, chain = _chart_derivatives(q, p, x, kappa)
        res = np.abs(chain - _pvi_rhs(q, f, x, kappa))
        h = np.diff(x)
        defect = np.diff(q) - 0.5 * h * (f[:-1] + f[1:]) + h * h / 12.0 * np.diff(chain)
        step = np.abs(h)
        moved = step > 1e-13
        res[1:][moved] += np.abs(defect[moved]) / step[moved]
    if not np.isfinite(res).all():
        raise ValueError(f"the PVI residual is not finite on this trajectory "
                         f"(max |x| = {float(np.max(np.abs(x))):.3g})")
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
    y1/y2 for the co-integrated linear system of riccati_flow.  y2 is the
    Y of the second-order form, so y1/y2 = -Y'/(AY).
    """

    coefficients: tuple
    quadratic_defect: float
    max_p: float
    max_linearization_deviation: float


def _riccati_abc(t, v, kappa):
    """Path coefficients A, B, C of dq/ds = A q^2 + B q + C along direction v."""
    coeffs = riccati_coefficients(t, kappa)
    return tuple(sum(coeffs[i][n] * v[i] for i in range(3)) for n in range(3))


def riccati_flow(pt, path):
    """Integrate on the Riccati locus and verify its linearization.

    Returns (trajectory, report).  The trajectory comes from the full
    Hamiltonian system, so max_p in the report measures genuine locus
    invariance.  Alongside it, each straight segment co-integrates the
    reduced Riccati equation q' = A q^2 + B q + C together with the linear
    system (y1, y2)' = [[B, C], [-A, 0]] (y1, y2), started at (q, 1), and
    records the worst deviation |q - y1/y2|.  Any solution of the linear
    system gives a Riccati solution y1/y2, with no condition on A; y2 is
    the Y of the second-order form, where q = -Y'/(A Y).
    """
    if abs(pt.kappa.k0) > 1e-12:
        raise NotOnRiccatiLocusError("kappa0 must vanish on the Riccati locus")
    if abs(pt.p) > 1e-12:
        raise NotOnRiccatiLocusError("p must vanish on the Riccati locus")
    path = _coerce_path(path)
    traj = integrate(pt, path)
    max_p = max(abs(s.p) for s in traj.samples)

    coeffs = riccati_coefficients(pt.t, pt.kappa)
    kk, b0 = _field_constants(pt.kappa)
    t = pt.t.tolist()
    probes = (0.3 + 0.7j, -1.2 + 0.4j, 2.1 - 0.9j, 0.8 + 1.6j)
    quadratic_defect = 0.0
    for i0 in range(3):
        unit = [0j, 0j, 0j]
        unit[i0] = 1 + 0j
        ai, bi, ci = coeffs[i0]
        for z in probes:
            dq, _ = _field(z, 0.0 + 0.0j, t, kk, b0, unit)
            quadratic_defect = max(
                quadratic_defect, abs(dq - (ai * z * z + bi * z + ci))
            )

    dev = 0.0
    q = pt.q
    for v, at, first_step in _moving_segments(path):
        y = np.array([q, q, 1.0], dtype=complex)

        def rhs(s, state, at=at, v=v):
            aa, bb, cc = _riccati_abc(at(s), v, pt.kappa)
            qq, y1, y2 = state
            return np.array([
                aa * qq * qq + bb * qq + cc,
                bb * y1 + cc * y2,
                -aa * y1,
            ])

        def watch(s, state, h, err):
            nonlocal dev
            qq, y1, y2 = state
            if abs(y2) > 1e-300:
                dev = max(dev, abs(qq - y1 / y2))

        y = rk.adaptive_rk(rhs, y, 0.0, 1.0, first_step=first_step, on_accept=watch)
        q = y[0]

    report = RiccatiReport(
        coefficients=tuple(coeffs),
        quadratic_defect=quadratic_defect,
        max_p=max_p,
        max_linearization_deviation=dev,
    )
    return traj, report
