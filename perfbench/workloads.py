"""Seeded inputs of the benchmark workloads and the `pvi` calls they make.

An operation is a tuple of calls: one `pvi rh` or `pvi flow` invocation,
or one pass of the geometry battery.  A round holds one operation per
stratum of the workload, so every run measures the same mix whatever its
length.

Phase points for `rh` and `flow` are anchors with a seeded jitter.  The
anchors were drawn once from the acceptance battery's phase-point
generator (kappa components in [-0.8, 0.8] and at least 0.1 from 0, q in
the band Im q in [0.2, 0.6], |p| <= 0.7, max |H_i| <= 0.7).  A single
`pvi rh` costs 1.5 to 3.7 s and a single `pvi flow` 0.12 to 1.3 s across
that generator, so a run of a dozen fully random points would measure the
draw rather than the program; each anchor instead fixes a stratum (a pole
triple and an accessory magnitude for `rh`) whose cost moves by about 10%
under the jitter.  The flow anchors are points of similar cost whose
trajectory stays bounded (|q| <= 3.4) around the loop: about 6% of generic
points run into a movable pole there, where `pvi flow` exits 1 (see
CHANGES.md), which would make the failure count depend on the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from checks import theta_from_kappa, theta_from_traces


@dataclass(frozen=True)
class Call:
    """One `pvi` invocation: argv without --out, and what its check needs."""

    kind: str
    argv: tuple
    spec: dict


def _call(kind, payload, spec):
    return Call(kind, (kind, "--input", json.dumps(payload)), spec)


def _pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _kappa(free):
    free = [complex(k) for k in free]
    return [(1 - sum(free)) / 2] + free


# ---------------------------------------------------------------- rh

# (t1, t2, t3), q, p, (k1, k2, k3, k4): two accessory magnitudes
# (max |H_i| below and above 0.35) on each of three pole triples.
RH_ANCHORS = (
    ((0, 1, 2), 0.0828+0.3775j, 0.0533+0.1434j, (0.2604, 0.1218, 0.2400, -0.1703)),
    ((0, 1, 2), -0.0606+0.4489j, 0.4446+0.0027j, (-0.2225, 0.7574, -0.3928, 0.5899)),
    ((0, 1, -1.5), -0.5504+0.5451j, 0.2078-0.2366j, (0.4253, -0.3070, 0.5079, -0.6349)),
    ((0, 1, -1.5), 0.8370+0.4221j, 0.0315-0.4323j, (-0.3253, 0.6356, 0.5725, -0.1962)),
    ((0, 1, 1.2+1.2j), -0.0430+0.3607j, -0.1540-0.0076j, (0.5663, 0.6183, -0.1957, 0.5314)),
    ((0, 1, 1.2+1.2j), 0.2280+0.5569j, -0.4150-0.1176j, (-0.3467, 0.2537, 0.3030, -0.5742)),
)

# Seeded jitter: q and p move by up to JITTER in each of re and im, the free
# kappa components by up to JITTER / 2.
JITTER = 0.02


def _jittered(rng, q, p, free):
    q = q + JITTER * complex(*rng.uniform(-1, 1, 2))
    p = p + JITTER * complex(*rng.uniform(-1, 1, 2))
    free = np.asarray(free) + JITTER / 2 * rng.uniform(-1, 1, 4)
    return q, p, [float(k) for k in free]


def rh_round(rng):
    ops = []
    for t, q0, p0, free0 in RH_ANCHORS:
        q, p, free = _jittered(rng, q0, p0, free0)
        payload = {"q": _pair(q), "p": _pair(p), "t": [_pair(z) for z in t], "kappa_free": free}
        spec = {"q": q, "p": p, "t": [complex(z) for z in t], "kappa": _kappa(free)}
        ops.append((_call("rh", payload, spec),))
    return ops


# -------------------------------------------------------------- flow

# x = t3 starts at 2, runs in to 1.6, once anticlockwise around t2 = 1 on
# the 16-gon |x - 1| = 0.6, and back out to 2; t1 = 0 and t2 = 1 stay put.
FLOW_XS = tuple(
    [2.0 + 0j]
    + [complex(1 + 0.6 * np.exp(2j * np.pi * k / 16)) for k in range(17)]
    + [2.0 + 0j]
)

# q, p, (k1, k2, k3, k4) at t = (0, 1, 2): 1600 to 2250 trajectory rows
# each under the jitter, |q| <= 3.3 and a residual <= 1e-7 around the loop.
FLOW_ANCHORS = (
    (-0.6804+0.5986j, -0.0403+0.1910j, (0.6498, 0.3158, -0.2571, -0.7730)),
    (0.8237+0.3285j, -0.0961+0.4348j, (0.5080, 0.4233, -0.7680, -0.4486)),
    (-0.4608+0.4988j, 0.1685-0.0828j, (0.5021, 0.5437, 0.6711, 0.4426)),
    (0.1754+0.4591j, 0.3387-0.1819j, (-0.5540, 0.2920, 0.7512, -0.7043)),
    (0.1270+0.3193j, 0.0203+0.2598j, (0.7290, 0.7449, 0.1202, -0.3824)),
    (0.6863+0.5774j, -0.3311+0.4955j, (0.3466, 0.3299, -0.2443, -0.4169)),
    (0.7633+0.4456j, 0.2672-0.2686j, (-0.2425, -0.4220, 0.7257, -0.1062)),
    (-0.7729+0.5181j, 0.1644+0.2540j, (0.4374, -0.7253, 0.2594, 0.5622)),
    (0.5465+0.3250j, -0.0763+0.4669j, (0.6223, 0.4883, -0.5572, -0.7531)),
    (0.3818+0.3574j, 0.0758-0.4081j, (-0.5199, 0.7981, 0.3762, 0.7842)),
    (-0.9238+0.4835j, 0.0922+0.3074j, (0.2057, -0.4114, 0.6100, -0.4297)),
    (-0.6712+0.2450j, 0.1425+0.1363j, (0.5503, 0.6664, 0.1052, -0.7769)),
)


def flow_round(rng):
    path = [[0, 1, _pair(x)] for x in FLOW_XS]
    ops = []
    for q0, p0, free0 in FLOW_ANCHORS:
        q, p, free = _jittered(rng, q0, p0, free0)
        payload = {
            "point": {"q": _pair(q), "p": _pair(p), "t": [0, 1, 2], "kappa_free": free},
            "path": path,
        }
        spec = {"q": q, "p": p, "xs": FLOW_XS, "kappa": _kappa(free)}
        ops.append((_call("flow", payload, spec),))
    return ops


# ---------------------------------------------------------- geometry

# One representative kappa per stratum with its known Dynkin label.
STRATA = (
    ((5 / 32, 1 / 4, 1 / 4, 1 / 8, 1 / 16), "smooth"),
    ((0, 7 / 20, 1 / 10, 3 / 20, 2 / 5), "A1"),
    ((5 / 32, 0, 1 / 4, 1 / 8, 5 / 16), "A1"),
    ((5 / 16, 0, 0, 1 / 8, 1 / 4), "2A1"),
    ((7 / 16, 0, 0, 0, 1 / 8), "3A1"),
    ((1 / 2, 0, 0, 0, 0), "4A1"),
    ((0, 0, 1 / 4, 1 / 4, 1 / 2), "A2"),
    ((0, 0, 0, 1 / 2, 1 / 2), "A3"),
    ((0, 0, 0, 0, 1), "D4"),
)
GENERIC_PER_PASS = 9
ORBIT_WORDS = ((1, 1), (2, 2, -3, -3), (3, 3, 1, 1), (-1, -1, 2, 2))
ORBIT_STEPS = 150
BACKLUND_PER_PASS = 4


def root_values(kappa):
    """Values of the twelve positive roots of D4 (centre k0, legs k1, k2, k3).

    kappa lies on a reflecting hyperplane of W(D4(1)), and S(theta) is
    singular, exactly when one of them is an integer; k4 = 1 - (highest
    root) is covered by the last one.
    """
    k0, k1, k2, k3 = (float(np.real(k)) for k in kappa[:4])
    return (k0, k1, k2, k3, k0 + k1, k0 + k2, k0 + k3, k0 + k1 + k2,
            k0 + k1 + k3, k0 + k2 + k3, k0 + k1 + k2 + k3, 2 * k0 + k1 + k2 + k3)


# Distance of every root value from the integers for a generic kappa.  At
# 0.05 about 1 kappa in 12000 is reported on a wall with a smooth surface
# (see CHANGES.md); from 0.08 on the scaled discriminant stays above 3e-5,
# far from on_wall's 1e-8.
GENERIC_MARGIN = 0.08


def _generic_kappa(rng):
    while True:
        kappa = _kappa(rng.uniform(-0.9, 0.9, 4))
        if all(abs(v - round(v)) >= GENERIC_MARGIN for v in root_values(kappa)):
            return kappa


def _su2(rng):
    a, b, c, d = rng.standard_normal(4)
    n = np.sqrt(a * a + b * b + c * c + d * d)
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]]) / n


def _bounded_orbit_start(rng):
    """Trace coordinates of an SU(2) triple: a point of the compact real component."""
    m1, m2, m3 = (_su2(rng) for _ in range(3))
    m4 = np.linalg.inv(m3 @ m2 @ m1)
    a = [np.trace(m).real for m in (m1, m2, m3, m4)]
    x = [np.trace(m2 @ m3).real, np.trace(m3 @ m1).real, np.trace(m1 @ m2).real]
    return x, [float(th) for th in theta_from_traces(a)]


def _backlund_point(rng):
    t = (0.0, 1.0, 2.0)
    while True:
        q = complex(*rng.standard_normal(2))
        p = complex(*rng.standard_normal(2))
        if min(abs(q - ti) for ti in t) >= 0.1 and abs(p) >= 0.1:
            return q, p, t, _kappa(0.3 * rng.standard_normal(4))


def geometry_pass(rng):
    calls = []
    for rep, label in STRATA:
        # A leg permutation (diagram automorphism) and leg sign flips (the
        # reflections s_1..s_4) keep the stratum.
        legs = [rep[1 + i] * rng.choice((-1, 1)) for i in rng.permutation(4)]
        kappa = _kappa(legs)
        theta = theta_from_kappa(kappa)
        spec = {"theta": theta, "label": label}
        calls.append(_call("classify", {"kappa": [_pair(k) for k in kappa]}, spec))
        calls.append(_call("classify", {"theta": [_pair(z) for z in theta]}, spec))
    d4 = [8.0, 8.0, 8.0, 28.0]
    calls.append(_call("classify", {"theta": d4}, {"theta": d4, "label": "D4", "point": [2, 2, 2]}))
    for _ in range(GENERIC_PER_PASS):
        kappa = _generic_kappa(rng)
        calls.append(_call("classify", {"kappa_free": [k.real for k in kappa[1:]]},
                           {"theta": theta_from_kappa(kappa), "label": "smooth"}))
    for word in ORBIT_WORDS:
        x, theta = _bounded_orbit_start(rng)
        payload = {"point": {"x": x, "theta": theta}, "word": " ".join(map(str, word)), "n": ORBIT_STEPS}
        calls.append(_call("orbit", payload, {"x": x, "theta": theta, "word": word, "n": ORBIT_STEPS}))
    for _ in range(BACKLUND_PER_PASS):
        q, p, t, kappa = _backlund_point(rng)
        half = "".join(str(i) for i in rng.integers(0, 5, 4))
        payload = {"point": {"q": _pair(q), "p": _pair(p), "t": list(t), "kappa": [_pair(k) for k in kappa]},
                   "word": half + half[::-1]}
        calls.append(_call("backlund", payload, {"q": q, "p": p, "t": t, "kappa": kappa}))
    return [tuple(calls)]


WORKLOADS = {"rh": rh_round, "flow": flow_round, "geometry": geometry_pass}


def generate(name, seed):
    """The warm-up operation and a function giving the next round, from one seed."""
    make_round = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    warmup = make_round(rng)[0]
    return warmup, lambda: make_round(rng)


def operations(name, seed):
    """The operations generate() gives, in the order a run takes them: the
    warm-up, then every operation of each round.  The checks walk this
    again after the timed phase, so a run holds no more than one round of
    generated inputs however many it executes."""
    warmup, next_round = generate(name, seed)
    yield warmup
    while True:
        yield from next_round()
