"""Independent checks of `pvi` command-line outputs.

Everything here is computed apart from the program: the trace formulas,
the Fricke cubic, the Hamiltonians, the transport of the Fuchsian companion
system (scipy DOP853 on true circles around each pole) and the scalar
Painleve VI equation in the (0, 1, x) chart (scipy DOP853 along the same
x-polyline).  Nothing in this module imports `pvi`.

Each `check_*` and `oracle_*` function takes the spec of one call (the
inputs the benchmark generated, plus what is known about the answer) and
the text the program wrote, and returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

TRAJECTORY_COLUMNS = (
    "arclength", "re_t3", "im_t3", "re_q", "im_q", "re_p", "im_p",
    "re_H1", "im_H1", "re_H2", "im_H2", "re_H3", "im_H3", "pvi_residual",
)
ORBIT_COLUMNS = (
    "step", "re_x1", "im_x1", "re_x2", "im_x2", "re_x3", "im_x3", "f_residual",
)

# Local types of the singular points of each label, and their Milnor numbers.
POINT_TYPES = {
    "smooth": [], "A1": ["A1"], "2A1": ["A1"] * 2, "3A1": ["A1"] * 3, "4A1": ["A1"] * 4,
    "A2": ["A2"], "A3": ["A3"], "D4": ["D4"],
}
MILNOR = {"A1": 1, "A2": 2, "A3": 3, "D4": 4}

# Tolerances of the scipy DOP853 oracles.
RTOL, ATOL = 1e-12, 1e-14


# ---------------------------------------------------------------- formulas

def traces_from_kappa(kappa):
    """(a1, a2, a3, a4): 2cos(pi k_i) for i = 1, 2, 3 and -2cos(pi k4)."""
    k = np.asarray(kappa, dtype=complex)
    return np.array([2 * np.cos(np.pi * k[1]), 2 * np.cos(np.pi * k[2]),
                     2 * np.cos(np.pi * k[3]), -2 * np.cos(np.pi * k[4])])


def theta_from_traces(a):
    a1, a2, a3, a4 = a
    return np.array([
        a1 * a4 + a2 * a3,
        a2 * a4 + a3 * a1,
        a3 * a4 + a1 * a2,
        a1 * a2 * a3 * a4 + a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4 - 4.0,
    ])


def theta_from_kappa(kappa):
    return theta_from_traces(traces_from_kappa(kappa))


def fricke(x, theta):
    x1, x2, x3 = x
    t1, t2, t3, t4 = theta
    return x1 * x2 * x3 + x1 * x1 + x2 * x2 + x3 * x3 - t1 * x1 - t2 * x2 - t3 * x3 + t4


def fricke_grad(x, theta):
    x1, x2, x3 = x
    return np.array([x2 * x3 + 2 * x1 - theta[0],
                     x3 * x1 + 2 * x2 - theta[1],
                     x1 * x2 + 2 * x3 - theta[2]])


def hamiltonians(q, p, t, kappa):
    """H_1, H_2, H_3 of Painleve VI; q and p may be arrays of samples."""
    k0, k1, k2, k3, k4 = kappa
    kk = (k1, k2, k3)
    out = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        qi, qj, qk = q - t[i], q - t[j], q - t[k]
        num = (qi * qj * qk * p * p
               - ((kk[i] - 1) * qj * qk + kk[j] * qk * qi + kk[k] * qi * qj) * p
               + k0 * (k0 + k4) * qi)
        out.append(num / ((t[i] - t[j]) * (t[i] - t[k])))
    return out


def modular_step(letter, x, theta):
    """One generator g_i (letter i > 0) or its inverse (letter -i)."""
    i = abs(letter) - 1
    j, k = (i + 1) % 3, (i + 2) % 3
    x = list(x)
    theta = list(theta)
    if letter > 0:
        x[i], x[j] = theta[j] - x[j] - x[k] * x[i], x[i]
    else:
        x[i], x[j] = x[j], theta[i] - x[i] - x[k] * x[j]
    theta[i], theta[j] = theta[j], theta[i]
    return x, theta


def modular_word(word, x, theta):
    for letter in word:
        x, theta = modular_step(letter, x, theta)
    return x, theta


# ------------------------------------------------------------------ oracles

def _matrix_ode(z_of_s, dz_of_s, poles, r1, r2):
    def rhs(s, y):
        z = z_of_s(s)
        v1 = np.sum(r1 / (z - poles))
        v2 = np.sum(r2 / (z - poles))
        return dz_of_s(s) * np.array([y[2], y[3], v1 * y[2] - v2 * y[0], v1 * y[3] - v2 * y[1]])
    return rhs


def transport_x(q, p, t, kappa):
    """x = (tr M2M3, tr M3M1, tr M1M2) by scipy on circles around each pole.

    The loops follow the program's documented convention: anticlockwise,
    composed from a basepoint north of the pole cluster with straight tails.
    Only the homotopy class matters, so the circle radii differ from the
    program's and the circles are exact arcs, not polylines.
    """
    from scipy.integrate import solve_ivp

    t = np.asarray(t, dtype=complex)
    h = hamiltonians(q, p, t, kappa)
    poles = np.array([t[0], t[1], t[2], q])
    r1 = np.array([kappa[1] - 1, kappa[2] - 1, kappa[3] - 1, 1.0])
    r2 = np.array([-h[0], -h[1], -h[2], p])
    center = poles.mean()
    span = max(1.0, 2 * float(np.max(np.abs(poles - center))))
    base = center + 0.1371 * span + 1.8j * span

    def integrate(rhs, y):
        sol = solve_ivp(rhs, (0.0, 1.0), y, method="DOP853", rtol=RTOL, atol=ATOL)
        if not sol.success:
            raise ArithmeticError(sol.message)
        return sol.y[:, -1]

    def segment(z0, z1, y):
        d = z1 - z0
        return integrate(_matrix_ode(lambda s: z0 + s * d, lambda s: d, poles, r1, r2), y)

    raw = []
    for i in range(3):
        c = poles[i]
        r = 0.25 * min(abs(c - o) for n, o in enumerate(poles) if n != i)
        phi = np.angle(base - c)
        entry = c + r * np.exp(1j * phi)
        y = segment(base, entry, np.eye(2, dtype=complex).reshape(4))
        y = integrate(_matrix_ode(
            lambda s: c + r * np.exp(1j * (phi + 2 * np.pi * s)),
            lambda s: 2j * np.pi * r * np.exp(1j * (phi + 2 * np.pi * s)),
            poles, r1, r2), y)
        y = segment(entry, base, y)
        raw.append(y.reshape(2, 2))
    m = [np.exp(-1j * np.pi * kappa[i + 1]) * raw[i] for i in range(3)]
    return np.array([np.trace(m[1] @ m[2]), np.trace(m[2] @ m[0]), np.trace(m[0] @ m[1])])


def qx_from_qp(q, p, x, kappa):
    """dq/dx = dH_3/dp in the (0, 1, x) chart."""
    _, k1, k2, k3, _ = kappa
    u = q * (q - 1) * (q - x)
    w = (k3 - 1) * q * (q - 1) + k1 * (q - 1) * (q - x) + k2 * (q - x) * q
    return (2 * u * p - w) / (x * (x - 1))


def pvi_second_derivative(x, q, qx, kappa):
    """q'' of Painleve VI with (alpha, beta, gamma, delta) from kappa."""
    _, k1, k2, k3, k4 = kappa
    alpha, beta, gamma, delta = k4 * k4 / 2, -k1 * k1 / 2, k2 * k2 / 2, (1 - k3 * k3) / 2
    return (0.5 * (1 / q + 1 / (q - 1) + 1 / (q - x)) * qx * qx
            - (1 / x + 1 / (x - 1) + 1 / (q - x)) * qx
            + q * (q - 1) * (q - x) / (x * x * (x - 1) ** 2)
            * (alpha + beta * x / (q * q) + gamma * (x - 1) / (q - 1) ** 2
               + delta * x * (x - 1) / (q - x) ** 2))


def scalar_pvi_end(q, p, xs, kappa):
    """(q, q_x) at the end of the x-polyline, by scipy on the scalar equation."""
    from scipy.integrate import solve_ivp

    y = np.array([q, qx_from_qp(q, p, xs[0], kappa)], dtype=complex)
    for x0, x1 in zip(xs[:-1], xs[1:]):
        d = x1 - x0

        def rhs(s, y, x0=x0, d=d):
            return d * np.array([y[1], pvi_second_derivative(x0 + s * d, y[0], y[1], kappa)])

        sol = solve_ivp(rhs, (0.0, 1.0), y, method="DOP853", rtol=RTOL, atol=ATOL)
        if not sol.success:
            raise ArithmeticError(sol.message)
        y = sol.y[:, -1]
    return y[0], y[1]


# ------------------------------------------------------------------- checks

def _complex(pair):
    return complex(pair[0], pair[1])


def _close(a, b, tol):
    """|a - b| <= tol * max(1, |b|) elementwise, b broadcast against a."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    try:
        return bool(np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))))
    except ValueError:  # shapes that do not broadcast
        return False


def check_rh(spec, text):
    """Traces, reported a and theta, f(x, theta) = 0, product defect, apparency."""
    out = json.loads(text)
    kappa = spec["kappa"]
    a = traces_from_kappa(kappa)
    theta = theta_from_traces(a)
    x = np.array([_complex(v) for v in out["x"]])
    problems = []
    if not _close([_complex(v) for v in out["traces"]], a, 1e-6):
        problems.append("monodromy traces differ from 2cos(pi k_i), -2cos(pi k4)")
    if not _close([_complex(v) for v in out["a"]], a, 1e-12):
        problems.append("reported a differs from the trace formula")
    if not _close([_complex(v) for v in out["theta"]], theta, 1e-12):
        problems.append("reported theta differs from theta(a)")
    scale = max(1.0, float(np.max(np.abs(x))))
    if not abs(fricke(x, theta)) <= 1e-6 + 1e-12 * scale**3:
        problems.append(f"|f(x, theta)| = {abs(fricke(x, theta)):.3e}")
    for key in ("product_defect", "apparency"):
        if not out[key] <= 1e-6:
            problems.append(f"{key} {out[key]:.3e} > 1e-6")
    return problems


def oracle_rh(spec, text):
    """x agrees with the scipy transport of the same companion system."""
    x = np.array([_complex(v) for v in json.loads(text)["x"]])
    ref = transport_x(spec["q"], spec["p"], spec["t"], spec["kappa"])
    if _close(x, ref, 1e-6):
        return []
    return [f"x differs from the scipy transport by {np.max(np.abs(x - ref)):.3e}"]


def _read_csv(text, columns):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != columns:
        return None
    return np.array(rows[1:], dtype=float).reshape(-1, len(columns))


def check_flow(spec, text):
    """First row is the input, last row ends the path, H columns and residuals hold."""
    data = _read_csv(text, TRAJECTORY_COLUMNS)
    if data is None or len(data) < 2:
        return ["trajectory CSV header or rows missing"]
    kappa = spec["kappa"]
    xs = spec["xs"]
    x = data[:, 1] + 1j * data[:, 2]
    q = data[:, 3] + 1j * data[:, 4]
    p = data[:, 5] + 1j * data[:, 6]
    problems = []
    if not (_close(q[0], spec["q"], 0) and _close(p[0], spec["p"], 0)
            and _close(x[0], xs[0], 0) and data[0, 0] == 0.0):
        problems.append("first row is not the input phase point")
    if not _close(x[-1], xs[-1], 1e-12):
        problems.append("last row is not at the end of the path")
    if np.any(np.diff(data[:, 0]) < 0):
        problems.append("arclength decreases")
    h = hamiltonians(q, p, (0.0, 1.0, x), kappa)
    for i in range(3):
        got = data[:, 7 + 2 * i] + 1j * data[:, 8 + 2 * i]
        if not _close(got, h[i], 1e-9):
            problems.append(f"H{i + 1} column differs from H{i + 1}(q, p, t)")
    res = data[:, 13]
    if not np.all(res <= 1e-6):
        problems.append(f"residual column reaches {np.nanmax(res):.3e} (or nan)")
    return problems


def oracle_flow(spec, text):
    """The last row agrees with scipy on the scalar equation along the same path."""
    last = text.rstrip("\n").rsplit("\n", 1)[-1].split(",")
    x, q, p = (complex(float(last[i]), float(last[i + 1])) for i in (1, 3, 5))
    q_end, qx_end = scalar_pvi_end(spec["q"], spec["p"], spec["xs"], spec["kappa"])
    problems = []
    if not _close(q, q_end, 1e-6):
        problems.append(f"end q differs from the scalar equation by {abs(q - q_end):.3e}")
    if not _close(qx_from_qp(q, p, x, spec["kappa"]), qx_end, 1e-6):
        problems.append("end p does not give the scalar equation's dq/dx")
    return problems


def check_classify(spec, text):
    """Known label, consistent point list, every point singular on S(theta)."""
    out = json.loads(text)
    theta = np.asarray(spec["theta"], dtype=complex)
    label = spec["label"]
    points = out["singular_points"]
    problems = []
    if out["stratum"] != label:
        problems.append(f"stratum {out['stratum']!r}, expected {label!r}")
    types = sorted(pt["type"] for pt in points)
    if types != POINT_TYPES[label]:
        problems.append(f"point types {types}, expected {POINT_TYPES[label]}")
    milnor = sum(MILNOR[t] for t in POINT_TYPES[label])
    if out["index_set_size"] != milnor or sum(pt["milnor"] for pt in points) != milnor:
        problems.append("Milnor numbers do not add up to the label's")
    if out["on_wall"] != (label != "smooth"):
        problems.append("wall status disagrees with the label")
    scale = max(1.0, float(np.max(np.abs(theta))))
    for pt in points:
        x = np.array([_complex(v) for v in pt["x"]])
        s = scale * max(1.0, float(np.max(np.abs(x)))) ** 2
        if not (abs(fricke(x, theta)) <= 1e-6 * s and np.max(np.abs(fricke_grad(x, theta))) <= 1e-6 * s):
            problems.append(f"reported point {x} is not a singular point of S(theta)")
    if "point" in spec:
        if len(points) != 1 or not _close([_complex(v) for v in points[0]["x"]], spec["point"], 1e-8):
            problems.append(f"expected exactly one point at {spec['point']}")
    return problems


def check_orbit(spec, text):
    """Row 0 is the input, each row is the word applied to the previous, f conserved."""
    data = _read_csv(text, ORBIT_COLUMNS)
    if data is None:
        return ["orbit CSV header missing"]
    theta = np.asarray(spec["theta"], dtype=complex)
    x = data[:, 1:7:2] + 1j * data[:, 2:7:2]
    problems = []
    if len(data) != spec["n"] + 1 or not np.array_equal(data[:, 0], np.arange(len(data))):
        problems.append(f"{len(data)} rows for n = {spec['n']}")
    if not _close(x[0], spec["x"], 0):
        problems.append("first row is not the input point")
    f = np.array([fricke(row, theta) for row in x])
    if not (_close(f, f[0], 1e-8) and _close(data[:, 7], np.abs(f), 1e-8)):
        problems.append("f(x, theta) is not conserved along the orbit")
    for n in range(len(x) - 1):
        step, th = modular_word(spec["word"], x[n], theta)
        if not (_close(step, x[n + 1], 1e-9) and _close(th, theta, 0)):
            problems.append(f"row {n + 1} is not the word applied to row {n}")
            break
    return problems


def check_backlund(spec, text):
    """A word followed by its reverse is the identity; theta is invariant."""
    out = json.loads(text)
    end = out["end"]
    kappa = np.array([_complex(v) for v in end["kappa"]])
    problems = []
    if not (_close(_complex(end["q"]), spec["q"], 1e-9) and _close(_complex(end["p"]), spec["p"], 1e-9)
            and _close(kappa, spec["kappa"], 1e-12)
            and _close([_complex(v) for v in end["t"]], spec["t"], 0)):
        problems.append("word times its reverse is not the identity on (q, p, t, kappa)")
    if not (out["theta_drift"] <= 1e-10 and _close(theta_from_kappa(kappa), theta_from_kappa(spec["kappa"]), 1e-10)):
        problems.append("theta is not invariant")
    return problems


# The checks of every output, by call kind.
CHECKS = {
    "rh": check_rh,
    "flow": check_flow,
    "classify": check_classify,
    "orbit": check_orbit,
    "backlund": check_backlund,
}

# The scipy oracles, run on top of the checks for these kinds.
ORACLES = {"rh": oracle_rh, "flow": oracle_flow}
