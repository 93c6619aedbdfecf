"""JSON and CSV encodings shared by the command-line tools.

Complex numbers are [re, im] pairs in JSON and separate re/im columns in
CSV, which keeps the files free of locale- and format-dependent parsing.
All encoders are deterministic: identical inputs give identical bytes.
"""

from __future__ import annotations

import csv

import numpy as np

from . import fuchsian, modular, params


def encode_complex(z):
    z = complex(z)
    return [z.real, z.imag]


def decode_complex(value):
    """Accept a finite real number or an [re, im] pair of them."""
    parts = value if isinstance(value, (list, tuple)) else [value, 0.0]
    try:
        if len(parts) == 2 and all(isinstance(v, (int, float)) for v in parts):
            z = complex(float(parts[0]), float(parts[1]))
            if np.isfinite(z):
                return z
    except OverflowError:  # an integer beyond the float range
        pass
    raise ValueError(f"expected a finite number or [re, im] pair, got {value!r}")


def encode_complex_seq(values):
    return [encode_complex(z) for z in values]


def decode_complex_seq(values, n=None):
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"expected a list of numbers, got {values!r}")
    out = np.array([decode_complex(v) for v in values], dtype=complex)
    if n is not None and out.shape != (n,):
        raise ValueError(f"expected {n} entries, got {len(out)}")
    return out


def encode_exponents(kappa):
    return encode_complex_seq(kappa.as_array())


def decode_exponents(obj):
    """Five components, or four free ones under 'kappa_free'."""
    if isinstance(obj, dict):
        if "kappa_free" in obj:
            free = decode_complex_seq(obj["kappa_free"], 4)
            return params.Exponents.from_free(*free)
        obj = obj["kappa"]
    comps = decode_complex_seq(obj, 5)
    return params.Exponents(*comps)


def encode_phase_point(pt):
    return {
        "q": encode_complex(pt.q),
        "p": encode_complex(pt.p),
        "t": encode_complex_seq(pt.t),
        "kappa": encode_exponents(pt.kappa),
    }


def _require_object(obj, what):
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")


def decode_phase_point(obj):
    _require_object(obj, "a phase point")
    return fuchsian.PhasePoint.make(
        decode_complex(obj["q"]),
        decode_complex(obj["p"]),
        decode_complex_seq(obj["t"], 3),
        decode_exponents(obj),
    )


def decode_ambient_point(obj):
    _require_object(obj, "an ambient point")
    return modular.AmbientPoint.make(
        decode_complex_seq(obj["x"], 3),
        decode_complex_seq(obj["theta"], 4),
    )


ORBIT_HEADER = (
    "step",
    "re_x1", "im_x1", "re_x2", "im_x2", "re_x3", "im_x3",
    "f_residual",
)

TRAJECTORY_HEADER = (
    "arclength",
    "re_t3", "im_t3",
    "re_q", "im_q", "re_p", "im_p",
    "re_H1", "im_H1", "re_H2", "im_H2", "re_H3", "im_H3",
    "pvi_residual",
)


def write_orbit_csv(fh, samples):
    """One row per orbit step: index, x coordinates, cubic residual."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(ORBIT_HEADER)
    for smp in samples:
        x = smp.point.x
        writer.writerow([
            smp.step,
            repr(float(x[0].real)), repr(float(x[0].imag)),
            repr(float(x[1].real)), repr(float(x[1].imag)),
            repr(float(x[2].real)), repr(float(x[2].imag)),
            repr(float(smp.f_residual)),
        ])


def write_trajectory_csv(fh, traj, residuals=None):
    """One row per accepted flow step.

    The Hamiltonian columns are evaluated over the sample arrays; the
    residual column takes the given per-sample values, or nan when the
    trajectory is not in the (0, 1, x) chart where the scalar equation
    lives.  The rows are formatted one at a time, so no second copy of the
    whole trajectory is held as Python objects; neither the header nor a
    number needs CSV quoting.
    """
    fh.write(",".join(TRAJECTORY_HEADER) + "\n")
    arclength, t, q, p = traj.columns
    hs = [fuchsian._hamiltonian(i0, q, p, t.T, traj.kappa) for i0 in range(3)]
    res = np.full(len(q), np.nan) if residuals is None else np.asarray(residuals, dtype=float)
    cols = np.column_stack([
        arclength, t[:, 2].real, t[:, 2].imag, q.real, q.imag, p.real, p.imag,
        hs[0].real, hs[0].imag, hs[1].real, hs[1].imag, hs[2].real, hs[2].imag,
        res,
    ])
    fh.writelines(",".join(map(repr, row.tolist())) + "\n" for row in cols)


def encode_singular_points(points):
    """Singular points of a cubic surface as plain JSON types."""
    return [
        {"x": encode_complex_seq(p.x), "type": p.local_type, "milnor": p.milnor,
         "hessian_corank": p.hessian_corank}
        for p in points
    ]
