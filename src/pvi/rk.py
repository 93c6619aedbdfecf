"""Adaptive Dormand-Prince 5(4) integration for complex-valued ODE systems.

The integrands in this package are analytic vector fields evaluated along
real-parametrized segments (paths in a complex plane, or legs of a polyline
in configuration space).  State vectors are complex ndarrays; the embedded
4th-order solution supplies the error estimate.  Pole-aware callers pass a
first step scaled by the distance to the nearest singularity, the only
stiffness source in this problem class; after it the error estimate alone
sets the step.
"""

from __future__ import annotations

import numpy as np


class StepUnderflowError(RuntimeError):
    """Adaptive stepping stalled: the step shrank below the useful limit."""


# Dormand-Prince coefficients (the classic RK45 pair with FSAL).  The nodes
# are Python floats so that the stage abscissae stay Python floats.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_ERR = _B5 - _B4

# Tolerances of every integration: a step is accepted when its error
# estimate, weighted by _ATOL + _RTOL * |y|, has root-mean-square at most 1.
_RTOL = 1e-12
_ATOL = 1e-14
_MIN_STEP = 1e-14  # a shorter step raises StepUnderflowError


def _error_norm(err, y_old, y_new):
    """Root-mean-square of err weighted by _ATOL + _RTOL * max(|y_old|, |y_new|)."""
    r = np.abs(err / (_ATOL + _RTOL * np.maximum(np.abs(y_old), np.abs(y_new))))
    return (float(r @ r) / r.size) ** 0.5


def adaptive_rk(
    f,
    y0,
    s0,
    s1,
    first_step=None,
    max_steps=2_000_000,
    on_accept=None,
):
    """Integrate dy/ds = f(s, y) from s0 to s1 (real s, complex y) at _RTOL, _ATOL.

    The first attempted step is |s1 - s0| / 10, or first_step if that is
    smaller; after it only the error estimate and the end of the span limit
    the step.  on_accept(s, y, h, err) is called after every accepted step
    with the signed step h and the tolerance-weighted error estimate err
    (accepted steps have err <= 1).
    Returns the final state vector.  Raises StepUnderflowError if adaptivity
    stalls, which in practice means the path runs into a singularity; an
    attempt that overflows counts as rejected and raises no numpy warning.
    """
    y = np.asarray(y0, dtype=complex).copy()
    s = float(s0)
    s1 = float(s1)
    span = s1 - s0
    if span == 0.0:
        return y
    direction = 1.0 if span > 0 else -1.0

    k = np.empty((7,) + y.shape, dtype=complex)
    h = abs(span) / 10.0 if first_step is None else min(abs(span) / 10.0, first_step)
    n_accepted = 0
    # an attempt whose error estimate is inf or nan is rejected like any other
    with np.errstate(over="ignore", invalid="ignore"):
        k[0] = f(s, y)
        for _ in range(max_steps):
            if direction * (s - s1) >= 0:
                return y
            h = min(h, abs(s1 - s))
            if h < _MIN_STEP:
                raise StepUnderflowError(
                    f"step size {h:.3e} underflowed at s={s:.6f} (pole or stiffness)"
                )
            hd = direction * h
            for i in range(1, 7):
                k[i] = f(s + _C[i] * hd, y + hd * (_A[i] @ k[:i]))
            y_new = y + hd * (_B5 @ k)
            err = _error_norm(hd * (_ERR @ k), y, y_new)
            if err <= 1.0:
                s = s + hd
                y = y_new
                k[0] = k[6]  # FSAL
                n_accepted += 1
                if on_accept is not None:
                    on_accept(s, y, hd, err)
                factor = 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2)
                h = h * max(0.2, factor)
            else:
                # rejected: k[0] = f(s, y) is still valid, only shrink h
                h = h * max(0.2, 0.9 * err ** -0.2)
    raise StepUnderflowError(f"exceeded {max_steps} steps (accepted {n_accepted})")
