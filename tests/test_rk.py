"""Tests for the adaptive Runge-Kutta core against closed-form solutions."""

import numpy as np
import pytest
import scipy.linalg

from pvi import rk


def test_linear_system_matches_matrix_exponential():
    """y' = A y over [0, 1] equals expm(A) y0 for a random complex A."""
    rng = np.random.default_rng(21)
    for _ in range(5):
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        y0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        y = rk.adaptive_rk(lambda s, y: A @ y, y0, 0.0, 1.0)
        exact = scipy.linalg.expm(A) @ y0
        assert np.max(np.abs(y - exact)) < 1e-9 * max(1.0, float(np.max(np.abs(exact))))


def test_scalar_rational_solution():
    # y' = -y^2, y(0) = 1 has y(s) = 1/(1+s)
    y = rk.adaptive_rk(lambda s, y: -(y**2), np.array([1.0 + 0j]), 0.0, 3.0)
    assert abs(y[0] - 0.25) < 1e-11


def test_backward_integration():
    y = rk.adaptive_rk(lambda s, y: y, np.array([np.e + 0j]), 1.0, 0.0)
    assert abs(y[0] - 1.0) < 1e-10


def test_zero_span_returns_initial_state():
    y0 = np.array([1.0 + 2.0j, -0.5j])
    y = rk.adaptive_rk(lambda s, y: y * 0, y0, 0.7, 0.7)
    assert np.all(y == y0)


def test_pole_on_path_underflows():
    """y' = y^2, y(0) = 1 blows up at s = 1, inside the span."""
    with pytest.raises(rk.StepUnderflowError):
        rk.adaptive_rk(lambda s, y: y**2, np.array([1.0 + 0j]), 0.0, 2.0)


def test_overflowing_attempts_are_rejected_without_a_warning():
    """y' = y^2 from y(0) = 1e200 overflows every attempt a step can make."""
    with pytest.raises(rk.StepUnderflowError, match="underflowed"):
        rk.adaptive_rk(lambda s, y: y * y, np.array([1e200 + 0j]), 0.0, 1.0)


def test_max_steps_exhaustion_raises():
    with pytest.raises(rk.StepUnderflowError):
        rk.adaptive_rk(
            lambda s, y: np.sin(50.0 * s) * y,
            np.array([1.0 + 0j]),
            0.0,
            100.0,
            max_steps=10,
        )


@pytest.mark.parametrize("first_step", [None, 1e-3, 0.05, 0.3])
def test_first_attempt_is_the_smaller_of_a_tenth_of_the_span_and_first_step(first_step):
    stages = []
    rk.adaptive_rk(lambda s, y: stages.append(s) or -y, np.array([1.0 + 0j]), 0.0, 2.0,
                   first_step=first_step)
    # f is called once at s0, then at the stages of the first attempt, the
    # sixth of them at s0 + h
    assert stages[6] == (0.2 if first_step is None else min(0.2, first_step))


def test_first_step_does_not_cap_later_steps():
    steps = []
    rk.adaptive_rk(lambda s, y: -y, np.array([1.0 + 0j]), 0.0, 2.0, first_step=1e-3,
                   on_accept=lambda s, y, h, err: steps.append(h))
    assert steps[0] == 1e-3
    assert max(steps) > 5e-3


def test_on_accept_reports_weighted_error_below_one():
    errs = []
    rk.adaptive_rk(
        lambda s, y: np.array([y[1], -y[0]]),
        np.array([1.0 + 0j, 0.0 + 0j]),
        0.0,
        np.pi,
        on_accept=lambda s, y, h, err: errs.append(err),
    )
    assert errs
    assert all(e <= 1.0 for e in errs)


def test_oscillator_accuracy_at_default_tolerances():
    """Cosine system integrated over ten periods stays near 1e-10 accurate."""
    y = rk.adaptive_rk(
        lambda s, y: np.array([y[1], -y[0]]),
        np.array([1.0 + 0j, 0.0 + 0j]),
        0.0,
        20.0 * np.pi,
    )
    assert abs(y[0] - 1.0) < 1e-9
    assert abs(y[1]) < 1e-9


def test_tolerances_are_the_module_constants(monkeypatch):
    """A tolerance sweep sets rk._RTOL and rk._ATOL: looser takes fewer steps."""

    def accepted_steps():
        steps = []
        rk.adaptive_rk(lambda s, y: 1j * y, np.array([1.0 + 0j]), 0.0, 10.0,
                       on_accept=lambda s, y, h, err: steps.append(h))
        return len(steps)

    tight = accepted_steps()
    monkeypatch.setattr(rk, "_RTOL", 1e-6)
    monkeypatch.setattr(rk, "_ATOL", 1e-8)
    assert accepted_steps() < tight / 5
