"""Microbenchmarks of single layers, with pytest-benchmark.

    PYTHONPATH=src python -m pytest microbench                      # time each layer
    PYTHONPATH=src python -m pytest microbench --benchmark-disable  # run each once, as a test

`perfbench/` times whole `pvi` commands; these time one primitive each:
a modular letter, the Fricke cubic, a 150-step orbit (the length of the
benchmark's orbits), a singular-point solve, the closed-form stratum of a
kappa, Runge-Kutta steps, one straight transport leg, one loop's circle and
one braid return map.  Each checks its result, so a smoke run also catches
a primitive that stopped working.  The directory is outside the
`testpaths` of pyproject.toml: a plain `pytest` does not run it.
"""

import numpy as np
import pytest

from pvi import cubic, flow, fuchsian, modular, params, rk


def _su2(a, b, c, d):
    n = (a * a + b * b + c * c + d * d) ** 0.5
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]]) / n


# Trace coordinates of an SU(2) triple: a point of the compact real
# component of its surface, so that its orbits stay bounded.
_M = (_su2(1, 2, 3, 4), _su2(-2, 1, 0.5, 3), _su2(0.3, -1, 2, -1))
_M4 = np.linalg.inv(_M[2] @ _M[1] @ _M[0])
POINT = modular.AmbientPoint.make(
    [np.trace(_M[1] @ _M[2]).real, np.trace(_M[2] @ _M[0]).real, np.trace(_M[0] @ _M[1]).real],
    params.theta_from_a([np.trace(m).real for m in (*_M, _M4)]).real)
D4_THETA = np.array([8.0, 8.0, 8.0, 28.0], dtype=complex)
PHASE_POINT = fuchsian.PhasePoint.make(
    0.4 + 0.3j, 0.2 - 0.5j, (0.0, 1.0, 2.0), params.Exponents.from_free(0.21, 0.33, 0.17, 0.11))
# the slow primitives run a fixed number of rounds, not pytest-benchmark's calibration
SLOW = {"rounds": 5, "iterations": 1, "warmup_rounds": 1}


def test_apply_word_one_letter(benchmark):
    image = benchmark(modular.apply_word, (1,), POINT)
    assert image.x[1] == POINT.x[0]


def test_eval_f(benchmark):
    value = benchmark(cubic.eval_f, POINT.x, POINT.theta)
    assert abs(value) <= 1e-12  # POINT lies on its surface


def test_orbit_150_steps(benchmark):
    samples = benchmark(modular.orbit, POINT, (2, 2, -3, -3), 150)
    assert len(samples) == 151
    assert max(abs(s.f) for s in samples) <= 1e-12  # the orbit stays on the surface


def test_singular_points_d4(benchmark):
    report = benchmark(cubic.singular_points, D4_THETA)
    assert [p.local_type for p in report.points] == ["D4"]


@pytest.mark.parametrize("kappa, label", [
    ((0.0, 0.0, 0.0, 0.0, 1.0), "D4"),
    # three nodes 4e-9 apart near (2, 2, 2)
    ((1e-5, 0.0, 0.0, 0.0, 1 - 2e-5), "3A1"),
], ids=["D4", "3A1"])
def test_classify_stratum_kappa(benchmark, kappa, label):
    stratum = benchmark(params.classify_stratum, params.Exponents(*kappa))
    assert stratum.dynkin_type == label


def test_rk_steps(benchmark):
    """y' = i y on four components, the size of the companion system: one
    call of 68 accepted and 2 rejected steps, so one step costs 1/70 of it."""
    accepted = []

    def run():
        accepted.clear()
        return rk.adaptive_rk(lambda s, y: 1j * y, np.ones(4, dtype=complex), 0.0, 1.0,
                              on_accept=lambda s, y, h, err: accepted.append(h))

    y = benchmark(run)
    benchmark.extra_info["attempted_steps"] = 70
    assert len(accepted) == 68
    assert np.max(np.abs(y - np.exp(1j))) <= 1e-12


def _circle(eq, pole_index):
    """The circle of the loop around one pole from the automatic basepoint,
    as the leg s -> (z, dz/ds) that fuchsian._loop_transport integrates."""
    c = eq.poles[pole_index]
    r = 0.3 * min(abs(c - other) for i, other in enumerate(eq.poles) if i != pole_index)
    phi0 = np.angle(fuchsian._auto_basepoint(eq.poles) - c)

    def leg(s):
        z = complex(c + r * np.exp(1j * (phi0 + 2 * np.pi * s)))
        return z, 2j * np.pi * (z - c)

    return leg


def test_transport_one_leg(benchmark):
    """The tail from the basepoint to the circle around t = 0."""
    eq = fuchsian.build_equation(PHASE_POINT)
    tail = [fuchsian._auto_basepoint(eq.poles), _circle(eq, 0)(0.0)[0]]
    T = benchmark.pedantic(fuchsian.transport, args=(eq, tail), **SLOW)
    # Liouville: the companion matrix has trace v1 = sum_c r_c / (z - c), so
    # det T = exp(sum_c r_c log((z1 - c) / (z0 - c))) on a straight leg
    z0, z1 = tail
    det = np.exp(sum(r * np.log((z1 - c) / (z0 - c)) for c, r in zip(eq.poles, eq.v1_residues)))
    assert abs(np.linalg.det(T) - det) <= 1e-8 * abs(det)


def test_transport_circle(benchmark):
    """The circle around t = 0, one exact leg."""
    eq = fuchsian.build_equation(PHASE_POINT)
    C = benchmark.pedantic(fuchsian._transport_leg,
                           args=(eq, np.eye(2, dtype=complex), _circle(eq, 0)), **SLOW)
    # Liouville: det C = exp of the contour integral of v1, whose residue at t1 is kappa_1 - 1
    assert abs(np.linalg.det(C) - np.exp(2j * np.pi * PHASE_POINT.kappa.k1)) <= 1e-10


def test_braid_return_map(benchmark):
    end = benchmark.pedantic(flow.nonlinear_monodromy, args=(PHASE_POINT, "1 1"), **SLOW)
    assert np.allclose(end.t, PHASE_POINT.t)
