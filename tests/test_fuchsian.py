"""Tests for analytic transport and monodromy of the associated Fuchsian system.

Two classical equations with closed-form transport serve as oracles for the
integrator before the package's own four-pole equation is exercised: the
Euler equation (monomial solutions) and the hypergeometric equation (local
exponents known at every singular point).
"""

import numpy as np
import pytest
from scipy.special import hyp2f1

from pvi import fuchsian, params, rk


GAUSS_A, GAUSS_B, GAUSS_C = 0.3, -0.21, 0.77


def _gauss_equation():
    """First-order system form of the hypergeometric equation.

    y = (F, F') with F = 2F1(a, b; c; z) satisfies the system whose v1 and
    v2 residue data at z = 0, 1 is (-c, c-a-b-1) and (-ab, ab).
    """
    return fuchsian.FuchsianEquation(
        np.array([0j, 1 + 0j]),
        np.array([-GAUSS_C + 0j, GAUSS_C - GAUSS_A - GAUSS_B - 1 + 0j]),
        np.array([-GAUSS_A * GAUSS_B + 0j, GAUSS_A * GAUSS_B + 0j]),
    )


def _gauss_vector(z):
    f = hyp2f1(GAUSS_A, GAUSS_B, GAUSS_C, z)
    fp = GAUSS_A * GAUSS_B / GAUSS_C * hyp2f1(GAUSS_A + 1, GAUSS_B + 1, GAUSS_C + 1, z)
    return np.array([f, fp], dtype=complex)


def _generic_phase_point():
    k = params.Exponents.from_free(0.21, 0.33, 0.17, 0.11)
    return fuchsian.PhasePoint.make(0.4 + 0.3j, 0.2 - 0.5j, (0.0, 1.0, 2.0), k)


def test_transport_euler_equation_loop():
    """f'' = (r/z) f' has basis (1, z^{1+r}); the loop matrix is triangular."""
    r = 0.37
    eq = fuchsian.FuchsianEquation(
        np.array([0j]), np.array([r + 0j]), np.array([0j])
    )
    z0 = 1.3 - 0.2j
    n = 48
    circle = [z0 * np.exp(2j * np.pi * m / n) for m in range(n + 1)]
    T = fuchsian.transport(eq, circle)
    w = np.exp(2j * np.pi * r)
    expected = np.array([[1.0, z0 * (w - 1) / (1 + r)], [0.0, w]])
    assert np.max(np.abs(T - expected)) < 1e-9


def test_transport_hypergeometric_between_ordinary_points():
    za, zb = 0.5, 0.31
    path = np.array([za, 0.4 + 0.25j, zb])
    T = fuchsian.transport(_gauss_equation(), path)
    assert np.max(np.abs(T @ _gauss_vector(za) - _gauss_vector(zb))) < 1e-9


def test_hypergeometric_loop_eigenvalues():
    """Monodromy at z = 0 has eigenvalues {1, exp(-2 pi i c)}."""
    eq = _gauss_equation()
    loop = fuchsian.loop_around(eq, 0, basepoint=0.5 + 0j)
    T = fuchsian.transport(eq, loop)
    got = sorted(np.linalg.eigvals(T), key=lambda u: u.real)
    want = sorted([1.0, np.exp(-2j * np.pi * GAUSS_C)], key=lambda u: u.real)
    assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-8


def test_transport_reverses_to_inverse():
    eq = _gauss_equation()
    path = np.array([0.5, 0.45 + 0.3j, -0.2 + 0.4j])
    T_fwd = fuchsian.transport(eq, path)
    T_back = fuchsian.transport(eq, path[::-1])
    assert np.max(np.abs(T_back @ T_fwd - np.eye(2))) < 1e-10


def test_segment_pole_distance_of_a_huge_segment():
    """No |d|^2 is formed, so a segment of length 1e300 does not overflow."""
    assert fuchsian._segment_pole_distance(1e300 + 0j, 2e300 + 0j, 0.4 + 0j) == 1e300
    assert fuchsian._segment_pole_distance(-1e300 + 0j, 1e300 + 0j, 3j) == 3.0
    assert fuchsian._segment_pole_distance(1j, 1j, 0j) == 1.0


def test_transport_refuses_path_through_pole():
    eq = _gauss_equation()
    with pytest.raises(fuchsian.PoleClearanceError):
        fuchsian.transport(eq, np.array([0.5 + 0j, -0.5 + 0j]))


def test_stalled_leg_stops_at_the_step_cap():
    """Solutions oscillating ~1e4 times per unit length exhaust one leg's step cap."""
    eq = fuchsian.FuchsianEquation(np.array([0j]), np.array([0j]), np.array([1e8 + 0j]))
    with pytest.raises(rk.StepUnderflowError, match="exceeded"):
        fuchsian.transport(eq, np.array([1.0 + 0j, 2.0 + 0j]))


class TestPhasePoint:
    def test_validation(self):
        k = params.Exponents.from_free(0.21, 0.33, 0.17, 0.11)
        with pytest.raises(ValueError):
            fuchsian.PhasePoint.make(0.4, 0.2, (0.0, 0.0, 2.0), k)
        with pytest.raises(ValueError):
            fuchsian.PhasePoint.make(1.0, 0.2, (0.0, 1.0, 2.0), k)

    def test_poles_and_gap(self):
        pt = _generic_phase_point()
        assert list(pt.poles()) == [0.0, 1.0, 2.0, pt.q]
        assert 0.0 < pt.min_pole_gap() <= 1.0

    def test_min_gap_takes_an_array_or_python_scalars(self):
        points = [0j, 1 + 0j, 0.5 + 0.1j]
        assert fuchsian._min_gap(points) == fuchsian._min_gap(np.array(points)) == abs(0.5 - 0.1j)
        assert fuchsian._min_gap([1j]) == float("inf")


def test_hamiltonian_over_sample_arrays_matches_each_sample():
    """The one formula of H_i, evaluated on arrays and per phase point."""
    rng = np.random.default_rng(7)
    k = params.Exponents.from_free(0.21, 0.33, 0.17, 0.11)
    q = rng.normal(size=20) + 1j * rng.normal(size=20)
    p = rng.normal(size=20) + 1j * rng.normal(size=20)
    t = np.column_stack([np.zeros(20), np.ones(20), 2.0 + rng.normal(size=20) * 0.3j])
    for i in (1, 2, 3):
        h = fuchsian._hamiltonian(i - 1, q, p, t.T, k)
        for n in range(20):
            want = fuchsian.hamiltonian(i, fuchsian.PhasePoint.make(q[n], p[n], t[n], k))
            assert abs(h[n] - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "q, p, t",
    [(0.4, 1e160, (0, 1, 2)), (1e200, 0.3, (0, 1, 2)), (0.4, 0.3, (0, 1, 1e300))],
    ids=["p-1e160", "q-1e200", "t3-1e300"],
)
def test_build_equation_refuses_overflowing_hamiltonians(q, p, t):
    pt = fuchsian.PhasePoint.make(q, p, t, params.Exponents.from_free(0.1, 0.2, 0.3, 0.1))
    with pytest.raises(ValueError, match="H_i overflow at q = .*, p = "):
        fuchsian.build_equation(pt)


class TestResidueStructure:
    """Derived identities pinning the residue data of the equation."""

    def setup_method(self):
        self.rng = np.random.default_rng(31)

    def _random_phase_point(self):
        k = params.Exponents.from_free(*self.rng.uniform(-0.6, 0.6, size=4))
        t = np.sort(self.rng.uniform(-1.0, 1.0, size=3)) * np.array([1.0, 1.2, 1.4])
        while np.min(np.diff(t)) < 0.3:
            t = np.sort(self.rng.uniform(-1.0, 1.0, size=3)) * np.array([1.0, 1.2, 1.4])
        q = self.rng.normal() + 1j * self.rng.normal()
        p = self.rng.normal() + 1j * self.rng.normal()
        return fuchsian.PhasePoint.make(q, p, tuple(t), k)

    def test_v2_residues_sum_to_zero(self):
        """Regularity at infinity: the residues of v2 must cancel."""
        for _ in range(30):
            pt = self._random_phase_point()
            eq = fuchsian.build_equation(pt)
            assert abs(np.sum(eq.v2_residues)) < 1e-10

    def test_v2_first_moment_identity(self):
        """sum_i c_i res_i(v2) = k0 (k0 + k4) over the four poles c_i."""
        for _ in range(30):
            pt = self._random_phase_point()
            eq = fuchsian.build_equation(pt)
            k = pt.kappa
            want = k.k0 * (k.k0 + k.k4)
            got = np.sum(eq.poles * eq.v2_residues)
            assert abs(got - want) < 1e-10

    def test_v1_residues(self):
        pt = self._random_phase_point()
        eq = fuchsian.build_equation(pt)
        k = pt.kappa
        want = np.array([k.k1 - 1.0, k.k2 - 1.0, k.k3 - 1.0, 1.0])
        assert np.max(np.abs(eq.v1_residues - want)) < 1e-14

    def test_indicial_roots_at_the_poles(self):
        pt = self._random_phase_point()
        eq = fuchsian.build_equation(pt)
        k = pt.kappa
        kk = (k.k1, k.k2, k.k3)
        for i in range(3):
            r0, r1 = eq.indicial_roots(i)
            assert abs(r0) < 1e-14
            assert abs(r1 - kk[i]) < 1e-12
        r0, r1 = eq.indicial_roots(3)
        assert abs(r0) < 1e-14
        assert abs(r1 - 2.0) < 1e-14  # apparent double root at q


class TestMonodromy:
    def setup_method(self):
        self.pt = _generic_phase_point()
        self.rep = fuchsian.monodromy(self.pt)

    def test_traces_match_local_exponents(self):
        """Normalized traces reproduce a_i = 2cos(pi k_i), a4 = -2cos(pi k4)."""
        a = params.kappa_to_a(self.pt.kappa)
        assert np.max(np.abs(self.rep.traces() - a)) < 1e-6

    def test_determinants_are_one(self):
        for m in self.rep.matrices:
            assert abs(np.linalg.det(m) - 1.0) < 1e-8

    def test_product_is_identity(self):
        assert self.rep.product_defect() < 1e-8

    def test_raw_loop_eigenvalues(self):
        """Before normalization the loop at t1 has eigenvalues {1, e^{2 pi i k1}}."""
        eq = fuchsian.build_equation(self.pt)
        loop = fuchsian.loop_around(eq, 0, fuchsian._auto_basepoint(eq.poles))
        T = fuchsian.transport(eq, loop)
        got = sorted(np.linalg.eigvals(T), key=lambda u: (u.real, u.imag))
        want = sorted(
            [1.0, np.exp(2j * np.pi * self.pt.kappa.k1)], key=lambda u: (u.real, u.imag)
        )
        assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-8

    def test_surface_coordinates_lie_on_fricke_surface(self):
        sp = fuchsian.rh_point(self.pt)
        assert sp.residual < 1e-6
        theta = params.rh_param(self.pt.kappa)
        assert np.max(np.abs(sp.theta - theta)) < 1e-10

    def test_basepoint_independence(self):
        rep2 = fuchsian.monodromy(self.pt, basepoint=1.0 + 3.5j)
        assert np.max(np.abs(rep2.traces() - self.rep.traces())) < 1e-8
        drift = np.abs(rep2.surface_coordinates() - self.rep.surface_coordinates())
        assert np.max(drift) < 1e-8


def test_apparent_singularity_of_the_true_equation(monkeypatch):
    """The check is algebraic: it integrates nothing."""
    def no_integration(*args, **kwargs):
        raise AssertionError("apparent_check integrated")

    monkeypatch.setattr(fuchsian, "adaptive_rk", no_integration)
    monkeypatch.setattr(fuchsian, "transport", no_integration)
    assert fuchsian.apparent_check(_generic_phase_point()) < 1e-14


def test_apparent_check_is_relative_at_large_p():
    """At p = 1e5 the absolute obstruction is ~1e-6 of rounding; the relative one is not."""
    k = params.Exponents.from_free(0.21, 0.33, 0.17, 0.11)
    pt = fuchsian.PhasePoint.make(0.4 + 0.3j, 1e5, (0.0, 1.0, 2.0), k)
    assert fuchsian.apparent_check(pt) <= 1e-14


def test_corrupted_hamiltonian_breaks_apparent_check(monkeypatch):
    hamiltonian = fuchsian._hamiltonian
    monkeypatch.setattr(fuchsian, "_hamiltonian", lambda *args: hamiltonian(*args) + 0.1)
    assert fuchsian.apparent_check(_generic_phase_point()) >= 1e-2


def test_true_equation_has_no_monodromy_at_q():
    """The numeric loop around q agrees with the closed-form obstruction."""
    eq = fuchsian.build_equation(_generic_phase_point())
    T = fuchsian._loop_transport(eq, 3, fuchsian._auto_basepoint(eq.poles))
    assert np.linalg.norm(T - np.eye(2)) < 1e-9


def test_corrupted_residue_breaks_apparency():
    """Shifting one v2 residue by 0.1 must produce visible monodromy at q."""
    pt = _generic_phase_point()
    eq = fuchsian.build_equation(pt)
    bad = fuchsian.FuchsianEquation(
        eq.poles, eq.v1_residues, eq.v2_residues + np.array([0.1, 0, 0, 0])
    )
    loop = fuchsian.loop_around(bad, 3, fuchsian._auto_basepoint(bad.poles))
    T = fuchsian.transport(bad, loop)
    assert np.linalg.norm(T - np.eye(2)) > 1e-3


@pytest.mark.parametrize(
    "eq, basepoint, pole_indices",
    [
        (fuchsian.build_equation(_generic_phase_point()), None, range(4)),
        (_gauss_equation(), 0.5 + 0j, range(2)),
    ],
    ids=["generic", "gauss"],
)
def test_loop_transport_inverts_the_tail(eq, basepoint, pole_indices):
    """Tail integrated once and inverted equals the whole polyline loop."""
    if basepoint is None:
        basepoint = fuchsian._auto_basepoint(eq.poles)
    for i in pole_indices:
        full = fuchsian.transport(eq, fuchsian.loop_around(eq, i, basepoint=basepoint))
        once = fuchsian._loop_transport(eq, i, basepoint)
        assert np.max(np.abs(once - full)) < 1e-10


def _golden_rh_point():
    """The generic point of the rh entries of tests/golden/cli_corpus.json."""
    k = params.Exponents.from_free(0.3, -0.2, 0.45, 0.15)
    return fuchsian.PhasePoint.make(0.4 + 0.3j, 0.2 - 0.1j, (0.0, 1.0, 2.0), k)


class TestTransportSteps:
    def test_step_sequence_is_unchanged(self, monkeypatch):
        """Accepted steps and RHS evaluations of monodromy; apparent_check adds none.

        The counts were recorded while transport clamped every attempted
        step to 0.25 times the distance to the nearest pole; the first step
        of each leg now carries that clamp alone, and the counts stay.
        """
        counts = [0, 0]
        original = fuchsian.adaptive_rk

        def counting_rk(f, *args, **kwargs):
            def counted_f(s, y):
                counts[1] += 1
                return f(s, y)

            def accepted(s, y, h, err):
                counts[0] += 1

            return original(counted_f, *args, on_accept=accepted, **kwargs)

        monkeypatch.setattr(fuchsian, "adaptive_rk", counting_rk)
        pt = _golden_rh_point()
        fuchsian.monodromy(pt)
        assert counts == [2229, 13935]
        fuchsian.apparent_check(pt)
        assert counts == [2229, 13935]

    def test_later_steps_stay_inside_the_old_pole_clamp(self, monkeypatch):
        """After a leg's first step, every accepted step is at most half of
        0.25 |z - c| / |seg| at its start, the clamp transport no longer applies."""
        pending, legs = [], []
        original_transport, original_rk = fuchsian.transport, fuchsian.adaptive_rk

        def recording_transport(eq, path):
            for z0, z1 in zip(path[:-1], path[1:]):
                if z1 != z0:
                    pending.append((eq.poles, complex(z0), complex(z1 - z0), []))
            return original_transport(eq, path)

        def recording_rk(f, *args, **kwargs):
            leg = pending.pop(0)
            legs.append(leg)
            return original_rk(f, *args, **kwargs,
                               on_accept=lambda s, y, h, err: leg[3].append((s - h, abs(h))))

        monkeypatch.setattr(fuchsian, "transport", recording_transport)
        monkeypatch.setattr(fuchsian, "adaptive_rk", recording_rk)
        pt = _golden_rh_point()
        fuchsian.monodromy(pt)
        fuchsian.apparent_check(pt)
        assert len(legs) == 75 and not pending
        margin = min(
            max(1e-12, 0.25 / abs(seg) * min(abs(z0 + s * seg - c) for c in poles)) / h
            for poles, z0, seg, steps in legs
            for s, h in steps[1:]
        )
        assert margin >= 2.0
