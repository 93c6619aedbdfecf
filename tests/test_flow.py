"""Tests for the isomonodromic flow: integration, return maps, Riccati locus."""

import cmath
import logging
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pvi import cubic, flow, fuchsian, modular, params


def _kappa():
    return params.Exponents.from_free(0.21, 0.33, 0.17, 0.11)


def _kappa_riccati():
    # free components summing to 1 exactly, so k0 = 0
    k = params.Exponents.from_free(0.23, 0.31, 0.17, 0.29)
    assert k.k0 == 0.0
    return k


def _phase_point():
    return fuchsian.PhasePoint.make(0.4 + 0.3j, 0.2 - 0.5j, (0.0, 1.0, 2.0), _kappa())


class TestTimePath:
    def test_validation(self):
        with pytest.raises(ValueError):
            flow.TimePath.make([])
        with pytest.raises(ValueError):
            flow.TimePath.make([(0.0, 1.0, 1.0)])  # coincident configuration

    def test_line_and_segments(self):
        path = flow.TimePath.make([(0, 1, 2), (0, 1, 2.5), (0, 1.5, 2.5)])
        assert len(path.segments()) == 2
        line = flow.TimePath.line((0, 1, 2), (0, 1, 3))
        assert len(line.segments()) == 1
        assert line.length() == pytest.approx(1.0)

    def test_interior_collision_rejected_at_construction(self):
        """A segment whose configuration degenerates midway is refused."""
        with pytest.raises(ValueError):
            flow.TimePath.make([(0.0, 1.0, 2.0), (0.0, 3.0, 2.0)])

    def test_overflowing_pole_triple_is_rejected(self):
        """(t_i - t_j)(t_i - t_k), the divisor of H_i, must stay finite."""
        with pytest.raises(ValueError, match=r"\(t_i - t_j\)\(t_i - t_k\) overflows"):
            flow.TimePath.make([(0, 1, 2), (0, 1, 1e160)])

    def test_min_gap_accounts_for_segment_interiors(self):
        # closest approach of t2 to t3 happens inside the segment
        path = flow.TimePath.make([(0.0, 1.0, 2.0 + 1.0j), (0.0, 3.0, 2.0 + 1.0j)])
        assert path.min_gap() == pytest.approx(1.0, rel=1e-12)


class TestVectorField:
    def setup_method(self):
        self.rng = np.random.default_rng(41)
        self.kappa = _kappa()

    def test_matches_hamiltonian_difference_quotients(self):
        """dq = sum_i dH_i/dp dt_i and dp = -sum_i dH_i/dq dt_i."""
        eps = 1e-6
        t = (0.0, 1.0, 2.0)
        for _ in range(5):
            q = complex(self.rng.normal(), self.rng.normal())
            p = complex(self.rng.normal(), self.rng.normal())
            px = fuchsian.PhasePoint.make(q, p, t, self.kappa)
            dt = self.rng.normal(size=3) + 1j * self.rng.normal(size=3)
            dq, dp = flow.vector_field(px, dt)
            dq_fd = 0.0
            dp_fd = 0.0
            for i in (1, 2, 3):
                h_pp = fuchsian.hamiltonian(
                    i, fuchsian.PhasePoint.make(q, p + eps, t, self.kappa)
                )
                h_pm = fuchsian.hamiltonian(
                    i, fuchsian.PhasePoint.make(q, p - eps, t, self.kappa)
                )
                dq_fd += dt[i - 1] * (h_pp - h_pm) / (2 * eps)
                h_qp = fuchsian.hamiltonian(
                    i, fuchsian.PhasePoint.make(q + eps, p, t, self.kappa)
                )
                h_qm = fuchsian.hamiltonian(
                    i, fuchsian.PhasePoint.make(q - eps, p, t, self.kappa)
                )
                dp_fd -= dt[i - 1] * (h_qp - h_qm) / (2 * eps)
            assert abs(dq - dq_fd) < 1e-7
            assert abs(dp - dp_fd) < 1e-7

    def test_zero_displacement_gives_zero_field(self):
        dq, dp = flow.vector_field(_phase_point(), (0, 0, 0))
        assert dq == 0 and dp == 0

    def test_riccati_locus_is_invariant(self):
        """With k0 = 0 and p = 0, the p-component of the field vanishes."""
        pr = fuchsian.PhasePoint.make(0.4 + 0.3j, 0.0, (0.0, 1.0, 2.0), _kappa_riccati())
        for _ in range(3):
            dt = self.rng.normal(size=3) + 1j * self.rng.normal(size=3)
            _, dp = flow.vector_field(pr, dt)
            assert abs(dp) < 1e-15


def _numpy_field(q, p, t, kk, b, dt):
    """The field as written for numpy complex128 values, the reference of _field."""
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


def _both_fields(q, p, t, kappa, dt):
    """(_field on Python scalars, _numpy_field on complex128), warnings ignored by numpy."""
    kk, b = flow._field_constants(kappa)
    got = flow._field(q, p, list(t), kk, b, list(dt))
    c = np.complex128
    with np.errstate(all="ignore"):
        want = _numpy_field(
            c(q), c(p), np.array(t, dtype=complex), tuple(c(k) for k in kk), c(b),
            np.array(dt, dtype=complex),
        )
    return got, tuple(complex(z) for z in want)


COORD = st.floats(-3.0, 3.0)
CPLX = st.builds(complex, COORD, COORD)


class TestFieldAgreesWithNumpy:
    """_field on Python scalars agrees with the numpy complex128 formula to rounding."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(q=CPLX, p=CPLX, c=CPLX, dt=st.lists(CPLX, min_size=3, max_size=3),
           free=st.lists(st.floats(-0.8, 0.8), min_size=4, max_size=4),
           size=st.floats(0.1, 3.0), ratio=st.floats(0.0, 0.99),
           signs=st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1))),
           real_major=st.booleans())
    def test_agrees_with_the_numpy_formula_to_rounding(
        self, q, p, c, dt, free, size, ratio, signs, real_major
    ):
        # t = (c, c + 1, c + x) makes the first quotient's divisor about x,
        # so real_major picks which branch of Smith's division that term takes.
        major, minor = signs[0] * size, signs[1] * size * ratio
        x = complex(major, minor) if real_major else complex(minor, major)
        assume(abs(x - 1.0) > 0.05)
        t = (c, c + 1.0, c + x)
        d0 = (t[0] - t[1]) * (t[0] - t[2])
        assert (abs(d0.real) >= abs(d0.imag)) == real_major
        kappa = params.Exponents.from_free(*free)
        got, want = _both_fields(q, p, t, kappa, dt)
        # the two sides round each pole term differently (dt_i / d_i first
        # here, last in numpy's), so they differ by a few units in the last
        # place of the pole terms' magnitudes
        terms = [
            _both_fields(q, p, t, kappa, [z if j == i else 0j for j, z in enumerate(dt)])[1]
            for i in range(3)
        ]
        for n in range(2):
            scale = sum(abs(term[n]) for term in terms)
            assert abs(got[n] - want[n]) <= 8 * np.finfo(float).eps * scale

    def test_underflowed_divisor_gives_nan_without_a_warning(self):
        """Every divisor (t_i - t_j)(t_i - t_k) underflows to 0 here."""
        t = (0j, 1e-170 + 0j, 2e-170 + 0j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, want = _both_fields(0.4 + 0.3j, 0.2 - 0.5j, t, _kappa(), (1, 1, 1))
        assert all(cmath.isnan(z) for z in got)
        assert not (cmath.isfinite(want[0]) and cmath.isfinite(want[1]))

    def test_overflow_gives_inf_or_nan_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, want = _both_fields(1e200 + 0j, 0.2 - 0.5j, (0j, 1 + 0j, 2 + 0j), _kappa(), (0, 0, 1))
        assert not (cmath.isfinite(got[0]) and cmath.isfinite(got[1]))
        assert not (cmath.isfinite(want[0]) and cmath.isfinite(want[1]))


class TestIntegrate:
    def test_zero_length_path(self):
        pt = _phase_point()
        traj = flow.integrate(pt, [pt.t])
        assert len(traj) == 1
        assert traj.end().q == pt.q

    def test_round_trip_returns_to_start(self):
        pt = _phase_point()
        fwd = flow.TimePath.make([(0, 1, 2), (0, 1, 2.5 + 0.4j)])
        back = flow.TimePath.make([(0, 1, 2.5 + 0.4j), (0, 1, 2)])
        end = flow.integrate(pt, fwd).end()
        rev = flow.integrate(end, back).end()
        assert abs(rev.q - pt.q) < 1e-7
        assert abs(rev.p - pt.p) < 1e-7

    def test_flow_is_isomonodromic(self):
        """The surface point computed from monodromy is constant along the flow."""
        pt = _phase_point()
        path = flow.TimePath.make([(0, 1, 2), (0, 1, 2.5 + 0.4j)])
        end = flow.integrate(pt, path).end()
        drift = np.abs(fuchsian.rh_point(end).x - fuchsian.rh_point(pt).x)
        assert np.max(drift) < 1e-5

    def test_samples_are_monotone_in_arclength(self):
        pt = _phase_point()
        traj = flow.integrate(pt, flow.TimePath.make([(0, 1, 2), (0, 1, 2.3)]))
        arcs = [s.arclength for s in traj.samples]
        assert all(b > a for a, b in zip(arcs, arcs[1:]))
        assert traj.samples[-1].arclength == pytest.approx(0.3, rel=1e-9)

    def test_step_sequence_is_unchanged(self):
        """The accepted steps on the first anchor of the benchmark's flow workload.

        The point is that anchor without its jitter and the path is the
        workload's loop around t2 = 1 (perfbench/workloads.py).  1735 pins
        the integrator: the Dormand-Prince pair, its tolerances, its step
        size control and each segment's first step.  Rounding in the field
        does not move it: numpy's complex division and CPython's both give
        1735.
        """
        xs = (
            [2.0 + 0j]
            + [complex(1 + 0.6 * np.exp(2j * np.pi * k / 16)) for k in range(17)]
            + [2.0 + 0j]
        )
        pt = fuchsian.PhasePoint.make(
            -0.6804 + 0.5986j, -0.0403 + 0.1910j, (0, 1, 2),
            params.Exponents.from_free(0.6498, 0.3158, -0.2571, -0.7730),
        )
        traj = flow.integrate(pt, flow.TimePath.make([(0, 1, x) for x in xs]))
        assert len(traj) - 1 == 1735

    def test_later_steps_stay_inside_the_old_pole_clamp(self, monkeypatch):
        """After a segment's first step, every accepted step moves t by at
        most half of 0.05 times the minimal pole gap at its start, the clamp
        integrate no longer applies.  The point and path are those of the
        in-chart flow entry of tests/golden/cli_corpus.json.
        """
        legs = []
        original = flow.rk.adaptive_rk

        def counting_rk(f, *args, on_accept, **kwargs):
            legs.append(0)

            def accepted(*a):
                legs[-1] += 1
                on_accept(*a)

            return original(f, *args, on_accept=accepted, **kwargs)

        monkeypatch.setattr(flow.rk, "adaptive_rk", counting_rk)
        pt = fuchsian.PhasePoint.make(
            -0.6804 + 0.5986j, -0.0403 + 0.191j, (0, 1, 2),
            params.Exponents.from_free(0.6498, 0.3158, -0.2571, -0.773),
        )
        traj = flow.integrate(pt, flow.TimePath.make([(0, 1, 2), (0, 1, 1.6), (0, 1, 1.6 + 0.3j)]))
        t = traj.columns[1]
        assert len(legs) == 2 and sum(legs) == len(traj) - 1
        # steps i -> i + 1 after each leg's first
        later = [i for start, n in zip(np.cumsum([0] + legs), legs) for i in range(start + 1, start + n)]
        margin = min(
            0.05 * fuchsian._min_gap(t[i]) / np.max(np.abs(t[i + 1] - t[i])) for i in later
        )
        assert margin >= 2.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("q, p", [(0.4, 1e300), (1e200, 0.3), (1e-9, 0.3)])
    def test_out_of_bounds_start_is_a_blow_up_at_arclength_zero(self, q, p):
        pt = fuchsian.PhasePoint.make(q, p, (0.0, 1.0, 2.0), _kappa())
        with pytest.raises(flow.BlowUpError, match="at arclength 0.000000") as info:
            flow.integrate(pt, flow.TimePath.make([(0, 1, 2), (0, 1, 2.3)]))
        assert (info.value.arclength, info.value.q, info.value.p) == (0.0, pt.q, pt.p)

    def test_far_pole_sets_no_clearance_of_its_own(self):
        """The blow-up clearance follows the local pole gap, not the largest |t|."""
        pt = fuchsian.PhasePoint.make(0.4, 0.1, (0.0, 1.0, 1e10), _kappa())
        traj = flow.integrate(pt, flow.TimePath.make([(0, 1, 1e10), (0, 1, 2e10)]))
        assert traj.samples[-1].t[2] == 2e10
        assert flow.pvi_residual(traj).max() <= 1e-15

    def test_logs_one_debug_line(self, caplog):
        caplog.set_level(logging.DEBUG, logger="pvi.flow")
        path = flow.TimePath.make([(0, 1, 2), (0, 1, 2.3), (0, 1, 2.3), (0, 1, 2.3 + 0.2j)])
        traj = flow.integrate(_phase_point(), path)
        (record,) = caplog.records
        max_q = max(abs(s.q) for s in traj.samples)
        assert (record.name, record.levelno) == ("pvi.flow", logging.DEBUG)
        assert record.getMessage() == (
            f"flow.integrate: 2 moving segments, {len(traj) - 1} accepted samples, "
            f"max |q| {max_q:.6g}"
        )

    def test_blow_up_is_reported_with_location(self):
        """A real-axis run into a movable pole raises with position data."""
        pt = fuchsian.PhasePoint.make(1.5, 2.0, (0.0, 1.0, 2.0), _kappa())
        path = flow.TimePath.make([(0, 1, 2), (0, 1, 6)])
        with pytest.raises(flow.BlowUpError) as info:
            flow.integrate(pt, path)
        err = info.value
        assert 0.0 < err.arclength < 4.0
        # q collides with the pole at t2 = 1 while p diverges
        assert abs(err.q - 1.0) < 1e-4
        assert abs(err.p) > 1e3


class TestPviResidual:
    """The scalar-equation residual as a data-integrity check."""

    def setup_method(self):
        self.kappa = _kappa()
        self.start = fuchsian.PhasePoint.make(
            0.4 + 0.3j, 0.2 - 0.5j, (0.0, 1.0, 2.0 + 0.1j), self.kappa
        )
        self.path = flow.TimePath.make([(0, 1, 2 + 0.1j), (0, 1, 3 + 0.1j)])
        self.traj = flow.integrate(self.start, self.path)

    def test_genuine_trajectory_has_small_residual(self):
        res = flow.pvi_residual(self.traj)
        assert len(res) == len(self.traj)
        assert res.max() < 1e-6

    def test_spliced_trajectory_is_detected(self):
        """A p-jump between samples produces a residual far above tolerance."""
        cut = len(self.traj.samples) // 2
        mid = self.traj.samples[cut]
        restart = fuchsian.PhasePoint.make(mid.q, mid.p + 0.1, mid.t, self.kappa)
        rest = flow.integrate(
            restart, flow.TimePath.make([mid.t, (0, 1, 3 + 0.1j)])
        )
        spliced = flow.Trajectory(
            kappa=self.kappa,
            samples=self.traj.samples[: cut + 1] + rest.samples[1:],
        )
        assert flow.pvi_residual(spliced).max() > 1e-3

    def test_frozen_coordinates_are_detected(self):
        """Constant q with moving t3 is not a solution and must fail."""
        fake = flow.Trajectory(
            kappa=self.kappa,
            samples=tuple(
                flow.FlowSample(
                    s, np.array([0, 1, 2.0 + 0.1j + s]), 0.4 + 0.3j, 0.2 - 0.5j
                )
                for s in np.linspace(0, 1, 30)
            ),
        )
        assert flow.pvi_residual(fake).max() > 1e-3

    def test_non_finite_residual_is_an_error(self):
        """At |x| ~ 1e100 the residual's x^4 overflows; it is refused, not returned."""
        pt = fuchsian.PhasePoint.make(0.4, 0.1, (0.0, 1.0, 1e100), _kappa())
        traj = flow.integrate(pt, flow.TimePath.make([(0, 1, 1e100), (0, 1, 2e100 + 1e100j)]))
        with pytest.raises(ValueError, match="residual is not finite"):
            flow.pvi_residual(traj)

    def test_rejects_moving_first_two_times(self):
        traj = flow.integrate(
            _phase_point(), flow.TimePath.make([(0, 1, 2), (0, 1.2, 2)])
        )
        with pytest.raises(ValueError):
            flow.pvi_residual(traj)

    def test_chart_predicate(self):
        assert self.traj.in_chart()
        off = flow.integrate(_phase_point(), flow.TimePath.make([(0, 1, 2), (0, 1.2, 2)]))
        assert not off.in_chart()

    def test_matches_a_per_sample_scalar_evaluation(self):
        """The array residual against the defect computed one sample at a time."""
        want = []
        prev = None
        for smp in self.traj.samples:
            q, p, x = complex(smp.q), complex(smp.p), complex(smp.t[2])
            f, _, chain = flow._chart_derivatives(q, p, x, self.kappa)
            r = abs(chain - flow._pvi_rhs(q, f, x, self.kappa))
            if prev is not None:
                x0, q0, f0, c0 = prev
                h = x - x0
                if abs(h) > 1e-13:
                    r += abs(q - q0 - 0.5 * h * (f0 + f) + h * h / 12.0 * (chain - c0)) / abs(h)
            want.append(r)
            prev = (x, q, f, chain)
        got = flow.pvi_residual(self.traj)
        assert np.max(np.abs(got - np.array(want))) <= 1e-12


class TestNonlinearMonodromy:
    def setup_method(self):
        self.pt = _phase_point()

    def test_trivial_braid_is_identity(self):
        ret = flow.nonlinear_monodromy(self.pt, [])
        assert abs(ret.q - self.pt.q) < 1e-6
        assert abs(ret.p - self.pt.p) < 1e-6

    def test_impure_braid_is_rejected(self):
        with pytest.raises(ValueError):
            flow.nonlinear_monodromy(self.pt, [1])

    def test_braid_loop_returns_to_the_same_configuration(self):
        ret = flow.nonlinear_monodromy(self.pt, [1, 1])
        assert np.max(np.abs(np.asarray(ret.t) - np.asarray(self.pt.t))) < 1e-12

    def test_braid_square_matches_modular_generator(self):
        """The return map of beta_1^2 equals g_1^2 on trace coordinates.

        Both orientations are computed and exactly one of them must match,
        which pins the dictionary between braids and modular words.
        """
        ret = flow.nonlinear_monodromy(self.pt, [1, 1])
        x0 = fuchsian.rh_point(self.pt)
        x1 = fuchsian.rh_point(ret)
        z = modular.AmbientPoint.make(x0.x, x0.theta)
        fwd = modular.apply_word(modular.braid_to_modular([1, 1], "fwd"), z)
        inv = modular.apply_word(modular.braid_to_modular([1, 1], "inv"), z)
        d_fwd = np.max(np.abs(x1.x - fwd.x))
        d_inv = np.max(np.abs(x1.x - inv.x))
        assert d_fwd < 1e-4
        assert d_inv > 1e-4


class TestBraidLoopPath:
    def test_pure_braid_closes_exactly(self):
        path = flow.braid_loop_path((0.0, 1.0, 2.0), [2, 2])
        first = np.asarray(path.vertices[0])
        last = np.asarray(path.vertices[-1])
        assert np.max(np.abs(first - last)) == 0.0

    def test_single_letter_transposes(self):
        path = flow.braid_loop_path((0.0, 1.0, 2.0), [1])
        last = np.asarray(path.vertices[-1])
        assert np.max(np.abs(last - np.array([1.0, 0.0, 2.0]))) < 1e-12

    def test_third_point_near_the_ring_is_rejected(self):
        # swapping t1 and t3 sweeps a circle passing close to t2 = 1.9
        with pytest.raises(ValueError):
            flow.braid_loop_path((0.0, 1.9, 2.0), [3])

    def test_third_point_at_the_center_is_fine(self):
        # t2 = 1 sits at the center of the (t1, t3) braid circle, radius 1
        path = flow.braid_loop_path((0.0, 1.0, 2.0), [3])
        assert path.min_gap() > 0.5


class TestRiccati:
    def setup_method(self):
        self.kappa = _kappa_riccati()
        self.start = fuchsian.PhasePoint.make(
            0.4 + 0.3j, 0.0, (0.0, 1.0, 2.0), self.kappa
        )
        self.path = flow.TimePath.make([(0, 1, 2), (0, 1, 2.4 + 0.3j)])

    def test_requires_the_riccati_locus(self):
        generic = _phase_point()
        with pytest.raises(flow.NotOnRiccatiLocusError):
            flow.riccati_flow(generic, self.path)
        off = fuchsian.PhasePoint.make(0.4 + 0.3j, 0.1, (0.0, 1.0, 2.0), self.kappa)
        with pytest.raises(flow.NotOnRiccatiLocusError):
            flow.riccati_flow(off, self.path)

    def test_flow_stays_on_locus_and_is_quadratic(self):
        traj, report = flow.riccati_flow(self.start, self.path)
        assert report.max_p < 1e-8
        assert report.quadratic_defect < 1e-10
        assert len(report.coefficients) == 3

    def test_closed_form_coefficients_match_field(self):
        """dq/dt_i from the Hamiltonian equals a_i q^2 + b_i q + c_i at p = 0."""
        rng = np.random.default_rng(43)
        t = (0.0, 1.0, 2.0)
        coeffs = flow.riccati_coefficients(t, self.kappa)
        for _ in range(5):
            q = complex(rng.normal(), rng.normal())
            px = fuchsian.PhasePoint.make(q, 0.0, t, self.kappa)
            for i in (1, 2, 3):
                dt = np.zeros(3, dtype=complex)
                dt[i - 1] = 1.0
                dq, _ = flow.vector_field(px, dt)
                a, b, c = coeffs[i - 1]
                assert abs(dq - (a * q * q + b * q + c)) < 1e-10

    def test_linearization_tracks_the_flow(self):
        _, report = flow.riccati_flow(self.start, self.path)
        assert report.max_linearization_deviation < 1e-6

    def test_linearization_needs_no_quadratic_coefficient(self):
        """k4 = 0 makes A vanish: q' is linear, and so is the linearization."""
        kappa = params.Exponents(0.0, 0.3, 0.45, 0.25, 0.0)
        start = fuchsian.PhasePoint.make(0.4 + 0.3j, 0.0, (0.0, 1.0, 2.0), kappa)
        path = flow.TimePath.make([(0, 1, 2), (0, 1, 2.4 + 0.3j)])
        _, report = flow.riccati_flow(start, path)
        assert all(abs(a) <= 1e-15 for a, _, _ in report.coefficients)
        assert report.max_linearization_deviation <= 1e-12
        assert report.max_p <= 1e-8

    def test_endpoint_maps_to_singular_locus(self):
        """Riccati solutions sit over singular points of their cubic surface."""
        traj, _ = flow.riccati_flow(self.start, self.path)
        sp = fuchsian.rh_point(traj.end())
        report = cubic.singular_points(sp.theta)
        assert report.points
        dmin = min(np.max(np.abs(sp.x - s.x)) for s in report.points)
        assert dmin < 1e-5

    def test_locus_is_preserved_by_nonlinear_monodromy(self):
        ret = flow.nonlinear_monodromy(self.start, [2, 2])
        assert abs(ret.p) < 1e-7
