"""Tests for the affine cubic surface family and its singular geometry."""

import cmath
import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pvi import cubic, params


def _random_sl2(rng):
    """Random SL2(C) matrix with bounded entries."""
    while True:
        a, b, c = rng.normal(size=3) + 1j * rng.normal(size=3)
        if abs(a) > 0.3:
            d = (1.0 + b * c) / a
            m = np.array([[a, b], [c, d]])
            if np.max(np.abs(m)) < 12.0:
                return m


def _trace_data(rng):
    """Traces (x, theta) of a random four-point SL2 representation.

    M4 is the inverse of M3 M2 M1, so the product over all four is the
    identity and the trace coordinates must satisfy the cubic relation.
    """
    m1, m2, m3 = (_random_sl2(rng) for _ in range(3))
    m4 = np.linalg.inv(m3 @ m2 @ m1)
    a = np.array([np.trace(m) for m in (m1, m2, m3, m4)])
    x = np.array(
        [np.trace(m2 @ m3), np.trace(m3 @ m1), np.trace(m1 @ m2)]
    )
    return x, params.theta_from_a(a)


class TestFrickeRelation:
    """The cubic is the trace relation of four-point SL2 representations."""

    def setup_method(self):
        self.rng = np.random.default_rng(11)

    def test_random_representations_lie_on_surface(self):
        """f(x, theta) vanishes on traces of genuine representations."""
        for _ in range(200):
            x, theta = _trace_data(self.rng)
            scale = max(1.0, float(np.max(np.abs(x))) ** 3)
            assert abs(cubic.eval_f(x, theta)) < 1e-10 * scale

    def test_perturbed_traces_leave_surface(self):
        """Moving one trace off its value breaks the relation."""
        x, theta = _trace_data(self.rng)
        x = x + np.array([0.37, 0.0, 0.0])
        assert abs(cubic.eval_f(x, theta)) > 1e-4


def test_gradient_matches_difference_quotient():
    rng = np.random.default_rng(12)
    h = 1e-7
    for _ in range(10):
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        theta = rng.normal(size=4) + 1j * rng.normal(size=4)
        g = cubic.grad_f(x, theta)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (cubic.eval_f(x + e, theta) - cubic.eval_f(x - e, theta)) / (2 * h)
            assert abs(fd - g[k]) < 1e-6


def test_hessian_matches_gradient_differences():
    rng = np.random.default_rng(13)
    h = 1e-6
    x = rng.normal(size=3)
    theta = rng.normal(size=4)
    H = cubic.hessian_f(x)
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        fd = (cubic.grad_f(x + e, theta) - cubic.grad_f(x - e, theta)) / (2 * h)
        assert np.max(np.abs(fd - H[:, k])) < 1e-8


def test_surface_point_residual():
    pt = cubic.SurfacePoint.make([2.0, 2.0, 2.0], [8.0, 8.0, 8.0, 28.0])
    assert pt.residual == 0.0
    off = cubic.SurfacePoint.make([2.0, 2.0, 2.5], [8.0, 8.0, 8.0, 28.0])
    assert off.residual > 0.1


class TestResidueForm:
    def setup_method(self):
        self.rng = np.random.default_rng(14)
        # smooth point on a generic surface: solve f = 0 for x3 by radicals
        self.theta = np.array([0.3, -1.1, 0.7, 0.4], dtype=complex)
        x1, x2 = 0.5 + 0.2j, -0.3 + 0.1j
        # f = x3^2 + (x1 x2 - th3) x3 + (x1^2 + x2^2 - th1 x1 - th2 x2 + th4)
        b = x1 * x2 - self.theta[2]
        c = x1**2 + x2**2 - self.theta[0] * x1 - self.theta[1] * x2 + self.theta[3]
        x3 = (-b + np.sqrt(b * b - 4 * c)) / 2.0
        self.point = cubic.SurfacePoint.make([x1, x2, x3], self.theta)
        assert self.point.residual < 1e-12

    def test_antisymmetric(self):
        u = self.rng.normal(size=3) + 1j * self.rng.normal(size=3)
        v = self.rng.normal(size=3) + 1j * self.rng.normal(size=3)
        w1 = cubic.residue_form(self.point, u, v)
        w2 = cubic.residue_form(self.point, v, u)
        assert abs(w1 + w2) < 1e-12 * max(1.0, abs(w1))

    def test_cyclic_denominators_agree_on_tangent_vectors(self):
        """All three cyclic expressions of the residue form coincide."""
        g = cubic.grad_f(self.point.x, self.point.theta)
        # two tangent vectors: orthogonal complement of the gradient
        u = np.cross(g, np.array([1.0, 0.0, 0.0]))
        v = np.cross(g, np.array([0.2, -1.0, 0.5]))
        values = []
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            values.append((u[i] * v[j] - u[j] * v[i]) / g[k])
        ref = cubic.residue_form(self.point, u, v)
        for val in values:
            assert abs(val - ref) < 1e-10 * max(1.0, abs(ref))

    def test_raises_at_singular_point(self):
        node = cubic.SurfacePoint.make([2.0, 2.0, 2.0], [8.0, 8.0, 8.0, 28.0])
        with pytest.raises(cubic.SingularPointError):
            cubic.residue_form(node, [1.0, 0, 0], [0, 1.0, 0])


def test_discriminant_lift_vanishes_exactly_on_walls():
    rng = np.random.default_rng(15)
    for _ in range(20):
        free = rng.uniform(-0.8, 0.8, size=4)
        # a wall point: k1 = 0 forces a1 = 2, killing the product factor
        k_wall = params.Exponents.from_free(0.0, *free[1:])
        a = params.kappa_to_a(k_wall)
        assert abs(cubic.discriminant_lift(a)) < 1e-10 * max(1.0, float(np.max(np.abs(a)))) ** 16
    # generic points stay well away from zero
    k_gen = params.Exponents.from_free(0.21, 0.33, 0.17, 0.11)
    a = params.kappa_to_a(k_gen)
    assert abs(cubic.discriminant_lift(a)) > 1e-4


def test_fricke_w_vanishes_where_surface_degenerates_without_trace_wall():
    """w(a) carries the walls not visible in the a_i = ±2 factors.

    kappa = (0, 0.3, 0.4, 0.5, -0.2) lies on the central wall k0 = 0 with
    every |a_i| well away from 2, so the singularity of the surface is
    recorded entirely by the w factor of the lifted discriminant.
    """
    k = params.Exponents(0.0, 0.3, 0.4, 0.5, -0.2)
    a = params.kappa_to_a(k)
    assert np.min(np.abs(np.abs(a) - 2.0)) > 0.3
    assert abs(cubic.fricke_w(a)) < 1e-12


def test_critical_points_satisfy_gradient_equations():
    rng = np.random.default_rng(16)
    for _ in range(10):
        theta = rng.normal(size=4) * 2.0
        pts = cubic.critical_points(theta)
        assert pts, "a cubic in three variables always has critical points"
        for x in pts:
            scale = max(1.0, float(np.max(np.abs(x))) ** 2)
            assert np.max(np.abs(cubic.grad_f(x, theta))) < 1e-7 * scale
        # pairwise distinct after deduplication
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert np.max(np.abs(pts[i] - pts[j])) > 1e-6


def test_singular_points_of_the_most_degenerate_surface():
    """theta = (8,8,8,28) has the single D4 point (2,2,2)."""
    report = cubic.singular_points([8.0, 8.0, 8.0, 28.0])
    assert len(report.points) == 1
    p = report.points[0]
    assert p.local_type == "D4"
    assert p.milnor == 4
    assert p.hessian_corank == 2
    assert np.max(np.abs(p.x - np.array([2.0, 2.0, 2.0]))) < 1e-8


def test_singular_points_empty_for_smooth_surface():
    k = params.Exponents.from_free(0.21, 0.33, 0.17, 0.11)
    report = cubic.singular_points(params.rh_param(k))
    assert not report
    assert report.points == ()


def test_singular_point_location_is_a_genuine_surface_point():
    # one leg on a wall: a single node, found where f and grad f both vanish
    k = params.Exponents.from_free(0.0, 0.33, 0.17, 0.11)
    report = cubic.singular_points(params.rh_param(k))
    assert len(report.points) == 1
    node = report.points[0]
    assert node.local_type == "A1"
    theta = params.rh_param(k)
    assert abs(cubic.eval_f(node.x, theta)) < 1e-9
    assert np.max(np.abs(cubic.grad_f(node.x, theta))) < 1e-7


def test_a2_point_off_the_special_lines_comes_from_the_quintic():
    """(0, √2, √2) is an A2 point of theta = (2, 2√2, 2√2, 4) with no coordinate ±2."""
    r2 = np.sqrt(2.0)
    report = cubic.singular_points([2.0, 2 * r2, 2 * r2, 4.0])
    assert [p.local_type for p in report.points] == ["A2"]
    assert np.max(np.abs(report.points[0].x - np.array([0.0, r2, r2]))) < 1e-8


def _count_linalg(monkeypatch):
    counts = {"lstsq": 0, "svd": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_smooth_surface_solves_without_lstsq_or_svd(monkeypatch):
    """A count-based cost gate: well-conditioned roots take the closed-form step."""
    counts = _count_linalg(monkeypatch)
    theta = params.rh_param(params.Exponents.from_free(0.3, -0.2, 0.45, 0.15))
    assert not cubic.singular_points(theta)
    assert counts == {"lstsq": 0, "svd": 0}
    report = cubic.singular_points([8.0, 8.0, 8.0, 28.0])
    assert [p.local_type for p in report.points] == ["D4"]
    assert np.max(np.abs(report.points[0].x - np.array([2.0, 2.0, 2.0]))) < 1e-8


# kappa = (k0, ..., k4) of one representative per stratum, as in test_cli.
STRATA = (
    (5 / 32, 1 / 4, 1 / 4, 1 / 8, 1 / 16),
    (0, 7 / 20, 1 / 10, 3 / 20, 2 / 5),
    (5 / 32, 0, 1 / 4, 1 / 8, 5 / 16),
    (5 / 16, 0, 0, 1 / 8, 1 / 4),
    (7 / 16, 0, 0, 0, 1 / 8),
    (1 / 2, 0, 0, 0, 0),
    (0, 0, 1 / 4, 1 / 4, 1 / 2),
    (0, 0, 0, 1 / 2, 1 / 2),
    (0, 0, 0, 0, 1),
)


def _equivalence_thetas():
    """Strata with leg permutations and sign flips, generic kappa, and kappa
    1e-8 to 1e-2 off the wall k1 = 0 along a real or an imaginary offset."""
    rng = np.random.default_rng(17)
    frees = []
    for kappa in STRATA:
        frees.append(kappa[1:])
        for _ in range(2):
            frees.append([kappa[1 + i] * rng.choice((-1, 1)) for i in rng.permutation(4)])
    frees += [rng.uniform(-0.9, 0.9, 4) for _ in range(10)]
    for i, offset in enumerate(np.logspace(-8, -2, 10)):
        free = rng.uniform(-0.9, 0.9, 4).astype(complex)
        free[0] = offset * (1j if i % 2 else 1)
        frees.append(free)
    return [params.rh_param(params.Exponents.from_free(*free)) for free in frees]


def test_closed_form_newton_finds_the_lstsq_points(monkeypatch):
    """The closed-form iteration moves no singular point beyond rounding."""
    thetas = _equivalence_thetas()
    fast = [cubic.singular_points(theta).points for theta in thetas]
    monkeypatch.setattr(cubic, "_newton_well_conditioned", lambda x, theta: None)
    for theta, got in zip(thetas, fast):
        want = cubic.singular_points(theta).points
        assert [p.local_type for p in got] == [p.local_type for p in want]
        for p, q in zip(got, want):
            assert np.max(np.abs(p.x - q.x)) <= 1e-12 * max(1.0, float(np.max(np.abs(q.x))))


ENTRY = st.complex_numbers(max_magnitude=3.0)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(x1=ENTRY, x2=ENTRY, sign=st.sampled_from((1, -1)), exponent=st.floats(-7, 0),
       phase=st.floats(0, 2 * np.pi), g=st.lists(ENTRY, min_size=3, max_size=3))
def test_adjugate_step_is_the_lstsq_step(x1, x2, sign, exponent, phase, g):
    """Above the conditioning bound 1e-6 the cofactor solve is lstsq's solve.

    x3 sits 10^exponent from a root of det H = 8 - 2 sum x_i^2 + 2 x1 x2 x3,
    so the bound ranges from the cutoff to order one.
    """
    b = x1 * x2
    x3 = (b + sign * cmath.sqrt(b * b + 16 - 4 * x1 * x1 - 4 * x2 * x2)) / 2
    x3 += 10**exponent * cmath.exp(1j * phase)
    (c11, c22, c33, c12, c13, c23), det, bound = cubic._conditioning(x1, x2, x3)
    assume(bound > 1e-6)
    H = cubic.hessian_f([x1, x2, x3])
    sv = np.linalg.svd(H, compute_uv=False)
    assert bound <= sv[2] / sv[0]
    adj = np.array([[c11, c12, c13], [c12, c22, c23], [c13, c23, c33]])
    want, *_ = np.linalg.lstsq(H, np.array(g), rcond=1e-9)
    got = adj @ np.array(g) / det
    assert np.max(np.abs(got - want)) <= 1e-10 * float(np.max(np.abs(want)))


@st.composite
def _scaled_complex(draw):
    scale = 10.0 ** draw(st.integers(-30, 30))
    return scale * complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(x=st.lists(_scaled_complex(), min_size=3, max_size=3),
       theta=st.lists(_scaled_complex(), min_size=4, max_size=4))
def test_eval_f_is_the_numpy_formula_bit_for_bit(x, theta):
    """eval_f on Python scalars, with products for squares, is numpy's arithmetic."""
    x1, x2, x3 = np.array(x)
    t1, t2, t3, t4 = np.array(theta)
    want = x1 * x2 * x3 + x1**2 + x2**2 + x3**2 - t1 * x1 - t2 * x2 - t3 * x3 + t4
    got = cubic.eval_f(x, theta)
    assert type(got) is complex
    assert np.array([got]).tobytes() == np.array([want]).tobytes()


@pytest.mark.filterwarnings("error")
def test_eval_f_overflows_to_inf_without_a_warning():
    assert cubic.eval_f([1e200, 2.0, 3.0], [0, 0, 0, 0]).real == np.inf


def test_singular_points_logs_its_solve_counts(caplog):
    caplog.set_level(logging.DEBUG, logger="pvi.cubic")
    cubic.singular_points([8.0, 8.0, 8.0, 28.0])
    (record,) = caplog.records
    assert record.levelno == logging.DEBUG
    assert record.getMessage().endswith("lstsq restarts, 1 kept")


def test_theta_validation():
    with pytest.raises(ValueError):
        cubic.eval_f([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        cubic.eval_f([1.0, 2.0], [1.0, 2.0, 3.0, 4.0])


def test_singular_points_refuses_theta_beyond_the_bound():
    assert not cubic.singular_points([1e6, 0.0, 0.0, 0.0])
    for theta in ([1.01e6, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1e6j + 1e5], [np.nan, 0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match=r"theta \(.*\) is out of range"):
            cubic.singular_points(theta)
