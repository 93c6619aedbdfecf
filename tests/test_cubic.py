"""Tests for the affine cubic surface family and its singular geometry."""

import numpy as np
import pytest

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


def test_theta_validation():
    with pytest.raises(ValueError):
        cubic.eval_f([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        cubic.eval_f([1.0, 2.0], [1.0, 2.0, 3.0, 4.0])
