"""Tests for the polynomial automorphism group of the ambient space."""

import numpy as np
import pytest

from pvi import cubic, modular


def _random_point(rng):
    z = rng.standard_normal(14)
    return modular.AmbientPoint.make(z[:3] + 1j * z[3:6], z[6:10] + 1j * z[10:14])


def _surface_point(rng):
    """Point with f = 0, solving the quadratic in x1 at random (x2, x3)."""
    p = _random_point(rng)
    th = p.theta
    x2, x3 = p.x[1], p.x[2]
    b = x2 * x3 - th[0]
    c = x2**2 + x3**2 - th[1] * x2 - th[2] * x3 + th[3]
    x1 = (-b + np.sqrt(b * b - 4 * c)) / 2
    return modular.AmbientPoint.make([x1, x2, x3], th)


class TestGroupStructure:
    """Generator identities that hold at every point of C^7."""

    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def test_fricke_polynomial_is_invariant(self):
        """f(x, theta) is preserved on and off the surface."""
        for _ in range(200):
            p = _random_point(self.rng)
            val = cubic.eval_f(p.x, p.theta)
            for i in (1, 2, 3):
                q = modular.apply_generator(i, p)
                assert abs(cubic.eval_f(q.x, q.theta) - val) < 1e-10

    def test_inverses_round_trip(self):
        for _ in range(100):
            p = _random_point(self.rng)
            for i in (1, 2, 3):
                r = modular.apply_inverse(i, modular.apply_generator(i, p))
                assert np.max(np.abs(r.x - p.x)) < 1e-12
                assert np.max(np.abs(r.theta - p.theta)) < 1e-12

    def test_braid_relations(self):
        """g_i g_j g_i = g_j g_i g_j and (g_i g_j)^3 = id pointwise."""
        for _ in range(50):
            p = _random_point(self.rng)
            for i, j in [(1, 2), (2, 3), (3, 1), (2, 1)]:
                lhs = modular.apply_word([i, j, i], p)
                rhs = modular.apply_word([j, i, j], p)
                assert np.max(np.abs(lhs.x - rhs.x)) < 1e-9
                cyc = modular.apply_word([i, j] * 3, p)
                assert np.max(np.abs(cyc.x - p.x)) < 1e-8

    def test_third_generator_is_conjugate_of_the_others(self):
        # g3 = g1^{-1} g2 g1 as a composition, first letter acting first
        for _ in range(20):
            p = _random_point(self.rng)
            lhs = modular.apply_word([-1, 2, 1], p)
            rhs = modular.apply_generator(3, p)
            assert np.max(np.abs(lhs.x - rhs.x)) < 1e-10


class TestJacobian:
    def setup_method(self):
        self.rng = np.random.default_rng(8)
        self.point = _random_point(self.rng)

    def test_matches_difference_quotients(self):
        h = 1e-7
        for letter in (1, 2, 3, -1, -2, -3):
            J = modular.jacobian(letter, self.point)
            f = modular.apply_generator if letter > 0 else modular.apply_inverse
            for col in range(3):
                dx = np.zeros(3, dtype=complex)
                dx[col] = h
                pp = modular.AmbientPoint(self.point.x + dx, self.point.theta)
                pm = modular.AmbientPoint(self.point.x - dx, self.point.theta)
                num = (f(abs(letter), pp).x - f(abs(letter), pm).x) / (2 * h)
                assert np.max(np.abs(num - J[:, col])) < 1e-6

    def test_determinant_is_one(self):
        """The x-part of every letter is volume preserving."""
        for letter in (1, 2, 3, -1, -2, -3):
            J = modular.jacobian(letter, self.point)
            assert abs(np.linalg.det(J) - 1.0) < 1e-12


def test_residue_form_is_invariant_under_level_two_words():
    """Level-two words preserve the fiberwise area form on each surface."""
    rng = np.random.default_rng(9)
    word = [1, 1, 2, 2, -3, -3]
    checked = 0
    while checked < 25:
        sp = _surface_point(rng)
        assert abs(cubic.eval_f(sp.x, sp.theta)) < 1e-9
        g = cubic.grad_f(sp.x, sp.theta)
        gg = g @ g
        if abs(gg) < 1e-3:
            continue  # too close to a singular point for a tangent basis
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        u = u - (g @ u) / gg * g
        v = v - (g @ v) / gg * g
        w0 = cubic.residue_form(cubic.SurfacePoint.make(sp.x, sp.theta), u, v)
        q, tu = modular.push_tangent(word, sp, u)
        _, tv = modular.push_tangent(word, sp, v)
        w1 = cubic.residue_form(cubic.SurfacePoint.make(q.x, q.theta), tu, tv)
        assert abs(w1 - w0) < 1e-7 * max(1.0, abs(w0))
        checked += 1


def test_perm_image_and_level_two():
    assert modular.perm_image([1]) == (1, 0, 2)
    assert modular.perm_image([1, 1]) == (0, 1, 2)
    assert modular.perm_image([1, 2]) != (0, 1, 2)
    assert modular.is_level_two([1, 1, 2, 2])
    assert modular.is_level_two([])
    assert not modular.is_level_two([3])


def test_parse_word():
    assert modular.parse_word("1 2 -1") == (1, 2, -1)
    assert modular.parse_word("1, 2, -3") == (1, 2, -3)
    assert modular.parse_word((1, -2)) == (1, -2)
    with pytest.raises(ValueError):
        modular.parse_word("1 4")


def test_braid_to_modular_orientations():
    assert modular.braid_to_modular([1, -2, 3]) == (1, -2, 3)
    assert modular.braid_to_modular([1, -2, 3], orientation="inv") == (-1, 2, -3)
    with pytest.raises(ValueError):
        modular.braid_to_modular([1], orientation="bwd")


def test_fixed_point_check_at_the_most_singular_point():
    """(2,2,2) on S(8,8,8,28) is fixed by the level-two generators."""
    pt = modular.AmbientPoint.make([2, 2, 2], [8, 8, 8, 28])
    for i in (1, 2, 3):
        assert modular.fixed_point_check([i, i], pt)
    generic = modular.AmbientPoint.make([0.3, 0.1, -0.2], [8, 8, 8, 28])
    assert not modular.fixed_point_check([1, 1], generic)
    with pytest.raises(modular.NotLevelTwoError):
        modular.fixed_point_check([1], pt)


def test_orbit_samples_and_residuals():
    pt = modular.AmbientPoint.make([2, 2, 2], [8, 8, 8, 28])
    samples = modular.orbit(pt, [1, 1], 5)
    assert len(samples) == 6
    assert [s.step for s in samples] == list(range(6))
    assert all(s.f_residual < 1e-10 for s in samples)
    with pytest.raises(modular.NotLevelTwoError):
        modular.orbit(pt, [1], 5)
    with pytest.raises(ValueError):
        modular.orbit(pt, [1, 1], -1)


def test_orbit_escape_raises():
    big = modular.AmbientPoint.make([50, 60, 70], [1, 2, 3, 4])
    with pytest.raises(modular.EscapeError):
        modular.orbit(big, [1, 1], 500)
