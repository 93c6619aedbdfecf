"""Tests for the polynomial automorphism group of the ambient space."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _reference_letter(letter, point):
    """g_i (letter i) or g_i^{-1} (letter -i) on numpy arrays, as the
    library computed them before its letters ran on Python scalars."""
    i = abs(letter)
    i0, j0, k0 = i - 1, i % 3, (i + 1) % 3
    x, th = point.x, point.theta
    xn = x.copy()
    thn = th.copy()
    if letter > 0:
        xn[i0] = th[j0] - x[j0] - x[k0] * x[i0]
        xn[j0] = x[i0]
    else:
        xn[i0] = x[j0]
        xn[j0] = th[i0] - x[i0] - x[k0] * x[j0]
    thn[i0], thn[j0] = th[j0], th[i0]
    return modular.AmbientPoint(xn, thn)


def _reference_word(word, point):
    """The reference letters one by one, with apply_word's escape rule."""
    for pos, letter in enumerate(word):
        point = _reference_letter(letter, point)
        m = float(np.max(np.abs(point.x)))
        if not np.isfinite(m) or m > modular.ESCAPE_BOUND:
            raise modular.EscapeError(f"orbit escaped at letter {pos}: |x| reached {m:.3e}")
    return point


def _same_bits(p, q):
    return p.x.tobytes() == q.x.tobytes() and p.theta.tobytes() == q.theta.tobytes()


UNIT = st.floats(-1.0, 1.0)


@st.composite
def _points(draw, decades):
    """Ambient points whose components each have their own magnitude,
    10^e for e in decades: x up to 10^max, theta up to 10^(2 max)."""
    def entry(lo, hi):
        scale = 10.0 ** draw(st.integers(lo, hi))
        return scale * complex(draw(UNIT), draw(UNIT))
    lo, hi = decades
    x = [entry(lo, hi) for _ in range(3)]
    theta = [entry(2 * lo, 2 * hi) for _ in range(4)]
    return modular.AmbientPoint.make(x, theta)


def _size(p):
    """R = max(1, |x|, sqrt|theta|): one letter maps coordinates of size R to
    size at most 3 R^2, so rounding errors are bounded by eps times a power
    of R fixed by the identity."""
    return max(1.0, float(np.max(np.abs(p.x))), float(np.max(np.abs(p.theta))) ** 0.5)


POINTS = _points((-4, 4))
PAIRS = st.sampled_from([(1, 2), (2, 3), (3, 1), (2, 1), (3, 2), (1, 3)])
GROUP = settings(derandomize=True, max_examples=100, deadline=None)


class TestGroupStructure:
    """Generator identities that hold at every point of C^7, over magnitudes
    from 1e-4 to 1e4 in x and 1e-8 to 1e8 in theta.  Each tolerance is a
    few hundred eps times the power of R that bounds the rounding."""

    @GROUP
    @given(p=POINTS, i=st.sampled_from((1, 2, 3)))
    def test_fricke_polynomial_is_invariant(self, p, i):
        """f(x, theta) is preserved on and off the surface."""
        q = modular.apply_generator(i, p)
        drift = abs(cubic.eval_f(q.x, q.theta) - cubic.eval_f(p.x, p.theta))
        assert drift <= 1e-13 * _size(p) ** 4

    @GROUP
    @given(p=POINTS, i=st.sampled_from((1, 2, 3)))
    def test_inverses_round_trip(self, p, i):
        for first, second in ((i, -i), (-i, i)):
            r = modular.apply_word([first, second], p)
            assert np.max(np.abs(r.x - p.x)) <= 1e-14 * _size(p) ** 2
            assert np.array_equal(r.theta, p.theta)  # theta is only permuted

    @GROUP
    @given(p=POINTS, ij=PAIRS)
    def test_braid_relations(self, p, ij):
        """g_i g_j g_i = g_j g_i g_j and (g_i g_j)^3 = id pointwise."""
        i, j = ij
        lhs = modular.apply_word([i, j, i], p)
        rhs = modular.apply_word([j, i, j], p)
        assert np.max(np.abs(lhs.x - rhs.x)) <= 1e-13 * _size(p) ** 3
        cyc = modular.apply_word([i, j] * 3, p)
        assert np.max(np.abs(cyc.x - p.x)) <= 1e-13 * _size(p) ** 4

    @GROUP
    @given(p=POINTS)
    def test_third_generator_is_conjugate_of_the_others(self, p):
        # g3 = g1^{-1} g2 g1 as a composition, first letter acting first
        lhs = modular.apply_word([-1, 2, 1], p)
        rhs = modular.apply_generator(3, p)
        assert np.max(np.abs(lhs.x - rhs.x)) <= 1e-13 * _size(p) ** 3


class TestScalarLetters:
    """The letters on Python scalars give the numpy reference's bits."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(p=_points((-30, 30)), letter=st.sampled_from((1, 2, 3, -1, -2, -3)))
    def test_one_letter_matches_the_numpy_reference(self, p, letter):
        want = _reference_letter(letter, p)
        f = modular.apply_generator if letter > 0 else modular.apply_inverse
        assert _same_bits(f(abs(letter), p), want)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(p=_points((-3, 3)), word=st.lists(st.sampled_from((1, 2, 3, -1, -2, -3)), max_size=12))
    def test_words_match_the_numpy_reference_up_to_escape(self, p, word):
        try:
            want = _reference_word(word, p)
        except modular.EscapeError as exc:
            with pytest.raises(modular.EscapeError) as got:
                modular.apply_word(word, p)
            assert str(got.value) == str(exc)
        else:
            assert _same_bits(modular.apply_word(word, p), want)

    def test_a_nan_escapes_with_its_message(self):
        p = modular.AmbientPoint.make([np.nan, 1.0, 2.0], [0, 0, 0, 0])
        with pytest.raises(modular.EscapeError, match="letter 0: \\|x\\| reached nan"):
            modular.apply_word([2], p)

    def test_a_bad_index_raises(self):
        p = modular.AmbientPoint.make([0.1, 0.2, 0.3], [0, 0, 0, 0])
        for i in (0, 4, -1):
            with pytest.raises(ValueError, match="generator index"):
                modular.apply_generator(i, p)
            with pytest.raises(ValueError, match="generator index"):
                modular.apply_inverse(i, p)


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


def test_orbit_refuses_n_above_the_bound_before_it_iterates(monkeypatch):
    pt = modular.AmbientPoint.make([2, 2, 2], [8, 8, 8, 28])
    monkeypatch.setattr(modular, "apply_word", None)  # any iteration would fail
    n = modular.MAX_ORBIT_STEPS + 1
    with pytest.raises(ValueError, match=f"n = {n} exceeds the bound {modular.MAX_ORBIT_STEPS}"):
        modular.orbit(pt, [1, 1], n)


def test_orbit_escape_raises():
    big = modular.AmbientPoint.make([50, 60, 70], [1, 2, 3, 4])
    with pytest.raises(modular.EscapeError):
        modular.orbit(big, [1, 1], 500)
