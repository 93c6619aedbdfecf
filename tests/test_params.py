"""Tests for the parameter space: exponents, traces, walls, strata."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pvi import cubic, params


def test_affine_relation_enforced():
    with pytest.raises(ValueError):
        params.Exponents(0.125, 0.25, 0.25, 0.125, 0.0)
    # from_free always lands on the relation
    k = params.Exponents.from_free(0.3, -0.2, 0.7, 0.1)
    assert 2 * k.k0 + k.k1 + k.k2 + k.k3 + k.k4 == pytest.approx(1.0, abs=1e-15)


def test_kappa_to_a_quarter_eighth_example():
    # a = (sqrt2, sqrt2, sqrt2, -2cos(pi/8)) for k = (1/4, 1/4, 1/8, 0) free part
    a = params.kappa_to_a([0.125, 0.25, 0.25, 0.125, 0.0])
    root2 = np.sqrt(2.0)
    assert abs(a[0] - root2) < 1e-15
    assert abs(a[1] - root2) < 1e-15
    assert abs(a[2] - 2.0 * np.cos(np.pi / 8)) < 1e-15
    assert abs(a[3] + 2.0) < 1e-15


@pytest.mark.filterwarnings("error")
def test_kappa_to_a_refuses_overflowing_traces():
    """2cos(pi k) overflows once |Im k| passes about 226; below that it is finite."""
    assert np.isfinite(params.kappa_to_a([0, 0.1 + 200j, 0, 0, 0.9 - 200j])).all()
    for big in (300j, 1e300j, 0.5 + 1e300j):
        with pytest.raises(ValueError, match="kappa .* out of range"):
            params.kappa_to_a([0, 0.1 + big, 0, 0, 0.9 - big])


def test_theta_from_a_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        th = params.theta_from_a(a)
        assert abs(th[0] - (a[0] * a[3] + a[1] * a[2])) < 1e-14
        assert abs(th[1] - (a[1] * a[3] + a[2] * a[0])) < 1e-14
        assert abs(th[2] - (a[2] * a[3] + a[0] * a[1])) < 1e-14
        th4 = a[0] * a[1] * a[2] * a[3] + np.sum(a**2) - 4.0
        assert abs(th[3] - th4) < 1e-13


def test_d4_wall_parameters_give_888_28():
    th = params.rh_param([0.0, 0.0, 0.0, 0.0, 1.0])
    assert np.max(np.abs(th - np.array([8.0, 8.0, 8.0, 28.0]))) < 1e-12


def test_weyl_reflections_are_involutions():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = params.Exponents.from_free(*rng.normal(size=4))
        for i in range(5):
            twice = params.weyl_reflect(i, params.weyl_reflect(i, k))
            assert np.max(np.abs(twice.as_array() - k.as_array())) < 1e-12


def test_weyl_coxeter_relations():
    """(s0 si)^3 = id for the central node, (si sj)^2 = id for outer pairs."""
    rng = np.random.default_rng(6)
    for _ in range(20):
        k = params.Exponents.from_free(*rng.normal(size=4))
        for i in range(1, 5):
            out = params.weyl_apply([0, i] * 3, k)
            assert np.max(np.abs(out.as_array() - k.as_array())) < 1e-12
        for i in range(1, 5):
            for j in range(1, 5):
                if i == j:
                    continue
                out = params.weyl_apply([i, j] * 2, k)
                assert np.max(np.abs(out.as_array() - k.as_array())) < 1e-12


def test_rh_param_is_weyl_invariant():
    # theta only depends on the Weyl orbit, thanks to the affine relation
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = params.Exponents.from_free(*rng.normal(size=4))
        th = params.rh_param(k)
        for i in range(5):
            th_i = params.rh_param(params.weyl_reflect(i, k))
            assert np.max(np.abs(th_i - th)) < 1e-11


def test_parse_weyl_word():
    assert params.parse_weyl_word("0 1 2") == (0, 1, 2)
    assert params.parse_weyl_word("012") == (0, 1, 2)
    assert params.parse_weyl_word([3, 4]) == (3, 4)


def test_on_wall_examples():
    # k4 = 0 sits on a reflecting hyperplane
    assert params.on_wall([0.125, 0.25, 0.25, 0.125, 0.0])
    # a genuinely generic affine-exact point is off the wall
    assert not params.on_wall([5 / 32, 1 / 4, 1 / 4, 1 / 8, 1 / 16])
    # every root value is at least 0.05 from an integer, yet the scaled
    # discriminant lift reads only 1.1e-4
    assert not params.on_wall(params.Exponents.from_free(
        -0.8824417998909664, 0.773860317905306, 0.10510376233591223, -0.886912248587404))


# Coefficients of the twelve positive roots of D4 over (k0, k1, k2, k3):
# the legs, the centre plus any subset of the legs, and the highest root.
ROOTS = [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (2, 1, 1, 1)] + [
    (1, *legs) for legs in itertools.product((0, 1), repeat=3)
]
COMPONENT = st.floats(-0.9, 0.9)


def _root_values(k):
    return [sum(c * ki for c, ki in zip(root, k)) for root in ROOTS]


def _on_a_wall(k, root):
    """kappa from (k0, k1, k2, k3) with one root value moved onto the integers."""
    value = _root_values(k)[ROOTS.index(root)]
    k[root.index(1)] += round(value) - value
    return params.Exponents(*k, 1 - 2 * k[0] - k[1] - k[2] - k[3])


@settings(derandomize=True, max_examples=50, deadline=None)
@given(k=st.lists(COMPONENT, min_size=4, max_size=4), root=st.sampled_from(ROOTS))
def test_kappa_built_on_a_wall_is_on_it_and_singular(k, root):
    """One root value moved onto the integers: on a wall, S(theta) singular."""
    kappa = _on_a_wall(k, root)
    assert params.on_wall(kappa)
    assert cubic.singular_points(params.rh_param(kappa))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.lists(COMPONENT, min_size=4, max_size=4).filter(
    lambda free: all(abs(v - round(v)) >= 0.05 for v in
                     _root_values([(1 - sum(free)) / 2, *free[:3]]))))
def test_kappa_away_from_every_wall_is_off_and_smooth(free):
    kappa = params.Exponents.from_free(*free)
    assert not params.on_wall(kappa)
    assert not cubic.singular_points(params.rh_param(kappa))


# One representative per stratum: components zeroed according to the
# defining subdiagram, remaining entries generic under the affine relation.
STRATA = [
    ((5 / 32, 1 / 4, 1 / 4, 1 / 8, 1 / 16), "smooth", 0),
    ((0, 7 / 20, 1 / 10, 3 / 20, 2 / 5), "A1", 1),
    ((5 / 32, 0, 1 / 4, 1 / 8, 5 / 16), "A1", 1),
    ((5 / 16, 0, 0, 1 / 8, 1 / 4), "2A1", 2),
    ((7 / 16, 0, 0, 0, 1 / 8), "3A1", 3),
    ((1 / 2, 0, 0, 0, 0), "4A1", 4),
    ((0, 0, 1 / 4, 1 / 4, 1 / 2), "A2", 2),
    ((0, 0, 0, 1 / 2, 1 / 2), "A3", 3),
    ((0, 0, 0, 0, 1), "D4", 4),
]


@pytest.mark.parametrize("kappa,expected,milnor", STRATA)
def test_stratification_battery(kappa, expected, milnor):
    k = params.Exponents(*kappa)
    label = params.classify_stratum(k)
    assert label.dynkin_type == expected
    assert label.index_set_size == milnor
    assert params.on_wall(k) == bool(cubic.singular_points(params.rh_param(k)))


WORD = st.lists(st.integers(0, 4), min_size=1, max_size=8)
FREE = st.lists(COMPONENT, min_size=4, max_size=4)
IMAG = st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(free=FREE, imag=IMAG, i=st.integers(0, 4))
def test_each_reflection_is_an_involution(free, imag, i):
    k = params.Exponents.from_free(*(x + 1j * y for x, y in zip(free, imag)))
    twice = params.weyl_reflect(i, params.weyl_reflect(i, k)).as_array()
    assert np.max(np.abs(twice - k.as_array())) <= 1e-12 * max(1.0, np.max(np.abs(k.as_array())))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(free=FREE, imag=IMAG, word=WORD)
def test_rh_param_is_constant_on_weyl_orbits(free, imag, word):
    k = params.Exponents.from_free(*(x + 1j * y for x, y in zip(free, imag)))
    theta = params.rh_param(k)
    image = params.rh_param(params.weyl_apply(word, k))
    assert np.max(np.abs(image - theta)) <= 1e-12 * max(1.0, np.max(np.abs(theta)))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(k=FREE, root=st.sampled_from(ROOTS), word=WORD)
def test_a_wall_kappa_and_its_weyl_image_have_one_stratum(k, root, word):
    kappa = _on_a_wall(k, root)
    label = params.classify_stratum(kappa)
    image = params.classify_stratum(params.weyl_apply(word, kappa))
    assert label.dynkin_type != "smooth"
    assert (image.dynkin_type, image.index_set_size) == (label.dynkin_type, label.index_set_size)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(k=FREE, root=st.sampled_from(ROOTS))
def test_reducible_points_are_singular_points_of_the_surface(k, root):
    """Exact to rounding on walls.  A root value within _affine_tol of an
    integer but off it counts as a wall too, and its point is off by about
    that distance, so such kappa are not drawn."""
    kappa = _on_a_wall(k, root)
    distances = [abs(v - round(v)) for v in _root_values(kappa.as_array()[:4].real)]
    assume(all(d <= 1e-14 or d > 1e-8 for d in distances))
    theta = params.rh_param(kappa)
    points = params.reducible_points(kappa)
    assert points
    for x in (p.x for p in points):
        scale = max(1.0, np.max(np.abs(theta)), np.max(np.abs(x)) ** 2)
        assert abs(cubic.eval_f(x, theta)) <= 1e-12 * scale
        assert np.max(np.abs(cubic.grad_f(x, theta))) <= 1e-12 * scale


@settings(derandomize=True, max_examples=50, deadline=None)
@given(k=FREE, walls=st.lists(st.sampled_from(ROOTS), min_size=1, max_size=6, unique=True), word=WORD)
def test_kappa_on_several_walls_has_a_weyl_invariant_label_of_the_integral_rank(k, walls, word):
    """Built on 1 to 6 walls in turn (a later move may take kappa off an
    earlier wall): the label is the same on a Weyl image, and index_set_size
    is the rank of the integral root vectors."""
    for root in walls:
        kappa = _on_a_wall(k, root)
    distances = [abs(v - round(v)) for v in _root_values(k)]
    assume(all(d <= 1e-12 or d > 1e-6 for d in distances))
    integral = [root for root, d in zip(ROOTS, distances) if d <= 1e-12]
    label = params.classify_stratum(kappa)
    image = params.classify_stratum(params.weyl_apply(word, kappa))
    assert label.dynkin_type != "smooth"
    assert (image.dynkin_type, image.index_set_size) == (label.dynkin_type, label.index_set_size)
    assert label.index_set_size == np.linalg.matrix_rank(np.array(integral))
