"""The solver of cubic.singular_points against the closed form.

params.reducible_points gives the singular points of S(rh_param(kappa))
from reducible and scalar local monodromy (Iwasaki, Proc. Japan Acad. 78A,
2002; Inaba-Iwasaki-Saito, IMRN 2004), and pvi classify answers kappa
input from it.  cubic.singular_points finds the points of any theta by
elimination and Newton, and the Riemann-Hilbert map is computed by
integration, so each side checks the other.
"""

import numpy as np
import pytest

from pvi import cubic, fuchsian, params

# kappa = (k0, ..., k4) of one representative per stratum, as in the golden corpus.
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


def _strata_and_weyl_images(per_stratum, seed):
    rng = np.random.default_rng(seed)
    kappas = [tuple(s) for s in STRATA]
    for s in STRATA:
        for _ in range(per_stratum):
            word = rng.integers(0, 5, size=rng.integers(1, 9)).tolist()
            kappas.append(tuple(params.weyl_apply(word, s).as_array().tolist()))
    return kappas


@pytest.mark.parametrize("seed", [0, 1])
def test_newton_finds_the_closed_form_points(seed):
    """Same count, and each point within 1e-12 relative, on the strata and Weyl images."""
    for kappa in _strata_and_weyl_images(16, seed):
        want = [p.x for p in params.reducible_points(kappa)]
        got = [p.x for p in cubic.singular_points(params.rh_param(kappa)).points]
        assert len(got) == len(want), kappa
        for x in got:
            error = min(np.max(np.abs(x - y)) / max(1.0, np.max(np.abs(y))) for y in want)
            assert error <= 1e-12, (kappa, x)


def test_golden_a2_point_is_exact():
    """theta = (2, 2 sqrt 2, 2 sqrt 2, 4) has its A2 point at (0, sqrt 2, sqrt 2)."""
    (point,) = cubic.singular_points(params.rh_param(STRATA[6])).points
    assert point.local_type == "A2"
    assert np.max(np.abs(point.x - [0, np.sqrt(2), np.sqrt(2)])) <= 1e-15


def test_riccati_locus_lands_on_the_reducible_point():
    """kappa0 = 0 and p = 0 make the monodromy reducible: pvi rh lands on e = (1, 1, 1)."""
    rng = np.random.default_rng(3)
    for _ in range(6):
        legs = rng.uniform(-0.45, 0.45, size=3)
        kappa = (0.0, *legs, 1.0 - legs.sum())
        q = complex(rng.uniform(-0.5, 2.5), rng.choice([-1, 1]) * rng.uniform(0.2, 1.0))
        pt = fuchsian.PhasePoint.make(q, 0.0, (0.0, 1.0, 2.0), params.Exponents(*kappa))
        (want,) = params.reducible_points(kappa)
        assert np.max(np.abs(fuchsian.rh_point(pt).x - want.x)) <= 1e-10
