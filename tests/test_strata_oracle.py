"""The labels of pvi classify on kappa input against a 100-digit truth.

The kappa here are exact rationals on one or more walls, near a higher
stratum; pvi classify reads their nearest floats.  Each singular point it
reports is refined by mpmath Newton on grad f = 0 for the exact theta and
typed by the rank of its Hessian, with the kernel coefficient v1 v2 v3
splitting A2 from A3, as in cubic._local_type but far below double
precision.  A multiple root of grad f = 0 is fixed only to about
eps^(1/m) by its equations, so Newton stalls near 1e-25 from an A2 or D4
point at 50 digits, above the 1e-30 rank cutoff; at 100 digits it stalls
near 1e-50.
"""

import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from pvi import cli
from test_params import ROOTS, STRATA

RANK_CUTOFF = mpf(10) ** -30


def _exact_root_values(k):
    """Root values of (k0, k1, k2, k3) over ROOTS, as Fractions."""
    return [sum(c * ki for c, ki in zip(root, k)) for root in ROOTS]


def _integral_roots(k):
    return [root for root, v in zip(ROOTS, _exact_root_values(k)) if v.denominator == 1]


def _minus_projection(c, b):
    """c minus its projection onto the line of b."""
    t = sum(x * y for x, y in zip(c, b)) / sum(y * y for y in b)
    return [ci - t * bi for ci, bi in zip(c, b)]


def _orthogonal_to(c, walls):
    """c minus its projection onto the span of walls, in exact arithmetic."""
    basis = []
    for w in walls:
        w = [Fraction(x) for x in w]
        for b in basis:
            w = _minus_projection(w, b)
        if any(w):
            basis.append(w)
    for b in basis:
        c = _minus_projection(c, b)
    return c


def near_stratum_kappas(per_stratum, seed=0):
    """(k0, k1, k2, k3) as Fractions: per higher stratum of test_params.STRATA,
    kappa on 1 to 6 of its walls and 1e-8 to 1e-3 from it, off the stratum
    itself unless that is an A1 wall.

    Every root value that moves stays at least half that distance from
    the integers, far outside the 1e-9 wall tolerance of pvi classify.
    """
    rng = random.Random(seed)
    out = []
    for kappa, label, _ in STRATA:
        if label == "smooth":
            continue
        rep = [Fraction(k).limit_denominator(100) for k in kappa[:4]]
        integral = _integral_roots(rep)
        made = 0
        while made < per_stratum:
            size = rng.randint(1, min(6, max(1, len(integral) - 1)))
            walls = rng.sample(integral, size)
            d = _orthogonal_to([Fraction(rng.randint(-3, 3)) for _ in range(4)], walls)
            if not any(d):
                continue
            scale = Fraction(1, 10 ** rng.randint(3, 8)) / max(abs(x) for x in d)
            k = [r + scale * x for r, x in zip(rep, d)]
            if len(integral) > 1 and len(_integral_roots(k)) == len(integral):
                continue  # still on the stratum itself
            moved = [abs(v - round(v)) for v in _exact_root_values(k) if v.denominator != 1]
            if moved and min(moved) < max(abs(x) for x in d) * scale / 2:
                continue
            out.append(k)
            made += 1
    return out


def _free(k):
    """The exact (k1, k2, k3, k4) of (k0, k1, k2, k3)."""
    return [*k[1:], 1 - 2 * k[0] - k[1] - k[2] - k[3]]


def _mp(q):
    return mpf(q.numerator) / q.denominator


def _theta(k):
    k1, k2, k3, k4 = map(_mp, _free(k))
    a1, a2, a3 = (2 * mp.cos(mp.pi * ki) for ki in (k1, k2, k3))
    a4 = -2 * mp.cos(mp.pi * k4)
    return (a1 * a4 + a2 * a3, a2 * a4 + a3 * a1, a3 * a4 + a1 * a2,
            a1 * a2 * a3 * a4 + a1 ** 2 + a2 ** 2 + a3 ** 2 + a4 ** 2 - 4)


def _hessian(x):
    x1, x2, x3 = x
    return mp.matrix([[2, x3, x2], [x3, 2, x1], [x2, x1, 2]])


def _refine(x, theta):
    """Newton on grad f = 0 from x, until a step is below 1e-90."""
    x1, x2, x3 = x
    for _ in range(500):
        grad = mp.matrix([x2 * x3 + 2 * x1 - theta[0], x3 * x1 + 2 * x2 - theta[1],
                          x1 * x2 + 2 * x3 - theta[2]])
        try:
            step = mp.lu_solve(_hessian((x1, x2, x3)), grad)
        except ZeroDivisionError:  # an exactly singular Hessian: a least-squares step
            u, s, v = mp.svd_c(_hessian((x1, x2, x3)))
            coef = [(u[:, i].H * grad)[0] / s[i] if s[i] > RANK_CUTOFF * s[0] else 0 for i in range(3)]
            step = v.H * mp.matrix(coef)
        x1, x2, x3 = x1 - step[0], x2 - step[1], x3 - step[2]
        if mp.norm(step) < mpf(10) ** -90:
            break
    return x1, x2, x3


def _true_type(x, theta):
    """ADE type of the singular point x of S(theta), or None off the surface."""
    x1, x2, x3 = x
    t1, t2, t3, t4 = theta
    if abs(x1 * x2 * x3 + x1 ** 2 + x2 ** 2 + x3 ** 2 - t1 * x1 - t2 * x2 - t3 * x3 + t4) > mpf(10) ** -40:
        return None
    _, s, v = mp.svd_c(_hessian(x))
    s = [abs(s[i]) for i in range(3)]
    rank = sum(si > RANK_CUTOFF * max(s) for si in s)
    if rank == 2:
        kernel = [v[s.index(min(s)), j] for j in range(3)]
        return "A2" if abs(kernel[0] * kernel[1] * kernel[2]) > mpf(10) ** -20 else "A3"
    return {3: "A1", 1: "D4"}[rank]


def _classify(spec, capsys):
    assert cli.main(["classify", "--input", json.dumps(spec)]) == 0
    return json.loads(capsys.readouterr().out)


def check_against_truth(k, spec, capsys):
    """Label, types and Milnor total of pvi classify on spec against the truth for k."""
    got = _classify(spec, capsys)
    with mp.workdps(100):
        theta = _theta(k)
        refined = [_refine([mpc(*z) for z in p["x"]], theta) for p in got["singular_points"]]
        types = [_true_type(x, theta) for x in refined]
        for x, y in itertools.combinations(refined, 2):
            assert max(abs(a - b) for a, b in zip(x, y)) > mpf(10) ** -40, (k, "one point twice")
    assert None not in types, (k, "a reported point is not singular")
    if len(types) == 1:
        label = types[0]
    else:  # no two higher points sit on one surface of the family
        label = f"{len(types)}A1" if set(types) == {"A1"} else "smooth"
    assert got["stratum"] == label, (k, got["stratum"], types)
    assert [p["type"] for p in got["singular_points"]] == types, k
    # the total Milnor number is the rank of the integral roots, so no point is missing
    roots = _integral_roots(k)
    rank = np.linalg.matrix_rank(np.array(roots, dtype=float)) if roots else 0
    assert got["index_set_size"] == rank, (k, got["index_set_size"], rank)


@pytest.mark.parametrize("k", near_stratum_kappas(3), ids=lambda k: "near")
def test_kappa_near_a_higher_stratum_has_the_true_label(k, capsys):
    check_against_truth(k, {"kappa_free": [float(v) for v in _free(k)]}, capsys)


def test_a_node_near_the_a3_stratum_is_a1(capsys):
    """Was A2: the Hessian rank cutoff took a node near a more degenerate point for one."""
    k1, k2, k3 = map(Fraction, (-2.4736924768336735e-06, -1.0837128946128475e-05, 0.4999871603580964))
    k4 = 1 + k1 + k2 - k3  # the root value (-k1 - k2 + k3 + k4 + 1) / 2 is 1
    k = [(1 - k1 - k2 - k3 - k4) / 2, k1, k2, k3]
    free = [-2.4736924768336735e-06, -1.0837128946128475e-05, 0.4999871603580964, 0.4999995288204806]
    assert [float(v) for v in _free(k)] == free
    check_against_truth(k, {"kappa_free": free}, capsys)
    assert _classify({"kappa_free": free}, capsys)["stratum"] == "A1"


def test_three_nodes_4e_9_apart_are_3a1(capsys):
    """Was D4: the 1e-4 merge took three nodes near (2, 2, 2) for one point."""
    k = [Fraction(1, 10 ** 5), Fraction(0), Fraction(0), Fraction(0)]
    spec = {"kappa": [1e-5, 0, 0, 0, 1 - 2e-5]}
    check_against_truth(k, spec, capsys)
    assert _classify(spec, capsys)["stratum"] == "3A1"
