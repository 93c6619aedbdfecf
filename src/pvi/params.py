"""Parameter spaces of Painleve VI and the affine Weyl group of type D4(1).

Three parameter levels appear throughout the package:

  kappa = (k0,..,k4)    exponents, constrained by 2*k0 + k1 + k2 + k3 + k4 = 1
  a     = (a1,..,a4)    local monodromy traces, a_i = 2 cos(pi k_i) (i=1,2,3),
                        a4 = -2 cos(pi k4)
  theta = (th1,..,th4)  cubic-surface coefficients, polynomial in a

theta is a basis of invariants of the affine Weyl group W(D4(1)) acting on
kappa by the reflections sigma_i(k_j) = k_j - k_i * C[i][j], so the composite
kappa -> a -> theta is the Riemann-Hilbert correspondence in the parameter
level.  kappa lies on a reflecting hyperplane (a wall) exactly when one of
the twelve positive-root values of D4 at kappa is an integer, and exactly
then the cubic surface is singular; on_wall decides it from those values,
and strata are labeled geometrically from the singular points of the cubic.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from . import cubic

# Cartan matrix of type D4(1): node 0 is the central node, 1..4 the legs.
CARTAN = np.array(
    [
        [2, -1, -1, -1, -1],
        [-1, 2, 0, 0, 0],
        [-1, 0, 2, 0, 0],
        [-1, 0, 0, 2, 0],
        [-1, 0, 0, 0, 2],
    ],
    dtype=int,
)

class UnclassifiableError(RuntimeError):
    """The singular points of a cubic surface match no stratum."""


def _affine_tol(k):
    """Absolute tolerance of the affine relation and of on_wall at kappa k."""
    return 1e-9 * max(1.0, max(abs(ki) for ki in k))


@dataclass(frozen=True)
class Exponents:
    """The exponent vector kappa with the affine relation built in."""

    k0: complex
    k1: complex
    k2: complex
    k3: complex
    k4: complex

    def __post_init__(self):
        rel = 2 * self.k0 + self.k1 + self.k2 + self.k3 + self.k4
        if abs(rel - 1.0) > _affine_tol((self.k0, self.k1, self.k2, self.k3, self.k4)):
            raise ValueError(
                f"affine relation violated: 2*k0+k1+k2+k3+k4 = {rel} != 1"
            )

    @classmethod
    def from_free(cls, k1, k2, k3, k4):
        """Build from the four free components, solving k0 exactly."""
        k0 = (1.0 - (k1 + k2 + k3 + k4)) / 2.0
        return cls(k0, k1, k2, k3, k4)

    def as_array(self):
        return np.array([self.k0, self.k1, self.k2, self.k3, self.k4], dtype=complex)


def _kappa_array(kappa):
    if isinstance(kappa, Exponents):
        return kappa.as_array()
    arr = np.asarray(kappa, dtype=complex)
    if arr.shape != (5,):
        raise ValueError("kappa must have five components")
    return arr


def kappa_to_a(kappa):
    """Traces a_i = 2cos(pi k_i) for i=1,2,3, a4 = -2cos(pi k4); ValueError on overflow."""
    k = _kappa_array(kappa)
    with np.errstate(all="ignore"):
        a = 2.0 * np.cos(np.pi * k[1:5])
    if not np.isfinite(a).all():
        raise ValueError(f"kappa {tuple(k.tolist())} is out of range: 2cos(pi k_i) overflows")
    a[3] = -a[3]
    return a


def theta_from_a(a):
    """Cubic coefficients from traces.

    th_i = a_i a_4 + a_j a_k for {i,j,k} = {1,2,3}, and
    th_4 = a1 a2 a3 a4 + a1^2 + a2^2 + a3^2 + a4^2 - 4.
    """
    a1, a2, a3, a4 = np.asarray(a, dtype=complex)
    return np.array(
        [
            a1 * a4 + a2 * a3,
            a2 * a4 + a3 * a1,
            a3 * a4 + a1 * a2,
            a1 * a2 * a3 * a4 + a1**2 + a2**2 + a3**2 + a4**2 - 4.0,
        ]
    )


def rh_param(kappa):
    """Riemann-Hilbert correspondence in the parameter level: kappa -> theta."""
    return theta_from_a(kappa_to_a(kappa))


def weyl_reflect(i, kappa):
    """Basic reflection sigma_i: k_j -> k_j - k_i * C[i][j]."""
    if i not in range(5):
        raise ValueError("reflection index must be 0..4")
    k = _kappa_array(kappa)
    out = k - k[i] * CARTAN[i].astype(float)
    return Exponents(*out)


def parse_weyl_word(word):
    """A Weyl word is a string over '01234' (whitespace ignored) or a list of integers."""
    if isinstance(word, str):
        return tuple(int(ch) for ch in word if not ch.isspace())
    try:
        return tuple(map(operator.index, word))
    except TypeError:
        raise ValueError(
            f"a Weyl word is a string or a list of integers, got {word!r}"
        ) from None


def weyl_apply(word, kappa):
    """Apply a word of basic reflections, first letter first."""
    out = kappa if isinstance(kappa, Exponents) else Exponents(*_kappa_array(kappa))
    for i in parse_weyl_word(word):
        out = weyl_reflect(i, out)
    return out


def on_wall(kappa):
    """True iff kappa lies on a reflecting hyperplane of W(D4(1)).

    That is, iff a positive-root value of D4 (centre k0, legs k1, k2, k3)
    lies within _affine_tol of an integer: a leg, k0 plus any subset of the
    legs, or 2 k0 + k1 + k2 + k3 = 1 - k4.  k0 comes from k1..k4 through
    the affine relation, so a kappa that breaks it is read by its free part.
    """
    k = _kappa_array(kappa)
    k0 = (1.0 - (k[1] + k[2] + k[3] + k[4])) / 2.0
    legs = tuple(k[1:4])
    values = [*legs, 2 * k0 + sum(legs)] + [
        k0 + sum(subset) for r in range(4) for subset in itertools.combinations(legs, r)
    ]
    distance = min(abs(v - round(v.real)) for v in values)
    return bool(distance <= _affine_tol([k0, *k[1:]]))


@dataclass(frozen=True)
class StratumLabel:
    """Dynkin type of the singular configuration of S(rh_param(kappa)).

    dynkin_type is one of 'smooth', 'A1', '2A1', '3A1', '4A1', 'A2', 'A3',
    'D4'; index_set_size is the total Milnor number, i.e. the number of
    nodes |I| of the subdiagram of D4(1) defining the stratum.
    """

    dynkin_type: str
    index_set_size: int
    report: "cubic.SingularPointReport"


def classify_stratum(kappa):
    """Label the stratum of kappa from the geometry of the cubic surface.

    The singular points of S(rh_param(kappa)) are computed and labeled by
    label_stratum.  This realizes the classification of singularities by
    Dynkin subdiagrams without searching for a Weyl-group witness.
    """
    return label_stratum(cubic.singular_points(rh_param(kappa)))


def label_stratum(report):
    """The StratumLabel of a cubic surface from its singular points.

    The local types are combined: k separate nodes give kA1, a single
    higher point gives its own type.  Any other configuration matches no
    subdiagram of D4(1) and raises UnclassifiableError; singular_points
    already refuses a total Milnor number above 4.
    """
    pts = report.points
    if not pts:
        return StratumLabel("smooth", 0, report)
    if len(pts) == 1:
        label = pts[0].local_type
    elif all(p.local_type == "A1" for p in pts):
        label = f"{len(pts)}A1"
    else:
        raise UnclassifiableError(
            f"singular configuration {[p.local_type for p in pts]} does not "
            "match any stratum; near-degenerate theta"
        )
    return StratumLabel(label, sum(p.milnor for p in pts), report)
