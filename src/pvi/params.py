"""Parameter spaces of Painleve VI and the affine Weyl group of type D4(1).

Three parameter levels appear throughout the package:

  kappa = (k0,..,k4)    exponents, constrained by 2*k0 + k1 + k2 + k3 + k4 = 1
  a     = (a1,..,a4)    local monodromy traces, a_i = 2 cos(pi k_i) (i=1,2,3),
                        a4 = -2 cos(pi k4)
  theta = (th1,..,th4)  cubic-surface coefficients, polynomial in a

theta is a basis of invariants of the affine Weyl group W(D4(1)) acting on
kappa by the reflections sigma_i(k_j) = k_j - k_i * C[i][j], so the composite
kappa -> a -> theta is the Riemann-Hilbert correspondence in the parameter
level.  Wall membership (kappa on a reflecting hyperplane, equivalently the
cubic surface singular) is decided through the lifted discriminant, and
strata are labeled geometrically from the singular points of the cubic.
"""

from __future__ import annotations

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

_AFFINE_WEIGHTS = np.array([2.0, 1.0, 1.0, 1.0, 1.0])


class UnclassifiableError(RuntimeError):
    """Stratum classification failed; near-degenerate theta, tighten tol."""


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
        scale = max(1.0, max(abs(getattr(self, f"k{i}")) for i in range(5)))
        if abs(rel - 1.0) > 1e-9 * scale:
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
    """Local monodromy traces: a_i = 2cos(pi k_i) for i=1,2,3, a4 = -2cos(pi k4)."""
    k = _kappa_array(kappa)
    a = 2.0 * np.cos(np.pi * k[1:5])
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


def discriminant_scale(a):
    """Normalization constant for wall decisions, deg(discriminant lift) = 16."""
    return max(1.0, float(np.max(np.abs(a)))) ** 16


def on_wall(kappa, tol=1e-8):
    """True iff kappa lies on a reflecting hyperplane of W(D4(1)).

    Decided through the lifted discriminant w(a)^2 * prod(a_i^2 - 4), whose
    vanishing is equivalent to the cubic surface S(theta) being singular.
    The value is compared against tol after scale normalization.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = kappa_to_a(kappa)
    return bool(abs(cubic.discriminant_lift(a)) <= tol * discriminant_scale(a))


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


def classify_stratum(kappa, tol=1e-8):
    """Label the stratum of kappa from the geometry of the cubic surface.

    The singular points of S(rh_param(kappa)) are computed and labeled by
    label_stratum.  This realizes the classification of singularities by
    Dynkin subdiagrams without searching for a Weyl-group witness.
    """
    return label_stratum(cubic.singular_points(rh_param(kappa), tol=tol))


def label_stratum(report):
    """The StratumLabel of a cubic surface from its singular points.

    The local types are combined: k separate nodes give kA1, a single
    higher point gives its own type.  Any other configuration, or a total
    Milnor number above 4, matches no subdiagram of D4(1) and raises
    UnclassifiableError.
    """
    pts = report.points
    if not pts:
        return StratumLabel("smooth", 0, report)
    milnor_total = sum(p.milnor for p in pts)
    if len(pts) == 1:
        label = pts[0].local_type
    elif all(p.local_type == "A1" for p in pts):
        label = f"{len(pts)}A1"
    else:
        raise UnclassifiableError(
            f"singular configuration {[p.local_type for p in pts]} does not "
            "match any stratum; near-degenerate theta, tighten tolerance"
        )
    if milnor_total > 4:
        raise UnclassifiableError(
            f"total Milnor number {milnor_total} exceeds 4; spurious points "
            "suggest the solve did not converge"
        )
    return StratumLabel(label, milnor_total, report)
