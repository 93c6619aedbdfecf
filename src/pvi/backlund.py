"""Backlund transformations as birational maps on (kappa, q, p, t).

The five basic transformations realize the generators of the affine Weyl
group on the exponent vector while acting on the canonical coordinates by
simple shear corrections.  They commute with the Hamiltonian flow, which
check_equivariance verifies numerically on concrete paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import flow, fuchsian, params


class PoleOfTransformationError(ValueError):
    """A basic transformation was evaluated on its polar divisor."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


def apply_basic(i, pt):
    """One basic transformation s_i, i in 0..4.

    The exponent vector reflects through weyl_reflect; the pole triple is
    untouched.  On coordinates: s_0 shifts q by kappa0/p, the middle three
    shift p by -kappa_i/(q - t_i), and s_4 only acts on the exponents (its
    correction carries the fourth pole, which sits at infinity here, so
    the shift is the limit 0).  A vanishing kappa component makes the
    corresponding map the identity on (q, p), pole or not.
    """
    if i not in range(5):
        raise ValueError("transformation index must be 0..4")
    k = pt.kappa
    kappa_out = params.weyl_reflect(i, k)
    q, p = pt.q, pt.p
    if i == 0:
        if k.k0 != 0:
            if abs(p) < 1e-280:
                raise PoleOfTransformationError(
                    "s_0 evaluated at its pole p = 0"
                )
            q = q + k.k0 / p
    elif i in (1, 2, 3):
        ki = (k.k1, k.k2, k.k3)[i - 1]
        if ki != 0:
            den = pt.q - pt.t[i - 1]
            if abs(den) < 1e-280:
                raise PoleOfTransformationError(
                    f"s_{i} evaluated at its pole q = t_{i}"
                )
            p = p - ki / den
    return fuchsian.PhasePoint.make(q, p, pt.t, kappa_out)


def parse_backlund_word(word):
    """A word is a string over '01234' (whitespace ignored) or ints."""
    letters = params.parse_weyl_word(word)
    for ell in letters:
        if ell not in range(5):
            raise ValueError(f"invalid transformation letter {ell}")
    return letters


def apply_word(word, pt):
    """Left-to-right composition of basic transformations."""
    out = pt
    for step, ell in enumerate(parse_backlund_word(word)):
        try:
            out = apply_basic(ell, out)
        except PoleOfTransformationError as exc:
            raise PoleOfTransformationError(
                f"{exc} (word step {step})", step=step
            ) from exc
    return out


@dataclass(frozen=True)
class EquivarianceReport:
    """Outcome of a transform-then-flow vs flow-then-transform comparison."""

    index: int
    deviation: float
    transformed_then_flowed: fuchsian.PhasePoint
    flowed_then_transformed: fuchsian.PhasePoint

    def passed(self, tol):
        return self.deviation <= tol


def check_equivariance(i, pt, path):
    """Compare s_i then integrate against integrate then s_i.

    Both integrations follow the same time path; the report's deviation is
    the larger of the end-point mismatches in q and p.
    """
    first = flow.integrate(apply_basic(i, pt), path).end()
    second = apply_basic(i, flow.integrate(pt, path).end())
    deviation = max(abs(first.q - second.q), abs(first.p - second.p))
    return EquivarianceReport(
        index=i,
        deviation=float(deviation),
        transformed_then_flowed=first,
        flowed_then_transformed=second,
    )
