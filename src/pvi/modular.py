"""Polynomial automorphisms of the ambient space C^7 = C^3_x × C^4_theta.

The three generators act by

    g_i: (x_i, x_j, x_k) -> (theta_j - x_j - x_k x_i, x_i, x_k),
         theta_i <-> theta_j,

with (i, j, k) the cyclic order starting at i.  They preserve the Fricke
polynomial, satisfy the braid relations g_i g_j g_i = g_j g_i g_j and
(g_i g_j)^3 = id, and generate the nonlinear monodromy action on each
surface S(theta).  Words are sequences over {±1, ±2, ±3}, applied left to
right; negative letters are inverse generators.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import cubic

ESCAPE_BOUND = 1e100
_FIXED_TOL = 1e-8  # fixed_point_check's bound on |w(x) - x|


class EscapeError(RuntimeError):
    """An orbit coordinate exceeded the escape bound."""


class NotLevelTwoError(ValueError):
    """The word permutes theta, so the requested operation is undefined."""


@dataclass(frozen=True)
class AmbientPoint:
    """A point of C^7; it need not lie on the surface f = 0."""

    x: np.ndarray
    theta: np.ndarray

    @classmethod
    def make(cls, x, theta):
        x = np.asarray(x, dtype=complex)
        theta = np.asarray(theta, dtype=complex)
        if x.shape != (3,) or theta.shape != (4,):
            raise ValueError("need three x and four theta components")
        return cls(x, theta)

    def f_residual(self):
        return float(abs(cubic.eval_f(self.x, self.theta)))


def _cyclic(i):
    """0-based (i, j, k) for a 1-based generator index."""
    if i not in (1, 2, 3):
        raise ValueError(f"generator index must be 1, 2 or 3, got {i}")
    return i - 1, i % 3, (i + 1) % 3


def apply_generator(i, point):
    """The automorphism g_i."""
    i0, j0, k0 = _cyclic(i)
    x, th = point.x, point.theta
    xn = x.copy()
    thn = th.copy()
    xn[i0] = th[j0] - x[j0] - x[k0] * x[i0]
    xn[j0] = x[i0]
    thn[i0], thn[j0] = th[j0], th[i0]
    return AmbientPoint(xn, thn)


def apply_inverse(i, point):
    """The inverse automorphism g_i^{-1}, solved from the forward formula."""
    i0, j0, k0 = _cyclic(i)
    x, th = point.x, point.theta
    xn = x.copy()
    thn = th.copy()
    xn[i0] = x[j0]
    xn[j0] = th[i0] - x[i0] - x[k0] * x[j0]
    thn[i0], thn[j0] = th[j0], th[i0]
    return AmbientPoint(xn, thn)


def jacobian(letter, point):
    """Exact 3x3 Jacobian of the x-part of one word letter at the point.

    Rows are new coordinates, columns old ones, both in (x1, x2, x3) order.
    The determinant is identically 1, which is what makes level-two words
    preserve the fiberwise residue form.
    """
    i0, j0, k0 = _cyclic(abs(letter))
    x = point.x
    J = np.zeros((3, 3), dtype=complex)
    if letter > 0:
        J[i0, i0] = -x[k0]
        J[i0, j0] = -1.0
        J[i0, k0] = -x[i0]
        J[j0, i0] = 1.0
        J[k0, k0] = 1.0
    else:
        J[i0, j0] = 1.0
        J[j0, i0] = -1.0
        J[j0, j0] = -x[k0]
        J[j0, k0] = -x[j0]
        J[k0, k0] = 1.0
    return J


def parse_word(text):
    """Parse a word like "1 2 -1" (commas allowed) or a list of integers."""
    if isinstance(text, str):
        parts = text.replace(",", " ").split()
        letters = tuple(int(s) for s in parts)
    else:
        try:
            letters = tuple(map(operator.index, text))
        except TypeError:
            raise ValueError(
                f"a word is a string or a list of integers, got {text!r}"
            ) from None
    for l in letters:
        if l not in (1, 2, 3, -1, -2, -3):
            raise ValueError(f"invalid word letter {l}")
    return letters


def apply_word(word, point, _tangent=None):
    """Apply a word left to right: the first letter acts first.

    Raises EscapeError as soon as any coordinate magnitude exceeds
    ESCAPE_BOUND; orbits of these automorphisms can genuinely blow up.
    With _tangent set, the tangent vector is pushed forward through the
    exact Jacobians alongside the point.
    """
    word = parse_word(word)
    tangent = None if _tangent is None else np.asarray(_tangent, dtype=complex)
    for pos, letter in enumerate(word):
        if tangent is not None:
            tangent = jacobian(letter, point) @ tangent
        if letter > 0:
            point = apply_generator(letter, point)
        else:
            point = apply_inverse(-letter, point)
        m = float(np.max(np.abs(point.x)))
        if not np.isfinite(m) or m > ESCAPE_BOUND:
            raise EscapeError(
                f"orbit escaped at letter {pos}: |x| reached {m:.3e}"
            )
    if _tangent is not None:
        return point, tangent
    return point


def push_tangent(word, point, tangent):
    """Point and tangent vector pushed forward through a word."""
    return apply_word(word, point, _tangent=tangent)


_TRANSPOSITIONS = {1: (1, 0, 2), 2: (0, 2, 1), 3: (2, 1, 0)}


def perm_image(word):
    """Image of a word under g_i -> tau_i = (i j), as a 0-based image tuple.

    perm[m] is the image of m for m = 0, 1, 2.  A word is level-two exactly
    when the image is the identity; only those words fix theta.
    """
    perm = (0, 1, 2)
    for letter in parse_word(word):
        tau = _TRANSPOSITIONS[abs(letter)]
        perm = tuple(tau[perm[m]] for m in range(3))
    return perm


def is_level_two(word):
    return perm_image(word) == (0, 1, 2)


def braid_to_modular(braid, orientation="fwd"):
    """Letter-wise dictionary from braid words to modular words.

    orientation "fwd" maps beta_i to g_i, "inv" to g_i^{-1}.  Exactly one
    convention matches the integrated return map; the calibration lives in
    the nonlinear-monodromy acceptance test and the winner is wired into
    the flow module's default.
    """
    letters = parse_word(braid)
    if orientation == "fwd":
        return letters
    if orientation == "inv":
        return tuple(-l for l in letters)
    raise ValueError("orientation must be 'fwd' or 'inv'")


def fixed_point_check(word, point):
    """True when the level-two word moves point.x by at most _FIXED_TOL.

    Raises NotLevelTwoError for words that permute theta: those cannot fix
    any point with distinct theta components and the comparison would be
    meaningless.
    """
    word = parse_word(word)
    if not is_level_two(word):
        raise NotLevelTwoError("word is not level-two: it permutes theta")
    image = apply_word(word, point)
    return bool(np.max(np.abs(image.x - point.x)) <= _FIXED_TOL)


@dataclass(frozen=True)
class OrbitSample:
    step: int
    point: AmbientPoint
    f_residual: float


def orbit(point, word, n):
    """The orbit point, w(point), ..., w^n(point) with f-residuals.

    Requires a level-two word so that theta is constant along the orbit.
    """
    word = parse_word(word)
    if not is_level_two(word):
        raise NotLevelTwoError("orbit needs a level-two word")
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    samples = [OrbitSample(0, point, point.f_residual())]
    for step in range(1, n + 1):
        point = apply_word(word, point)
        samples.append(OrbitSample(step, point, point.f_residual()))
    return samples
