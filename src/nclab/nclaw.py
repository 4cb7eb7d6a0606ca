"""Empirical non-commutative laws and weak-* diagnostics.

A law is the truncated moment map word -> tr_n(word(X)).  The weak-*
topology is probed through arctan-compressed moments: :func:`arctan_law`
pushes a tuple through the componentwise arctan before taking moments, and
:func:`law_metric` sums |lambda_1(p_k) - lambda_2(p_k)| over the non-constant
monomials p_k in graded-lexicographic order with weights 2^-k (pi/2)^-deg,
so the tail beyond truncation degree D is bounded by 2^-D.

Reference moments of the semicircle law (integrals of arctan powers against
(1/2pi) sqrt(4 - x^2)) are computed by adaptive Simpson quadrature, and the
even plain moments are Catalan numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import ncpoly
from .matrixcore import MatrixTuple
from .ncpoly import NCPolynomial, words_up_to_degree

__all__ = [
    "NCLaw", "empirical_law", "arctan_law", "law_metric",
    "freeness_statistic", "semicircle_moment", "semicircle_arctan_moment",
    "semicircle_arctan_law", "catalan",
]


@dataclass
class NCLaw:
    """Truncated moment functional of a d-tuple: word -> complex moment."""

    d: int
    max_degree: int
    moments: dict
    radius_bound: float | None = None

    def __post_init__(self):
        unit = self.moments.get((), None)
        if unit is None or abs(unit - 1.0) > 1e-9:
            raise ValueError("law must assign moment 1 to the empty word")
        for word in self.moments:
            if len(word) > self.max_degree:
                raise ValueError(f"stored word {word} exceeds degree {self.max_degree}")

    def moment(self, word):
        word = tuple(word)
        if word not in self.moments:
            raise KeyError(f"moment of {word} not stored (degree {self.max_degree})")
        return self.moments[word]

    def validate(self, tol=1e-9):
        """Check cyclicity, conjugate symmetry and the exponential bound."""
        for word, val in self.moments.items():
            if len(word) >= 2:
                shifted = word[1:] + word[:1]
                if shifted in self.moments and abs(self.moments[shifted] - val) > tol:
                    raise ValueError(f"cyclic invariance fails at {word}")
            rev = word[::-1]
            if rev in self.moments and abs(np.conj(self.moments[rev]) - val) > tol:
                raise ValueError(f"conjugate symmetry fails at {word}")
            if self.radius_bound is not None and len(word) > 0:
                cap = self.radius_bound ** len(word) * (1.0 + 1e-9) + tol
                if abs(val) > cap:
                    raise ValueError(
                        f"moment {word} = {val:.6g} exceeds radius bound "
                        f"{self.radius_bound:.6g}^{len(word)}")
        return self


def empirical_law(x: MatrixTuple, max_degree) -> NCLaw:
    """Moments of all words up to max_degree; radius bound = max operator norm."""
    if max_degree < 0:
        raise ValueError("degree must be >= 0")
    n = x.dim
    moments = {}
    cache = {}
    for word in words_up_to_degree(x.d, max_degree):
        mat = ncpoly._word_matrix(word, x.data, cache)
        moments[word] = complex(np.trace(mat) / n)
    radius = x.max_operator_norm()
    return NCLaw(d=x.d, max_degree=max_degree, moments=moments, radius_bound=radius)


def arctan_law(x: MatrixTuple, max_degree) -> NCLaw:
    """Law of arctan(X) (componentwise functional calculus); radius <= pi/2."""
    law = empirical_law(x.apply_scalar_function("arctan"), max_degree)
    law.radius_bound = min(law.radius_bound, math.pi / 2)
    return law


def law_metric(law1: NCLaw, law2: NCLaw, max_degree=6):
    """Truncated weak-* metric between two arctan-compressed laws.

    The inputs must already be laws of arctan-transformed tuples; the k-th
    non-constant monomial p_k (graded-lex, k starting at 1) contributes
    2^-k (pi/2)^-deg(p_k) |law1(p_k) - law2(p_k)|.  The dropped tail is
    below 2^-D where D = max_degree.
    """
    if law1.d != law2.d:
        raise ValueError("laws have different letter counts")
    if law1.max_degree < max_degree or law2.max_degree < max_degree:
        raise ValueError(
            f"laws store degree ({law1.max_degree}, {law2.max_degree}) "
            f"moments; metric needs {max_degree}")
    for law in (law1, law2):
        if law.radius_bound is not None and law.radius_bound > math.pi / 2 + 1e-9:
            raise ValueError("law_metric expects arctan-compressed laws "
                             f"(radius bound {law.radius_bound:.3f} > pi/2)")
    total = 0.0
    k = 0
    for word in words_up_to_degree(law1.d, max_degree, include_unit=False):
        k += 1
        weight = 2.0 ** (-k) * (math.pi / 2.0) ** (-len(word))
        total += weight * abs(law1.moments[word] - law2.moments[word])
    return total


def freeness_statistic(groups, index_sequence, polys):
    """Normalized trace of the alternating centered product.

    ``groups`` is a list of MatrixTuple; ``index_sequence`` picks a group per
    factor (1-based, consecutive entries must differ); ``polys`` are
    self-adjoint NCPolynomial over the matching group's letters.  Returns
    tr_n prod_i (f_i(X_{j_i}) - tr_n f_i(X_{j_i}) I), the canonical statistic
    whose decay to zero witnesses asymptotic freeness.
    """
    seq = [int(j) for j in index_sequence]
    if len(seq) != len(polys):
        raise ValueError("index sequence and polynomial list differ in length")
    if not seq:
        raise ValueError("empty product")
    for a, b in zip(seq, seq[1:]):
        if a == b:
            raise ValueError(f"consecutive indices must differ, got {seq}")
    n = groups[0].dim
    prod = np.eye(n, dtype=complex)
    for j, poly in zip(seq, polys):
        if not poly.is_selfadjoint():
            raise ValueError("freeness statistic requires self-adjoint polynomials")
        x = groups[j - 1]
        mat = poly.evaluate(x)
        centered = mat - (np.trace(mat) / n) * np.eye(n, dtype=complex)
        prod = prod @ centered
    val = np.trace(prod) / n
    if abs(val.imag) > 1e-9 * (1.0 + abs(val)):
        raise ValueError(f"statistic has imaginary part {val.imag:.3e}")
    return float(val.real)


@lru_cache(maxsize=None)
def catalan(k):
    """C_k = binom(2k, k)/(k+1) by the recurrence C_{k+1} = sum C_i C_{k-i}."""
    if k == 0:
        return 1
    return sum(catalan(i) * catalan(k - 1 - i) for i in range(k))


def semicircle_moment(k):
    """k-th moment of the standard semicircle law: 0 odd, Catalan C_{k/2} even."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    return 0.0 if k % 2 else float(catalan(k // 2))


def _adaptive_simpson(f, a, b, tol, fa, fm, fb, whole, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_adaptive_simpson(f, a, m, tol / 2.0, fa, flm, fm, left, depth - 1)
            + _adaptive_simpson(f, m, b, tol / 2.0, fm, frm, fb, right, depth - 1))


def adaptive_simpson(f, a, b, tol=1e-10, max_depth=48):
    """Adaptive Simpson quadrature with absolute tolerance ``tol``."""
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(f, a, b, tol, fa, fm, fb, whole, max_depth)


@lru_cache(maxsize=None)
def semicircle_arctan_moment(m, tol=1e-10):
    """int arctan(x)^m (1/2pi) sqrt(4 - x^2) dx over [-2, 2]."""
    if m < 0:
        raise ValueError("moment order must be >= 0")
    if m % 2 == 1:
        return 0.0  # odd integrand against an even density

    def integrand(x):
        return math.atan(x) ** m * math.sqrt(max(4.0 - x * x, 0.0)) / (2.0 * math.pi)

    return adaptive_simpson(integrand, -2.0, 2.0, tol=tol)


def semicircle_arctan_law(max_degree) -> NCLaw:
    """The d=1 reference law: moments of arctan(S) for semicircular S."""
    moments = {(): 1.0 + 0.0j}
    for deg in range(1, max_degree + 1):
        moments[(1,) * deg] = complex(semicircle_arctan_moment(deg))
    return NCLaw(d=1, max_degree=max_degree, moments=moments,
                 radius_bound=math.pi / 2)
