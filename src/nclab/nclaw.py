"""Non-commutative laws, freeness statistics and semicircle references.

A law is a truncated moment map word -> tr_n(word(X)).  The one law the
package builds is the target of the Laplace principle's rate function
(``control.rate_function_candidate``): the moments of arctan(S) for a
semicircular S, integrals of arctan powers against (1/2pi) sqrt(4 - x^2)
computed by adaptive Simpson quadrature.  The even plain semicircle moments
are Catalan numbers, and the alternating centered product measures
asymptotic freeness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "NCLaw", "freeness_statistic", "semicircle_moment",
    "semicircle_arctan_moment", "semicircle_arctan_law", "catalan",
]


@dataclass
class NCLaw:
    """Truncated moment functional of a d-tuple: word -> complex moment.

    The rate-function candidate reads its target's moments through
    :meth:`moment` (the Laplace principle's phi(target) term)."""

    d: int
    max_degree: int
    moments: dict

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


def freeness_statistic(groups, index_sequence, polys):
    """Normalized trace of the alternating centered product.

    ``groups`` is a list of (d, n, n) arrays, one d-tuple each;
    ``index_sequence`` picks a group per factor (1-based, consecutive
    entries must differ); ``polys`` are self-adjoint NCPolynomial over the
    matching group's letters.  Returns
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
    n = groups[0].shape[-1]
    prod = None
    for j, poly in zip(seq, polys):
        if not poly.is_selfadjoint():
            raise ValueError("freeness statistic requires self-adjoint polynomials")
        x = groups[j - 1]
        mat = poly.evaluate(x)
        centered = mat - (np.trace(mat) / n) * np.eye(n, dtype=complex)
        prod = centered if prod is None else prod @ centered
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


def adaptive_simpson(f, a, b, tol):
    """Adaptive Simpson quadrature with absolute tolerance ``tol``, at most 48
    bisections deep: the semicircle-arctan moments of the rate function's
    target law, and the bins' absolute deviations in
    ``gaussdisc.bin_conditional_absdev``."""
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(f, a, b, tol, fa, fm, fb, whole, 48)


@lru_cache(maxsize=None)
def semicircle_arctan_moment(m):
    """int arctan(x)^m (1/2pi) sqrt(4 - x^2) dx over [-2, 2], to 1e-10: the
    moments of the Laplace principle's target law,
    :func:`semicircle_arctan_law`."""
    if m < 0:
        raise ValueError("moment order must be >= 0")
    if m % 2 == 1:
        return 0.0  # odd integrand against an even density

    def integrand(x):
        return math.atan(x) ** m * math.sqrt(max(4.0 - x * x, 0.0)) / (2.0 * math.pi)

    return adaptive_simpson(integrand, -2.0, 2.0, 1e-10)


def semicircle_arctan_law(max_degree) -> NCLaw:
    """The d=1 reference law: moments of arctan(S) for semicircular S, the
    target law at which ``control.rate_function_candidate`` evaluates the
    Laplace principle's rate function."""
    moments = {(): 1.0 + 0.0j}
    for deg in range(1, max_degree + 1):
        moments[(1,) * deg] = complex(semicircle_arctan_moment(deg))
    return NCLaw(d=1, max_degree=max_degree, moments=moments)
