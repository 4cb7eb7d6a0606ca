"""Non-commutative polynomials over d letters, with matrix evaluation.

Words are tuples of 1-based letters; the empty word is the unit.  The
module provides the involution p -> p*, Voiculescu's free difference
quotient d_j : words -> word (x) word, the cyclic derivative D_j, and the
# action (a (x) b) # c = a c b, all extended linearly.  Evaluation plugs a
:class:`~nclab.matrixcore.MatrixTuple` (or a batched (..., d, n, n) array)
into the letters.

Canonical word order is graded-lexicographic (degree first, then lexicographic),
which fixes the monomial enumeration used by the law metric.
"""

from __future__ import annotations

import re
from itertools import product

import numpy as np

from .matrixcore import MatrixTuple

__all__ = [
    "NCPolynomial", "TensorPolynomial",
    "words_up_to_degree", "grlex_key",
    "parse_polynomial", "format_polynomial",
]

COEFF_PRUNE_TOL = 1e-15


def grlex_key(word):
    """Sort key for graded-lexicographic order: degree first, then letters."""
    return (len(word), word)


def words_up_to_degree(d, max_degree):
    """All words over {1..d} of degree <= max_degree, the unit first, in
    graded-lex order."""
    out = [()]
    for deg in range(1, max_degree + 1):
        out.extend(product(range(1, d + 1), repeat=deg))
    return out


def _check_word(word, d):
    for letter in word:
        if not (1 <= letter <= d):
            raise ValueError(f"letter {letter} out of range for d={d}")
    return tuple(int(letter) for letter in word)


class NCPolynomial:
    """A finite complex combination of words over letters {1..d}."""

    __slots__ = ("d", "terms")

    def __init__(self, d, terms=None):
        self.d = int(d)
        clean = {}
        for word, coeff in (terms or {}).items():
            word = _check_word(word, self.d)
            coeff = complex(coeff)
            if word in clean:
                coeff = clean[word] + coeff
            if abs(coeff) > COEFF_PRUNE_TOL:
                clean[word] = coeff
            elif word in clean:
                del clean[word]
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def unit(cls, d):
        return cls(d, {(): 1.0})

    @classmethod
    def monomial(cls, d, word):
        return cls(d, {tuple(word): 1.0})

    # -- basic queries ---------------------------------------------------------

    def degree(self):
        return max((len(w) for w in self.terms), default=0)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def __eq__(self, other):
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return self.d == other.d and self.terms == other.terms

    def __hash__(self):
        return hash((self.d, tuple(self.sorted_terms())))

    def __repr__(self):
        return f"NCPolynomial(d={self.d}, {format_polynomial(self)!r})"

    # -- algebra ---------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, NCPolynomial):
            if other.d != self.d:
                raise ValueError("polynomials over different letter counts")
            return other
        if isinstance(other, (int, float, complex)):
            return NCPolynomial(self.d, {(): other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0.0) + c
        return NCPolynomial(self.d, terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rsub__(self, other):
        return (-1.0) * self + other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return NCPolynomial(self.d, {w: c * other for w, c in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                terms[w] = terms.get(w, 0.0) + c1 * c2
        return NCPolynomial(self.d, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers are not defined")
        out = NCPolynomial.unit(self.d)
        for _ in range(int(k)):
            out = out * self
        return out

    # -- involution --------------------------------------------------------------

    def star(self):
        """Word reversal with conjugated coefficients."""
        return NCPolynomial(
            self.d, {w[::-1]: np.conj(c) for w, c in self.terms.items()})

    def is_selfadjoint(self):
        """|c_w - conj(c_{w reversed})| <= 1e-12 for every word w.

        Words outside ``terms`` have coefficient 0, so checking the words of
        ``terms`` covers the union of the words and their reversals.
        """
        terms = self.terms
        return all(abs(c - np.conj(terms.get(w[::-1], 0.0))) <= 1e-12
                   for w, c in terms.items())

    def symmetrize(self):
        """(p + p*)/2, always self-adjoint: the sums and prune of
        ``0.5 * (p + p.star())`` without re-checking the words of p."""
        total = dict(self.terms)
        for w, c in self.terms.items():
            total[w[::-1]] = total.get(w[::-1], 0.0) + c.conjugate()
        out = NCPolynomial(self.d)
        out.terms = {w: c * 0.5 for w, c in total.items()
                     if abs(c * 0.5) > COEFF_PRUNE_TOL}
        return out

    # -- calculus ---------------------------------------------------------------

    def free_difference_quotient(self, j):
        """d_j p in NCP (x) NCP: split each word at every occurrence of letter j."""
        if not (1 <= j <= self.d):
            raise ValueError(f"letter {j} out of range for d={self.d}")
        terms = {}
        for word, coeff in self.terms.items():
            for k, letter in enumerate(word):
                if letter == j:
                    key = (word[:k], word[k + 1:])
                    terms[key] = terms.get(key, 0.0) + coeff
        return TensorPolynomial(self.d, terms)

    def cyclic_derivative(self, j):
        """D_j p: rotate each word about every occurrence of letter j."""
        if not (1 <= j <= self.d):
            raise ValueError(f"letter {j} out of range for d={self.d}")
        terms = {}
        for word, coeff in self.terms.items():
            for k, letter in enumerate(word):
                if letter == j:
                    rotated = word[k + 1:] + word[:k]
                    terms[rotated] = terms.get(rotated, 0.0) + coeff
        return NCPolynomial(self.d, terms)

    def gradient(self):
        """Tuple of cyclic derivatives (D_1 p, ..., D_d p)."""
        return [self.cyclic_derivative(j) for j in range(1, self.d + 1)]

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, x, cache=None):
        """p(X) as an n x n complex matrix (or batched (..., n, n)).

        ``cache`` is a word-product cache to share between evaluations at
        the same X; a fresh one is used when it is None.
        """
        data = _tuple_data(x, self.d)
        return _evaluate_terms(self.terms, data, {} if cache is None else cache)

    def evaluate_trace(self, x, cache):
        """tr_n p(X); complex in general, real for self-adjoint p on Hermitian X.

        For self-adjoint p, |Im tr_n p(X)| must not exceed
        1e-10 (1 + |tr_n p(X)|) for each X of a batch on its own, as for a
        single X.  ``cache`` is a word-product cache for X, as in
        :meth:`evaluate`.
        """
        data = _tuple_data(x, self.d)
        val = _trace_terms(self.terms, data, cache)
        if self.is_selfadjoint():
            im = np.abs(np.imag(val))
            bad = im > 1e-10 * (1.0 + np.abs(val))
            if np.any(bad):
                raise ValueError("self-adjoint trace has imaginary part "
                                 f"{np.max(im[bad]):.3e}")
            val = np.real(val)
        return val if np.ndim(val) else complex(val) if np.iscomplexobj(val) else float(val)


class TensorPolynomial:
    """An element of NCP (x) NCP: complex combinations of word pairs."""

    __slots__ = ("d", "terms")

    def __init__(self, d, terms=None):
        self.d = int(d)
        clean = {}
        for (w1, w2), coeff in (terms or {}).items():
            key = (_check_word(w1, self.d), _check_word(w2, self.d))
            coeff = complex(coeff) + clean.get(key, 0.0)
            if abs(coeff) > COEFF_PRUNE_TOL:
                clean[key] = coeff
            elif key in clean:
                del clean[key]
        self.terms = clean

    def __eq__(self, other):
        if not isinstance(other, TensorPolynomial):
            return NotImplemented
        return self.d == other.d and self.terms == other.terms

    def __repr__(self):
        parts = [f"({format_word(w1)})(x)({format_word(w2)})*{c:.3g}"
                 for (w1, w2), c in self.terms.items()]
        return "TensorPolynomial[" + " + ".join(parts) + "]"

    def __add__(self, other):
        if not isinstance(other, TensorPolynomial) or other.d != self.d:
            return NotImplemented
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0.0) + c
        return TensorPolynomial(self.d, terms)

    def __mul__(self, scalar):
        return TensorPolynomial(
            self.d, {k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__

    def sharp(self, x, c):
        """(a (x) b) # C = a C b extended linearly; x supplies the letters."""
        data = _tuple_data(x, self.d)
        c = np.asarray(c, dtype=complex)
        n = data.shape[-1]
        if c.shape[-2:] != (n, n):
            raise ValueError(f"sharp operand has shape {c.shape}, expected (..., {n}, {n})")
        cache = {}
        out = None
        for (w1, w2), coeff in self.terms.items():
            a = _word_matrix(w1, data, cache)
            b = _word_matrix(w2, data, cache)
            term = coeff * (a @ c @ b)
            out = term if out is None else out + term
        if out is None:
            shape = np.broadcast_shapes(data.shape[:-3], c.shape[:-2]) + (n, n)
            out = np.zeros(shape, dtype=complex)
        return out

    def trace_pair(self, x, cache):
        """(tr_n (x) tr_n) applied to the tensor, evaluated at X.

        ``cache`` is a word-product cache for X, as in
        :meth:`NCPolynomial.evaluate`.
        """
        data = _tuple_data(x, self.d)
        n = data.shape[-1]
        total = 0.0 + 0.0j
        for (w1, w2), coeff in self.terms.items():
            t1 = np.trace(_word_matrix(w1, data, cache), axis1=-2, axis2=-1) / n
            t2 = np.trace(_word_matrix(w2, data, cache), axis1=-2, axis2=-1) / n
            total = total + coeff * t1 * t2
        return total if np.ndim(total) else complex(total)


# -- shared evaluation machinery -------------------------------------------------


def _tuple_data(x, d):
    """Normalize X to an (..., D, n, n) array with at least d letters."""
    if isinstance(x, MatrixTuple):
        data = x.data
    else:
        data = np.asarray(x, dtype=complex)
        if data.ndim == 2:
            data = data[None]
    if data.ndim < 3 or data.shape[-1] != data.shape[-2]:
        raise ValueError(f"expected (..., d, n, n) data, got {data.shape}")
    if data.shape[-3] < d:
        raise ValueError(f"polynomial uses {d} letters, tuple has {data.shape[-3]}")
    return data


def _word_matrix(word, data, cache):
    """Evaluate a word by chained matmul, memoizing prefixes.

    A one-letter word is a view of its letter in ``data``: callers must not
    write into the returned array.  This is the package's one word-product
    evaluator; other modules call it as ``ncpoly._word_matrix`` so that a
    wrapper set on the module attribute (``perfbench/tracer.py``) sees every
    product.
    """
    if word in cache:
        return cache[word]
    n = data.shape[-1]
    if not word:
        eye = np.broadcast_to(np.eye(n, dtype=complex), data.shape[:-3] + (n, n))
        cache[word] = eye
        return eye
    prefix, last = word[:-1], word[-1]
    mat = data[..., last - 1, :, :]
    if prefix:
        mat = _word_matrix(prefix, data, cache) @ mat
    cache[word] = mat
    return mat


def _evaluate_terms(terms, data, cache):
    out = None
    for word, coeff in terms.items():
        term = coeff * _word_matrix(word, data, cache)
        out = term if out is None else out + term
    if out is None:
        n = data.shape[-1]
        out = np.zeros(data.shape[:-3] + (n, n), dtype=complex)
    return out


def _trace_terms(terms, data, cache):
    n = data.shape[-1]
    total = np.zeros(data.shape[:-3], dtype=complex)
    for word, coeff in terms.items():
        # tr(AB) over the word split in half avoids materializing the product
        if len(word) >= 2:
            half = len(word) // 2
            a = _word_matrix(word[:half], data, cache)
            b = _word_matrix(word[half:], data, cache)
            tr = np.einsum("...ij,...ji->...", a, b) / n
        else:
            tr = np.trace(_word_matrix(word, data, cache), axis1=-2, axis2=-1) / n
        total = total + coeff * tr
    return total


# -- textual format ---------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?j?)"
                    r"|(?P<var>x\d+)(?:\^(?P<pow>\d+))?"
                    r"|(?P<op>[*+-]))")


def parse_polynomial(text, d):
    """Parse terms like ``"2.0*x1*x2*x1 - 0.5*x2"`` into an NCPolynomial.

    Factors are floats (optionally with a trailing ``j``) or letters ``xK``
    with an optional ``^p`` power; unknown letters (K > d) are rejected.
    """
    pos, tokens = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"cannot parse polynomial at: {text[pos:]!r}")
        tokens.append(m)
        pos = m.end()

    result = NCPolynomial(d)
    current = None  # product accumulator for the term being read
    sign = 1.0
    expect_factor = True  # True when the next token must begin/extend a product

    def flush():
        nonlocal result, current, sign
        if current is not None:
            result = result + sign * current
        current, sign = None, 1.0

    for m in tokens:
        op = m.group("op")
        if op in ("+", "-"):
            if expect_factor:
                # unary sign at the start of a term
                sign *= 1.0 if op == "+" else -1.0
            else:
                flush()
                sign = 1.0 if op == "+" else -1.0
                expect_factor = True
            continue
        if op == "*":
            if expect_factor:
                raise ValueError(f"misplaced '*' in {text!r}")
            expect_factor = True
            continue
        if m.group("num") is not None:
            token = m.group("num")
            if not expect_factor:
                # a signed number starts a new term ("... - 0.5*x2" compact form)
                if token[0] not in "+-":
                    raise ValueError(f"missing operator before {token!r} in {text!r}")
                flush()
            factor = NCPolynomial(d, {(): complex(token)})
        else:
            if not expect_factor:
                raise ValueError(f"missing operator before {m.group('var')!r} in {text!r}")
            k = int(m.group("var")[1:])
            if not (1 <= k <= d):
                raise ValueError(f"unknown letter x{k} for d={d}")
            power = int(m.group("pow") or 1)
            factor = NCPolynomial.monomial(d, (k,) * power)
        current = factor if current is None else current * factor
        expect_factor = False
    if expect_factor and tokens:
        raise ValueError(f"dangling operator in {text!r}")
    flush()
    return result


def format_word(word):
    return "1" if not word else "*".join(f"x{letter}" for letter in word)


def _format_coeff(c):
    if abs(c.imag) <= COEFF_PRUNE_TOL:
        return repr(c.real)
    return f"({c.real!r}{c.imag:+}j)"


def format_polynomial(p: NCPolynomial):
    """Inverse of parse_polynomial up to coefficient collection."""
    if not p.terms:
        return "0.0"
    parts = []
    for word, coeff in p.sorted_terms():
        body = _format_coeff(coeff)
        if word:
            body += "*" + format_word(word)
        parts.append(body)
    return " + ".join(parts)

