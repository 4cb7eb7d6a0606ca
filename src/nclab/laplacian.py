"""Cylindrical test functions and the GUE vs free Laplacian comparison.

A cylindrical function is U(X) = g(tr_n phi_1(X), ..., tr_n phi_m(X)) with a
polynomial outer g and self-adjoint polynomial inners phi_o.  With both
layers polynomial, the gradient, the Hessian bilinear form, the GUE
Laplacian (basis sum over the orthonormal Hermitian basis, prefactor 1/n^2)
and the free Laplacian ((tr (x) tr) of difference quotients of the gradient)
are all exact, so the comparison identity

    gue_laplacian = free_laplacian + correction

holds to rounding and is checkable at 1e-10.  The inner map is the identity
throughout; arctan never appears symbolically here (it enters the package
only through functional calculus).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import ncpoly
from .matrixcore import basis_element
from .ncpoly import (NCPolynomial, format_polynomial, parse_polynomial,
                     words_up_to_degree)

__all__ = ["MultiPoly", "CylindricalFunction", "TraceQuadratic", "trace_power",
           "random_cylindrical", "parse_outer", "format_outer"]

GUE_LAPLACIAN_GUARD = 4096  # maximum d * n^2 for the exact basis sum


def check_gue_laplacian_guard(d, n):
    """Refuse a d-letter, n x n exact basis sum beyond the guard."""
    if d * n * n > GUE_LAPLACIAN_GUARD:
        raise ValueError(f"d*n^2 = {d * n * n} exceeds guard {GUE_LAPLACIAN_GUARD}")


class MultiPoly:
    """A real polynomial in m commuting variables u_1..u_m.

    Stored as exponent-tuple -> coefficient; exact partial derivatives, which
    is the point: outer derivatives contribute no approximation error to the
    Laplacian comparison.
    """

    __slots__ = ("m", "terms")

    def __init__(self, m, terms=None):
        self.m = int(m)
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.m or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for m={self.m}")
            coeff = float(coeff) + clean.get(exps, 0.0)
            if abs(coeff) > 1e-15:
                clean[exps] = coeff
            elif exps in clean:
                del clean[exps]
        self.terms = clean

    @classmethod
    def variable(cls, m, o):
        exps = tuple(1 if i == o else 0 for i in range(m))
        return cls(m, {exps: 1.0})

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def __call__(self, u):
        """Evaluate at u of shape (..., m)."""
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape[:-1])
        for exps, coeff in self.terms.items():
            mono = np.ones(u.shape[:-1])
            for i, e in enumerate(exps):
                if e:
                    mono = mono * u[..., i] ** e
            out = out + coeff * mono
        return out if out.ndim else float(out)

    def partial(self, o):
        terms = {}
        for exps, coeff in self.terms.items():
            if exps[o] == 0:
                continue
            new = list(exps)
            new[o] -= 1
            key = tuple(new)
            terms[key] = terms.get(key, 0.0) + coeff * exps[o]
        return MultiPoly(self.m, terms)

    def __repr__(self):
        return f"MultiPoly(m={self.m}, {format_outer(self)!r})"


@dataclass(eq=False)
class TraceQuadratic:
    """A cost affine in the traces tr_n X_k and the Gram entries
    tr_n X_k X_l:

        U(X) = const + sum_k lin_k tr_n X_k + sum_kl quad_kl tr_n X_k X_l,

    ``quad`` (d, d) symmetric.  On Hermitian X every term is real.
    """

    const: float
    lin: np.ndarray     # (d,)
    quad: np.ndarray    # (d, d)

    def __eq__(self, other):
        return (isinstance(other, TraceQuadratic)
                and self.const == other.const
                and np.array_equal(self.lin, other.lin)
                and np.array_equal(self.quad, other.quad))


@dataclass
class CylindricalFunction:
    """U(X) = outer(tr_n inner_1(X), ..., tr_n inner_m(X)) with polynomial layers."""

    outer: MultiPoly
    inners: list

    def __post_init__(self):
        if len(self.inners) != self.outer.m:
            raise ValueError("outer arity and inner count differ")
        for phi in self.inners:
            if not phi.is_selfadjoint():
                raise ValueError("inner polynomials must be self-adjoint")
        self._grad_polys = [phi.gradient() for phi in self.inners]
        # _quotients[o][j][i] = d_{i+1} D_{j+1} phi_o, the difference quotients
        # of the gradient read by the Hessian and both Laplacians
        self._quotients = [[[dpoly.free_difference_quotient(i)
                             for i in range(1, phi.d + 1)] for dpoly in grads]
                           for phi, grads in zip(self.inners, self._grad_polys)]
        # the outer's first and second partials, evaluated at the inner traces
        self._outer_grad = [self.outer.partial(o) for o in range(self.m)]
        self._outer_hess = [[g.partial(q) for q in range(self.m)]
                            for g in self._outer_grad]
        self._form = self._build_trace_quadratic()

    @property
    def m(self):
        return self.outer.m

    @property
    def d(self):
        return max((phi.d for phi in self.inners), default=1)

    # -- evaluation ----------------------------------------------------------

    def inner_traces(self, x, cache=None):
        """Vector of tr_n phi_o(X); batched input gives shape (..., m).

        ``cache`` is a word-product cache shared by the inners (see
        :meth:`NCPolynomial.evaluate`).
        """
        cache = {} if cache is None else cache
        vals = [phi.evaluate_trace(x, cache) for phi in self.inners]
        return np.stack([np.asarray(v, dtype=float) for v in vals], axis=-1)

    def eval(self, x, cache=None):
        """U(X); ``cache`` is a word-product cache for X, as in
        :meth:`inner_traces`."""
        return self.outer(self.inner_traces(x, cache))

    def trace_quadratic(self):
        """U as a :class:`TraceQuadratic`, or None when the outer has degree
        above 1 or an inner has degree above 2.  Built once, with read-only
        arrays; the bin-tree engine reads it on every evaluation."""
        return self._form

    def _build_trace_quadratic(self):
        """A degree-1 outer is its value and slope at 0, folded into the
        inners' quadratic forms."""
        if (self.outer.degree() > 1
                or any(phi.degree() > 2 for phi in self.inners)):
            return None
        d = self.d
        const = np.zeros(self.m)
        lin = np.zeros((self.m, d))
        quad = np.zeros((self.m, d, d))
        for o, phi in enumerate(self.inners):
            for word, coeff in phi.terms.items():
                # self-adjoint: the imaginary parts cancel in the trace
                if len(word) == 0:
                    const[o] += coeff.real
                elif len(word) == 1:
                    lin[o, word[0] - 1] += coeff.real
                else:
                    k, l = word[0] - 1, word[1] - 1
                    quad[o, k, l] += 0.5 * coeff.real
                    quad[o, l, k] += 0.5 * coeff.real
        zero = np.zeros(self.m)
        slope = np.array([g(zero) for g in self._outer_grad])
        form = TraceQuadratic(const=float(self.outer(zero) + slope @ const),
                              lin=slope @ lin,
                              quad=np.tensordot(slope, quad, 1))
        form.lin.setflags(write=False)
        form.quad.setflags(write=False)
        return form

    def gradient(self, x):
        """(grad U)^j = sum_o g_o(u) D_j phi_o(X); exact outer partials.

        A (..., d, n, n) input returns an array of the same shape.
        """
        return self.value_and_grad(x)[1]

    def value_and_grad(self, x):
        """``(eval(x), gradient(x))`` from one pass: the inner traces are
        evaluated once, and the inners and the cyclic derivatives share one
        word-product cache."""
        cache = {}
        u = self.inner_traces(x, cache)
        d = x.shape[-3]
        out = np.empty(x.shape, dtype=complex)
        written = [False] * d
        for o, phi in enumerate(self.inners):
            go = np.asarray(self._outer_grad[o](u))[..., None, None]
            for j in range(1, d + 1):
                dpoly = self._grad_polys[o][j - 1] if j <= phi.d else None
                if dpoly is None or not dpoly.terms:
                    continue
                term = dpoly.evaluate(x, cache)
                if written[j - 1]:
                    out[..., j - 1, :, :] += go * term
                else:
                    np.multiply(go, term, out=out[..., j - 1, :, :])
                    written[j - 1] = True
        for j in range(d):
            if not written[j]:
                out[..., j, :, :] = 0.0
        return self.outer(u), out

    # -- second order ----------------------------------------------------------

    def _outer_derivatives(self, u):
        g1 = np.array([g(u) for g in self._outer_grad])
        g2 = np.array([[h(u) for h in row] for row in self._outer_hess])
        return g1, g2

    def _cyclic_matrices(self, x, cache=None):
        """D_j phi_o(X) for all o, j, as an (m, d, n, n) array.

        ``cache`` is a word-product cache for X, as in :meth:`inner_traces`.
        """
        cache = {} if cache is None else cache
        d, n = x.shape[-3], x.shape[-1]
        out = np.zeros((self.m, d, n, n), dtype=complex)
        for o, phi in enumerate(self.inners):
            for j in range(1, min(phi.d, d) + 1):
                dpoly = self._grad_polys[o][j - 1]
                if dpoly.terms:
                    out[o, j - 1] = dpoly.evaluate(x, cache)
        return out

    def hessian_bilinear(self, x, a, b):
        """Hess U(X)[A, B]; symmetric in (A, B), matches finite differences.

        First term pairs outer second partials with cyclic derivatives; the
        second term pushes A through the difference quotients of the gradient
        and pairs with B under tr_n.  It is the common-noise half of the
        generator of the controlled dynamics,
        1/2 beta_C^2 Hess U[1, 1] + 1/2 beta_F^2 gue_laplacian.
        """
        u = self.inner_traces(x)
        g1, g2 = self._outer_derivatives(u)
        dmats = self._cyclic_matrices(x)
        d, n = x.shape[-3], x.shape[-1]
        tr_da = np.einsum("ojab,jba->oj", dmats, a) / n
        tr_db = np.einsum("ojab,jba->oj", dmats, b) / n
        term1 = float(np.real(np.einsum("oq,oi,qj->", g2, tr_da, tr_db)))

        term2 = 0.0 + 0.0j
        for o, phi in enumerate(self.inners):
            if abs(g1[o]) < 1e-300:
                continue
            for j in range(1, min(phi.d, d) + 1):
                for i in range(1, min(phi.d, d) + 1):
                    tensor = self._quotients[o][j - 1][i - 1]
                    if not tensor.terms:
                        continue
                    sharp = tensor.sharp(x, a[i - 1])
                    term2 += g1[o] * np.trace(sharp @ b[j - 1]) / n
        if abs(term2.imag) > 1e-9 * (1.0 + abs(term2)):
            raise ValueError(f"Hessian has imaginary part {term2.imag:.3e}")
        return term1 + float(term2.real)

    def gue_laplacian(self, x, cache):
        """(1/n^2) sum over components and basis directions of Hess[E, E].

        Evaluated by the literal sum over the n^2 Hermitian basis elements E,
        so that the comparison against the free Laplacian plus correction
        stays a genuine two-sided check.  For each inner o and letter l the
        word pairs (w1, w2) of d_l (D_l phi_o) are stacked, E w1(X) and
        E w2(X) are batched products over all pairs and basis elements, and
        s_p = sum_E tr_n(E w1 E w2) is one contraction; one word-product
        cache serves the inner traces, the cyclic derivatives and the pairs.
        ``cache`` is a word-product cache for X, as in :meth:`inner_traces`.
        """
        d, n = x.shape[-3], x.shape[-1]
        check_gue_laplacian_guard(d, n)
        u = self.inner_traces(x, cache)
        g1, g2 = self._outer_derivatives(u)
        dmats = self._cyclic_matrices(x, cache)
        basis = np.stack([basis_element(n, i, j)
                          for i in range(1, n + 1) for j in range(1, n + 1)])

        # first Hessian term: sum_E sum_oq g_oq tr_n(D_ol E) tr_n(D_ql E)
        tr_de = np.einsum("ojab,eba->oje", dmats, basis) / n
        term1 = np.real(np.einsum("oq,ole,qle->", g2, tr_de, tr_de))

        # second term: sum_E <dq(grad)^l # E, E> over the tensor word pairs
        term2 = 0.0 + 0.0j
        for o, phi in enumerate(self.inners):
            if abs(g1[o]) < 1e-300:
                continue
            for l in range(1, min(phi.d, d) + 1):
                tensor = self._quotients[o][l - 1][l - 1]
                if not tensor.terms:
                    continue
                w1s, w2s = zip(*tensor.terms)
                m1 = np.stack([ncpoly._word_matrix(w, x, cache) for w in w1s])
                m2 = np.stack([ncpoly._word_matrix(w, x, cache) for w in w2s])
                em1 = basis @ m1[:, None]
                em2 = basis @ m2[:, None]
                s = np.einsum("peab,peba->p", em1, em2) / n
                coeffs = np.array(list(tensor.terms.values()))
                term2 += g1[o] * (coeffs @ s)
        if abs(term2.imag) > 1e-9 * (1.0 + abs(term2)):
            raise ValueError(f"GUE Laplacian has imaginary part {term2.imag:.3e}")
        return (float(term1) + float(term2.real)) / (n * n)

    def free_laplacian(self, x, cache):
        """sum_l (tr (x) tr)(d_l (grad U)^l) at X; exact tensor traces.

        ``cache`` is a word-product cache for X, as in :meth:`inner_traces`;
        the inner traces and every tensor share it.
        """
        u = self.inner_traces(x, cache)
        g1, _ = self._outer_derivatives(u)
        d = x.shape[-3]
        total = 0.0 + 0.0j
        for o, phi in enumerate(self.inners):
            if abs(g1[o]) < 1e-300:
                continue
            for l in range(1, min(phi.d, d) + 1):
                tensor = self._quotients[o][l - 1][l - 1]
                if tensor.terms:
                    total += g1[o] * tensor.trace_pair(x, cache)
        if abs(total.imag) > 1e-9 * (1.0 + abs(total)):
            raise ValueError(f"free Laplacian has imaginary part {total.imag:.3e}")
        return float(total.real)

    def correction_term(self, x, cache):
        """(1/n^2) sum_{l,o,q} g_oq <D_l phi_o(X), D_l phi_q(X)>_{tr_n}.

        ``cache`` is a word-product cache for X, as in :meth:`inner_traces`.
        """
        n = x.shape[-1]
        check_gue_laplacian_guard(x.shape[-3], n)
        u = self.inner_traces(x, cache)
        _, g2 = self._outer_derivatives(u)
        dmats = self._cyclic_matrices(x, cache)
        pair = np.einsum("olab,qlba->oq", dmats, dmats) / n
        val = np.einsum("oq,oq->", g2, pair)
        if abs(val.imag) > 1e-9 * (1.0 + abs(val)):
            raise ValueError("correction term has imaginary part")
        return float(val.real) / (n * n)

    # -- serialization -----------------------------------------------------------

    def to_json(self):
        return json.dumps({
            "outer": format_outer(self.outer),
            "inners": [format_polynomial(phi) for phi in self.inners],
        })

    @classmethod
    def from_json(cls, text, d):
        doc = json_object(text, ("outer", "inners"), "cylindrical function")
        inners = [parse_polynomial(s, d) for s in doc["inners"]]
        outer = parse_outer(doc["outer"], len(inners))
        return cls(outer=outer, inners=inners)


def json_object(text, keys, what):
    """``json.loads(text)``; an object with keys outside ``keys`` (a typo is
    not an absent key) is a ``ValueError`` naming them."""
    doc = json.loads(text)
    if isinstance(doc, dict) and set(doc) - set(keys):
        raise ValueError(f"unknown {what} keys {sorted(set(doc) - set(keys))}")
    return doc


def trace_power(d, p, coef=1.0):
    """coef * sum_j tr_n X_j^p as a cylindrical function over d letters."""
    outer = MultiPoly(d, {tuple(1 if i == o else 0 for i in range(d)): coef
                          for o in range(d)})
    inners = [NCPolynomial(d, {(j,) * p: 1.0}) for j in range(1, d + 1)]
    return CylindricalFunction(outer=outer, inners=inners)


# -- outer polynomial text format ------------------------------------------------


def parse_outer(text, m):
    """Parse an outer polynomial in u1..um, e.g. ``"u1^2*u2 - 0.5*u1"``."""
    nc = parse_polynomial(text.replace("u", "x"), m)
    terms = {}
    for word, coeff in nc.terms.items():
        if abs(coeff.imag) > 1e-15:
            raise ValueError("outer polynomial must have real coefficients")
        exps = [0] * m
        for letter in word:
            exps[letter - 1] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0.0) + coeff.real
    return MultiPoly(m, terms)


def format_outer(p: MultiPoly):
    if not p.terms:
        return "0.0"
    parts = []
    for exps, coeff in sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        factors = [repr(coeff)]
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(f"u{i + 1}")
            elif e > 1:
                factors.append(f"u{i + 1}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def random_cylindrical(rng, d):
    """A random cylindrical function for identity and finite-difference checks:
    one or two inners of degree <= 4 under an outer of degree <= 3.

    Inners are self-adjoint with coefficients scaled down by word degree to
    keep evaluations well inside double precision.
    """
    m = int(rng.integers(1, 3))
    inners = []
    for _ in range(m):
        terms = {}
        for word in words_up_to_degree(d, 4):
            if rng.random() >= 0.5:
                terms[word] = rng.normal() / (1.0 + len(word)) ** 2
        poly = NCPolynomial(d, terms).symmetrize()
        inners.append(poly if poly.terms else NCPolynomial(d, {(1,): 1.0}))
    terms = {}
    for exps in _exponents(m, 3):
        if rng.random() < 0.6:
            terms[exps] = rng.normal() / (1.0 + sum(exps)) ** 2
    outer = MultiPoly(m, terms)
    if not outer.terms:
        outer = MultiPoly.variable(m, 0)
    return CylindricalFunction(outer=outer, inners=inners)


def _exponents(m, max_total):
    if m == 0:
        yield ()
        return
    for first in range(max_total + 1):
        for rest in _exponents(m - 1, max_total - first):
            yield (first,) + rest
