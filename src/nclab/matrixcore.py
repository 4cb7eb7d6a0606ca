"""Hermitian matrix arithmetic under the normalized trace.

Everything downstream (sampling, laws, control, Laplacians) runs on plain
complex numpy arrays: a Hermitian matrix is (n, n), a d-tuple of them one
(d, n, n) array, and batches of either add leading axes.  The geometry is
the one induced by the normalized trace tr_n = Tr/n: the orthonormal basis
:func:`basis_element`, the inner product Sum_j tr_n(X_j Y_j), and the
functional calculus Q f(Lambda) Q*.  The spectral functions (:func:`eigh`,
:func:`apply_scalar_function`, :func:`scalar_function_derivative`,
:func:`operator_norm`) are batch-native: one call, one eigensolve, (..., n, n).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "NumericalError",
    "SpectralDecomposition",
    "apply_scalar_function",
    "assert_hermitian",
    "basis_element",
    "clip_function",
    "eigh",
    "hermitize",
    "l1_norm",
    "operator_norm",
    "operator_norm_bound",
    "scalar_function_derivative",
]


class NumericalError(RuntimeError):
    """Raised when a numerical routine (eigensolver, optimizer) fails."""


def _adjoint(a):
    return np.conj(np.swapaxes(a, -1, -2))


def hermitize(a):
    """Return (A + A*)/2, silencing Hermiticity drift from arithmetic chains."""
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + _adjoint(a))


def assert_hermitian(a, tol):
    """Validate the HermitianMatrix invariants; return the input unchanged.

    Raises ValueError if the matrix is not square, contains non-finite
    entries, or deviates from A = A* by more than ``tol`` entrywise.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    drift = np.max(np.abs(a - _adjoint(a)))
    if drift > tol:
        raise ValueError(f"matrix is not Hermitian: asymmetry {drift:.3e} > {tol:.1e}")
    return a


def basis_element(n, i, j):
    """Orthonormal basis element E_ij of the n x n Hermitian matrices.

    The basis is orthonormal for <A, B> = tr_n(A B):

    * i == j: sqrt(n) e_i e_i^T,
    * i < j:  sqrt(n/2) (e_i e_j^T + e_j e_i^T),
    * i > j:  i sqrt(n/2) (e_i e_j^T - e_j e_i^T).

    Indices are 1-based.
    """
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"basis index ({i},{j}) out of range for n={n}")
    e = np.zeros((n, n), dtype=complex)
    if i == j:
        e[i - 1, i - 1] = np.sqrt(n)
    elif i < j:
        c = np.sqrt(n / 2.0)
        e[i - 1, j - 1] = c
        e[j - 1, i - 1] = c
    else:
        c = 1j * np.sqrt(n / 2.0)
        e[i - 1, j - 1] = c
        e[j - 1, i - 1] = -c
    return e


class SpectralDecomposition(NamedTuple):
    """Eigenvalues ascending, eigenvectors as columns of a unitary."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigh(a) -> SpectralDecomposition:
    """Spectral decomposition A = Q diag(w) Q* with w ascending.

    Backed by LAPACK through numpy on (..., n, n) stacks; validates each
    matrix's reconstruction residual against 1e-10 (1 + ||A||_F) and raises
    NumericalError on failure to converge.
    """
    a = hermitize(assert_hermitian(a, tol=1e-10))
    try:
        w, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # non-convergence
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    fro = np.linalg.norm(a, axis=(-2, -1))
    resid = np.linalg.norm(a - (q * w[..., None, :]) @ _adjoint(q), axis=(-2, -1))
    if np.any(resid > 1e-10 * (1.0 + fro)):
        raise NumericalError(
            f"eigendecomposition residual {np.max(resid):.3e} too large")
    return SpectralDecomposition(w, q)


def clip_function(r):
    """The operator-norm cutoff phi_R(t) = max(min(t, R), -R) as a callable."""
    if r <= 0:
        raise ValueError(f"clip level must be positive, got {r}")
    return lambda x: np.clip(x, -r, r)


def _resolve_scalar_function(f) -> Callable[[np.ndarray], np.ndarray]:
    """Map a scalar-function tag to a vectorized callable on eigenvalues.

    Accepted tags: 'arctan', 'abs', 'identity', ('clip', R), a polynomial
    coefficient sequence (ascending powers), or any callable.
    """
    if callable(f):
        return f
    if isinstance(f, str):
        table = {"arctan": np.arctan, "abs": np.abs, "identity": lambda x: x}
        if f not in table:
            raise ValueError(f"unknown scalar function tag {f!r}")
        return table[f]
    if isinstance(f, tuple) and len(f) == 2 and f[0] == "clip":
        return clip_function(f[1])
    if isinstance(f, Sequence):
        coeffs = [float(c) for c in f]
        return lambda x: np.polynomial.polynomial.polyval(x, coeffs)
    raise ValueError(f"cannot interpret scalar function tag {f!r}")


def _spectral_calculus(w, q, f, fprime=None):
    """(f(A), mult) for A = Q diag(w) Q*, f(A) not re-symmetrized.  With
    ``fprime``, mult is the divided differences f[w_a, w_b] (fprime at the
    midpoint where |w_a - w_b| <= 1e-12), else None."""
    fw = _resolve_scalar_function(f)(w)
    fa = (q * fw[..., None, :]) @ _adjoint(q)
    if fprime is None:
        return fa, None
    dx = w[..., :, None] - w[..., None, :]
    close = np.abs(dx) <= 1e-12
    mid = _resolve_scalar_function(fprime)(0.5 * (w[..., :, None] + w[..., None, :]))
    num = fw[..., :, None] - fw[..., None, :]
    return fa, np.where(close, mid, num / np.where(close, 1.0, dx))


def _frechet(q, mult, e):
    """Q (mult o (Q* E Q)) Q*: the derivative of the functional calculus at
    A = Q diag(w) Q* applied to E, batched over (..., n, n)."""
    qh = _adjoint(q)
    return q @ (mult * (qh @ e @ q)) @ qh


def apply_scalar_function(a, f):
    """Continuous functional calculus f(A) = Q f(Lambda) Q* for Hermitian A."""
    w, q = eigh(a)
    return hermitize(_spectral_calculus(w, q, f)[0])


def scalar_function_derivative(a, f, fprime):
    """Frechet derivative of the functional calculus at A, as a linear map.

    Returns ``apply(E)`` computing D f(A)[E] via the divided-difference
    (Daleckii-Krein) multiplier in the eigenbasis:

        D f(A)[E] = Q ( f[w_a, w_b] o (Q* E Q) ) Q*,

    where f[x, y] = (f(x) - f(y))/(x - y) off the diagonal and f'(x) on it.
    The map is self-adjoint for the real tr_n pairing, so it also transports
    gradients of downstream costs back through f.  Over a stack A, ``apply``
    maps each E through its own A.  This is the per-matrix reference for the
    batched clip and arctan pullbacks of ``control``'s gradients.
    """
    w, q = eigh(a)
    _, mult = _spectral_calculus(w, q, f, fprime)
    return lambda e: hermitize(_frechet(q, mult, e))


def operator_norm(a):
    """Largest absolute eigenvalue of a Hermitian matrix (or of a stack)."""
    w, _ = eigh(a)
    return float(np.max(np.abs(w)))


def operator_norm_bound(a):
    """An upper bound on each operator norm of a Hermitian (..., n, n) stack
    from one batched matmul and no eigensolve: ||A||_op <= (sum lambda^4)^(1/4)
    = ||A^2||_F^(1/2), equal to it when one eigenvalue carries the spectrum."""
    n = a.shape[-1]
    parts = (a @ a).reshape(a.shape[:-2] + (n * n,)).view(float)
    return np.sqrt(np.sqrt(np.einsum("...i,...i->...", parts, parts)))


def l1_norm(x):
    """Sum_j tr_n |X_j| of a Hermitian (..., n, n) stack via functional
    calculus with the absolute value: the norm of the truncation lemma's
    ||phi_R(A) - A||_1 <= ||A||_2^2 / R."""
    w, _ = eigh(x)
    return float(np.sum(np.abs(w))) / w.shape[-1]
