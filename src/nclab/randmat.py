"""Seeded, splittable sampling: GUE matrices, GUE Brownian paths, Haar unitaries.

All randomness flows through :class:`RngStream`, a counter-based (Philox)
generator addressed by ``(master_seed, stream_path)``.  Identical addresses
reproduce identical samples regardless of how work is distributed, and
child streams obtained from distinct split indices are independent by
construction, which is what makes the Monte Carlo layers deterministic
under any worker count.

The GUE normalization is E tr_n S^2 = 1 for a unit-time increment: S is
assembled entrywise from the orthonormal basis expansion
S = (1/n) Sum_ij E_ij g_ij with i.i.d. standard normal g.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass, field

import numpy as np

from .matrixcore import MatrixTuple

__all__ = ["RngStream", "GuePath", "sample_gue", "gue_increments",
           "sample_haar_unitary", "brownian_increments"]


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream addressed by (master_seed, stream_path).

    ``child(*idx)`` extends the path; distinct paths give statistically
    independent Philox streams via numpy's SeedSequence spawn keys.
    """

    master_seed: int
    stream_path: tuple = field(default_factory=tuple)

    def child(self, *indices) -> "RngStream":
        """Extend the path; string labels hash to stable 32-bit indices."""
        path = self.stream_path + tuple(
            zlib.crc32(i.encode()) if isinstance(i, str) else int(i)
            for i in indices)
        return RngStream(self.master_seed, path)

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.stream_path)
        return np.random.Generator(np.random.Philox(seq))


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)}")


def sample_gue(n, rng, shape=()):
    """Unit-time GUE(n) matrices of shape (*shape, n, n), E tr_n S^2 = 1.

    Entrywise realization of the basis expansion: the draw g[i, i] rides the
    diagonal element sqrt(n) e_i e_i^T, g[i, j] with i < j the symmetric
    element, and g[j, i] the antisymmetric one, giving

        S_ii = g[i, i]/sqrt(n),
        S_ij = (g[i, j] - i g[j, i])/sqrt(2 n)   (i < j).

    One ``standard_normal`` call fills all normals in C order, so a stack
    equals consecutive single draws.  ``rng`` may also be a list or tuple of
    streams: the result is then (len(rng), *shape, n, n), entry s drawn from
    ``rng[s]`` alone, and equals the stacked single-stream calls.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    shape = tuple(shape) + (n, n)
    if isinstance(rng, (list, tuple)):
        g = np.empty((len(rng),) + shape)
        for row, stream in zip(g, rng):
            _as_generator(stream).standard_normal(out=row)
    else:
        g = _as_generator(rng).standard_normal(shape)
    # numpy divides a complex array by a real scalar as a product with its
    # reciprocal, so this product keeps the draws bit-identical to the
    # division by sqrt(2 n) written in the docstring
    scale = 1.0 / np.sqrt(2.0 * n)
    upper = _upper_mask(n)
    gt = np.swapaxes(g, -1, -2)
    s = np.empty(g.shape, dtype=complex)
    parts = s.view(float).reshape(g.shape + (2,))
    np.multiply(np.where(upper, g, gt), scale, out=parts[..., 0])
    np.multiply(np.where(upper, -gt, g), scale, out=parts[..., 1])
    diag = np.arange(n)
    parts[..., diag, diag, 0] = np.diagonal(g, axis1=-2, axis2=-1) / np.sqrt(n)
    parts[..., diag, diag, 1] = 0.0
    return s


@functools.lru_cache(maxsize=64)
def _upper_mask(n):
    """The strict upper triangle of an n x n matrix as a boolean mask.

    Read-only, because every call for the same n returns the same array.
    """
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.setflags(write=False)
    return mask


def sample_gue_tuple(n, d, rng, scale=1.0):
    """d independent GUE(n) matrices as a MatrixTuple, each scaled by `scale`."""
    return MatrixTuple(scale * sample_gue(n, rng, (d,)), validate=False)


@dataclass(frozen=True)
class GuePath:
    """Increments of d GUE(n) Brownian motions over a time grid.

    ``increments[k]``, of one (K, d, n, n) array, holds the d components over
    (time_grid[k], time_grid[k+1]], distributed as sqrt(dt_k) GUE.
    """

    n: int
    d: int
    time_grid: tuple
    increments: np.ndarray

    @property
    def steps(self):
        return len(self.increments)


def gue_increments(n, d, time_grid, rng) -> GuePath:
    """Independent sqrt(dt)-scaled GUE increments over a strictly increasing grid."""
    grid = tuple(float(t) for t in time_grid)
    dt = np.diff(grid)
    if np.any(dt <= 0):
        raise ValueError(f"time grid must be strictly increasing, got {grid}")
    incs = np.sqrt(dt)[:, None, None, None] * sample_gue(n, rng, (len(dt), d))
    return GuePath(n=n, d=d, time_grid=grid, increments=incs)


def sample_haar_unitary(n, rng):
    """A Haar-distributed n x n unitary.

    QR of a complex Ginibre matrix, with the R diagonal rephased to positive
    reals; without the rephasing QR output is not Haar.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    gen = _as_generator(rng)
    z = (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    dphase = np.diagonal(r).copy()
    dphase /= np.abs(dphase)
    return q * dphase


def brownian_increments(time_grid, rng):
    """Independent N(0, dt) increments over the grid; empty grid gives []."""
    grid = [float(t) for t in time_grid]
    if len(grid) <= 1:
        return np.zeros(0)
    diffs = np.diff(grid)
    if np.any(diffs <= 0):
        raise ValueError("time grid must be strictly increasing")
    gen = _as_generator(rng)
    return gen.standard_normal(len(diffs)) * np.sqrt(diffs)
