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


def sample_gue(n, rng):
    """One unit-time GUE(n) matrix, normalized so E tr_n S^2 = 1.

    Entrywise realization of the basis expansion: the draw g[i, i] rides the
    diagonal element sqrt(n) e_i e_i^T, g[i, j] with i < j the symmetric
    element, and g[j, i] the antisymmetric one, giving

        S_ii = g[i, i]/sqrt(n),
        S_ij = (g[i, j] - i g[j, i])/sqrt(2 n)   (i < j).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    g = _as_generator(rng).standard_normal((n, n))
    s = np.zeros((n, n), dtype=complex)
    iu, il = _triangle_indices(n)
    s[iu] = (g[iu] - 1j * g[il]) / np.sqrt(2.0 * n)
    s += np.conj(s.T)
    s[np.diag_indices(n)] = g.diagonal() / np.sqrt(n)
    return s


@functools.lru_cache(maxsize=64)
def _triangle_indices(n):
    """Index arrays of the strict upper triangle and of its transpose.

    Read-only, because every call for the same n returns the same arrays.
    """
    rows, cols = np.triu_indices(n, 1)
    for a in (rows, cols):
        a.setflags(write=False)
    return (rows, cols), (cols, rows)


def sample_gue_tuple(n, d, rng, scale=1.0):
    """d independent GUE(n) matrices as a MatrixTuple, each scaled by `scale`."""
    gen = _as_generator(rng)
    return MatrixTuple(
        np.stack([scale * sample_gue(n, gen) for _ in range(d)]), validate=False)


@dataclass(frozen=True)
class GuePath:
    """Increments of d GUE(n) Brownian motions over a time grid.

    ``increments[k]`` is the MatrixTuple of the d components over
    (time_grid[k], time_grid[k+1]], distributed as sqrt(dt_k) GUE.
    """

    n: int
    d: int
    time_grid: tuple
    increments: list

    @property
    def steps(self):
        return len(self.increments)

    def partial_sum(self, k) -> MatrixTuple:
        """W_{t_k} - W_{t_0} summed from the stored increments."""
        total = MatrixTuple.zero(self.d, self.n)
        for inc in self.increments[:k]:
            total = total + inc
        return total


def gue_increments(n, d, time_grid, rng) -> GuePath:
    """Independent sqrt(dt)-scaled GUE increments over a strictly increasing grid."""
    grid = tuple(float(t) for t in time_grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"time grid must be strictly increasing, got {grid}")
    gen = _as_generator(rng)
    incs = []
    for a, b in zip(grid, grid[1:]):
        incs.append(sample_gue_tuple(n, d, gen, scale=np.sqrt(b - a)))
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
