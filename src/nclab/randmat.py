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

__all__ = ["RngStream", "sample_gue", "gue_increments",
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
    ``RngStream``: the result is then (len(rng), *shape, n, n), entry s
    drawn from ``rng[s]`` alone, and equals the stacked single-stream calls.
    Their Philox keys are derived in one vectorized pass rather than one
    SeedSequence each.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    shape = tuple(shape) + (n, n)
    if isinstance(rng, (list, tuple)):
        g = np.empty((len(rng),) + shape)
        # one Philox, rekeyed per row to the state a fresh generator of that
        # stream starts in: key, counter 0, empty buffer
        bits = np.random.Philox(0)
        gen = np.random.Generator(bits)
        zeros = np.zeros(4, dtype=np.uint64)
        for row, key in zip(g, _philox_keys(rng)):
            bits.state = {"bit_generator": "Philox",
                          "state": {"counter": zeros, "key": key},
                          "buffer": zeros, "buffer_pos": 4,
                          "has_uint32": 0, "uinteger": 0}
            gen.standard_normal(out=row)
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) at its default
# pool of four 32-bit words
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _uint32_words(value):
    """A non-negative integer as little-endian 32-bit words, as SeedSequence
    reads it (0 is one word)."""
    value = int(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _entropy_words(stream):
    """The entropy SeedSequence(master_seed, spawn_key=stream_path) pools:
    the seed's words, padded with zeros to the pool size when there is a
    spawn key, then the words of each path index."""
    words = _uint32_words(stream.master_seed)
    if stream.stream_path:
        words += [0] * (_POOL - len(words))
        for index in stream.stream_path:
            if 0 <= index <= _MASK32:
                words.append(index)
            else:
                words += _uint32_words(index)
    return words


@functools.lru_cache(maxsize=16)
def _hash_constants(length):
    """The (xor, multiplier) pair of each hashmix call that pools `length`
    entropy words, in call order; the sequence depends on nothing else."""
    calls = _POOL + _POOL * (_POOL - 1) + _POOL * max(length - _POOL, 0)
    const, pairs = _INIT_A, []
    for _ in range(calls):
        following = (const * _MULT_A) & _MASK32
        pairs.append((np.uint32(const), np.uint32(following)))
        const = following
    return tuple(pairs)


def _seed_sequence_keys(entropy):
    """Philox keys (S, 2) uint64 of the entropy rows (S, L) uint32: what
    ``SeedSequence(...).generate_state(2, np.uint64)`` gives for each row,
    in one vectorized pass over the pool-mixing hash."""
    pairs = iter(_hash_constants(entropy.shape[1]))

    def hashmix(value):
        xor, mult = next(pairs)
        value = (value ^ xor) * mult
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        value = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return value ^ (value >> np.uint32(16))

    zero = np.zeros(len(entropy), dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < entropy.shape[1] else zero)
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, entropy.shape[1]):
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    # generate_state(2, np.uint64): four words, one from each pool word
    const, state = _INIT_B, np.empty((len(entropy), _POOL), dtype=np.uint32)
    for i in range(_POOL):
        following = (const * _MULT_B) & _MASK32
        value = (pool[i] ^ np.uint32(const)) * np.uint32(following)
        state[:, i] = value ^ (value >> np.uint32(16))
        const = following
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _philox_keys(streams):
    """The Philox key (2,) uint64 each stream's ``generator()`` starts from,
    as one (S, 2) array; streams are grouped by entropy length and each
    group hashed in one pass."""
    keys = np.empty((len(streams), 2), dtype=np.uint64)
    groups = {}
    for row, stream in enumerate(streams):
        if not isinstance(stream, RngStream):
            raise TypeError(f"expected RngStream, got {type(stream)}")
        words = _entropy_words(stream)
        rows, entropy = groups.setdefault(len(words), ([], []))
        rows.append(row)
        entropy.append(words)
    for rows, entropy in groups.values():
        keys[rows] = _seed_sequence_keys(np.array(entropy, dtype=np.uint32))
    return keys


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


def gue_increments(n, d, time_grid, rng):
    """Increments of d GUE(n) Brownian motions over a strictly increasing
    grid, (K, d, n, n): entry k holds the d components over
    (time_grid[k], time_grid[k+1]], distributed as sqrt(dt_k) GUE."""
    grid = tuple(float(t) for t in time_grid)
    dt = np.diff(grid)
    if np.any(dt <= 0):
        raise ValueError(f"time grid must be strictly increasing, got {grid}")
    return np.sqrt(dt)[:, None, None, None] * sample_gue(n, rng, (len(dt), d))


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
