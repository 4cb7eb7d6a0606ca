"""Seeded, splittable sampling: GUE matrices and GUE and scalar Brownian paths.

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

__all__ = ["RngStream", "sample_gue", "gue_increments", "brownian_increments"]


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
    equals consecutive single draws.  ``rng`` may also be a triple
    ``(parent, tag, indices)`` of an ``RngStream``, a path label and sample
    indices 0 <= s < 2^32: the result is then (len(indices), *shape, n, n),
    entry s drawn from ``parent.child(tag, s)`` alone, and equals the
    stacked single-stream calls.  Their Philox keys are derived in one
    vectorized pass rather than one SeedSequence each.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    shape = tuple(shape) + (n, n)
    if isinstance(rng, tuple):
        keys = _philox_keys(*rng)
        g = np.empty((len(keys),) + shape)
        # one Philox, rekeyed per row to the state a fresh generator of that
        # stream starts in: key, counter 0, empty buffer; the setter reads
        # Python lists faster than numpy arrays
        bits = np.random.Philox(0)
        gen = np.random.Generator(bits)
        zeros = [0] * 4
        state = {"bit_generator": "Philox",
                 "state": {"counter": zeros, "key": zeros[:2]},
                 "buffer": zeros, "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        for row, key in zip(g, keys.tolist()):
            state["state"]["key"] = key
            bits.state = state
            gen.standard_normal(out=row)
    else:
        g = _as_generator(rng).standard_normal(shape)
    flat = g.shape[:-2] + (n * n,)
    diag = g.reshape(flat)[..., ::n + 1] / np.sqrt(n)
    # numpy divides a complex array by a real scalar as a product with its
    # reciprocal, so this product keeps the draws bit-identical to the
    # division by sqrt(2 n) written in the docstring; negation and
    # transposition commute with it exactly
    r = np.multiply(g, 1.0 / np.sqrt(2.0 * n), out=g)
    rt = np.swapaxes(r, -1, -2)
    upper = _upper_mask(n)
    s = np.empty(g.shape, dtype=complex)
    re, im = s.real, s.imag
    np.copyto(re, rt)
    np.copyto(re, r, where=upper)
    np.copyto(im, r)
    np.negative(rt, out=im, where=upper)
    s.reshape(flat)[..., ::n + 1] = diag
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
            words += _uint32_words(index)
    return words


def _hashmix(value, const):
    """SeedSequence's hashmix of a word with the running hash constant:
    (mixed word, next constant)."""
    const_next = (const * _MULT_A) & _MASK32
    value = ((value ^ const) * const_next) & _MASK32
    return value ^ (value >> 16), const_next


def _hashmix_columns(words, const, mult):
    """``_POOL`` consecutive hashmixes of uint64 ``words``, (S, _POOL) or
    broadcastable to it: column i is mixed with the i-th running constant
    from ``const`` under multiplier ``mult``.  The constants do not depend
    on the words, so all columns are mixed in one pass."""
    consts = [const]
    for _ in range(_POOL):
        consts.append((consts[-1] * mult) & _MASK32)
    xor, scale = np.array(consts[:-1], np.uint64), np.array(consts[1:], np.uint64)
    value = ((words ^ xor) * scale) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ (value >> 16)


def _philox_keys(parent, tag, indices):
    """The Philox keys (S, 2) uint64 that ``parent.child(tag, s).generator()``
    starts from, for each index s of ``indices``: what
    ``SeedSequence(...).generate_state(2, np.uint64)`` gives.

    The streams share the entropy prefix (seed, padding, path, tag), which
    is longer than the pool and so is hashed once, in Python ints.  Only the
    last word, the index, differs per stream: it is hashed into the four
    pool words, and the pool into the four state words, each as one
    (S, 4) pass over the index column, since the hash constants of those
    steps do not depend on the data.
    """
    index = np.asarray(indices)
    if index.ndim != 1 or (index.size and index.dtype.kind not in "iuO"):
        raise TypeError("indices must be a sequence of integers")
    if index.size and not (0 <= index.min() and index.max() <= _MASK32):
        raise ValueError("indices must satisfy 0 <= s < 2**32")
    words = _entropy_words(parent.child(tag))
    const, pool = _INIT_A, []
    for word in words[:_POOL]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in words[_POOL:]:
        for dst in range(_POOL):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    value = _hashmix_columns(index.astype(np.uint64)[:, None], const, _MULT_A)
    pool = _mix(np.array(pool, dtype=np.uint64), value)      # (S, 4)
    # generate_state(2, np.uint64): four words, one from each pool word
    state = _hashmix_columns(pool, _INIT_B, _MULT_B)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.lru_cache(maxsize=64)
def _upper_mask(n):
    """The strict upper triangle of an n x n matrix as a boolean mask.

    Read-only, because every call for the same n returns the same array.
    """
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.setflags(write=False)
    return mask


def sample_gue_tuple(n, d, rng, scale=1.0):
    """d independent GUE(n) matrices as one (d, n, n) array, each scaled by
    `scale`: ``scale * sample_gue(n, rng, (d,))``."""
    return scale * sample_gue(n, rng, (d,))


def gue_increments(n, d, time_grid, rng):
    """Increments of d GUE(n) Brownian motions over a strictly increasing
    grid, (K, d, n, n): entry k holds the d components over
    (time_grid[k], time_grid[k+1]], distributed as sqrt(dt_k) GUE."""
    grid = tuple(float(t) for t in time_grid)
    dt = np.diff(grid)
    if np.any(dt <= 0):
        raise ValueError(f"time grid must be strictly increasing, got {grid}")
    return np.sqrt(dt)[:, None, None, None] * sample_gue(n, rng, (len(dt), d))


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
