"""Deterministic 64-bit PRNG used everywhere randomness is needed.

SplitMix64 (public-domain mixer) keeps every random choice reproducible
across platforms and implementations: the generator is a counter plus a
bijective mixing function, so stream element r can be computed directly
without advancing through elements 0..r-1.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """Apply the SplitMix64 finalizer to a 64-bit value."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def stream_element(seed: int, r: int) -> int:
    """Element r of the SplitMix64 output stream for the given seed.

    Closed form: no state is shared between elements, so consumers may
    evaluate them in any order (or concurrently) and get identical values.
    """
    return mix64((seed + (r + 1) * GOLDEN) & MASK64)


def stream_array(seed, n: int, offset: int = 0) -> np.ndarray:
    """Elements offset..offset+n-1 of the seed's stream, as uint64.

    `seed` is an int, or a uint64 array of seeds; an array gives each
    seed's elements along a new last axis.
    """
    idx = np.arange(offset + 1, offset + n + 1, dtype=np.uint64)
    if isinstance(seed, np.ndarray):
        base = seed.astype(np.uint64)[..., None]
    else:
        base = np.uint64(seed & MASK64)
    z = base + idx * np.uint64(GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def batch_permutation(seeds: np.ndarray, n: int) -> np.ndarray:
    """Fisher-Yates shuffles of range(n), one row per uint64 seed.

    Row r is `SplitMix64(seeds[r]).permutation(n)`: position i = n-1 .. 1
    swaps with the next draw of seed r's stream reduced mod i + 1. All
    rows take each swap together, so the Python loop runs n - 1 times
    whatever the number of seeds. Each draw is made an index into the
    flattened result once, before the loop, by adding its seed's row
    offset, and the draws of one step are laid out contiguously; a step
    then swaps column i with those indices in four array operations.
    """
    js = stream_array(seeds, max(n - 1, 0))
    js %= np.arange(n, 1, -1, dtype=np.uint64)
    js = js.view(np.int64)  # each draw is below n, so it reads the same
    js += np.arange(len(seeds), dtype=np.int64)[:, None] * n
    perm = np.tile(np.arange(n, dtype=np.int64), (len(seeds), 1))
    flat = perm.reshape(-1)
    for i, b in zip(range(n - 1, 0, -1), np.ascontiguousarray(js.T)):
        held = perm[:, i].copy()
        perm[:, i] = flat[b]
        flat[b] = held
    return perm


def uniform_array(seed: int, n: int, offset: int = 0) -> np.ndarray:
    """n doubles in [0, 1) from the seed's stream (53 mantissa bits each)."""
    bits = stream_array(seed, n, offset)
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


class SplitMix64:
    """Sequential SplitMix64 generator with a 64-bit state."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def next_below(self, n: int) -> int:
        # Modulo reduction; bias is negligible for n << 2**64 and keeps
        # the draw sequence trivially portable.
        return self.next_u64() % n

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of range(n), one draw per position.

        Position i = n-1 .. 1 swaps with next_below(i + 1); the n - 1
        draws are taken from the stream in one call.
        """
        perm = batch_permutation(np.array([self._state], dtype=np.uint64), n)[0]
        self._state = (self._state + max(n - 1, 0) * GOLDEN) & MASK64
        return perm
