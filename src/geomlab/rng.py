"""Seeded counter-mode RNG used by every generator in the package.

All randomness flows through a single, fully specified 64-bit mixing
construction (splitmix64) so that streams can be reproduced exactly from
the seed alone, in any language:

    output[i] = mix64(seed + (i + 1) * 0x9E3779B97F4A7C15)   (mod 2^64)

with

    mix64(z): z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
              z ^= z >> 27;  z *= 0x94D049BB133111EB
              z ^= z >> 31;  return z

Uniform doubles take the top 53 bits: (output >> 11) * 2**-53.

Counter mode (rather than iterated state) lets blocks of any size be
drawn without changing the stream, and makes substreams cheap.
"""

from __future__ import annotations

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_SUBSTREAM_SALT = 0xD1B54A32D192ED03
_MASK = (1 << 64) - 1

_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)


def mix64(z):
    """splitmix64 finalizer on uint64 scalars or arrays (wraps mod 2^64)."""
    z = np.array(z, dtype=np.uint64)  # a copy: the input is never written
    tmp = np.empty_like(z)
    np.right_shift(z, _S30, out=tmp)
    z ^= tmp
    z *= _M1
    np.right_shift(z, _S27, out=tmp)
    z ^= tmp
    z *= _M2
    np.right_shift(z, _S31, out=tmp)
    z ^= tmp
    return z[()]


def _output(seed: int, i: int) -> int:
    """output[i] of the stream of seed, in Python ints (no numpy scalars)."""
    z = (seed + (i + 1) * int(GOLDEN)) & _MASK
    z ^= z >> 30
    z = z * int(_M1) & _MASK
    z ^= z >> 27
    z = z * int(_M2) & _MASK
    return z ^ (z >> 31)


def substream_seed(seed: int, tag: int) -> int:
    """Derive an independent stream seed from (seed, tag), deterministically."""
    return _output(int(np.uint64(seed)), tag) ^ _SUBSTREAM_SALT


class Stream:
    """Stateful view of the counter-mode splitmix64 stream for one seed."""

    def __init__(self, seed: int):
        self.seed = int(np.uint64(seed))  # a seed outside [0, 2^64) raises
        self.counter = 0

    def u64(self, n: int) -> np.ndarray:
        c, self.counter = self.counter, self.counter + n
        idx = np.arange(c + 1, c + n + 1, dtype=np.uint64)
        return mix64(idx * GOLDEN + np.uint64(self.seed))

    def uniform(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        u = (self.u64(n) >> _S11).astype(np.float64) * 2.0 ** -53
        return lo + (hi - lo) * u


def _feistel(x: np.ndarray, keys: np.ndarray, h: np.uint64) -> np.ndarray:
    """The 4-round Feistel permutation of [0, 2^(2h)) with round keys keys,
    on the uint64 array x: each round maps the h-bit halves (L, R) to
    (R, L ^ (mix64(R ^ key) & (2^h - 1)))."""
    mask = (np.uint64(1) << h) - np.uint64(1)
    left, right = x >> h, x & mask
    for key in keys:
        left, right = right, left ^ (mix64(right ^ key) & mask)
    return (left << h) | right


def rank_keys(seed: int, n: int, k: int) -> np.ndarray:
    """The first k indices pi(0), ..., pi(k - 1), as int64, of a
    pseudorandom permutation pi of 0..n-1 keyed by seed (used to sample
    cells); k above n gives all n.  Each prefix of the ranking is stable:
    a larger k only appends indices.

    pi is a 4-round Feistel network (Luby-Rackoff) with the round keys
    Stream(seed).u64(4) on [0, 2^(2h)), h = max(1, ceil(bitlen(n - 1) / 2)),
    a domain of at most 4n indices, restricted to [0, n) by cycle walking:
    an index mapped outside [0, n) is mapped again until it lands inside.
    Time and memory are O(k), whatever n is.  n is at most 2^62, so that
    each half fits in 31 bits and every index in an int64.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if not 0 <= n <= 1 << 62:
        raise ValueError(f"n must be in [0, 2^62], got {n}")
    h = np.uint64(max(1, ((n - 1).bit_length() + 1) // 2))
    seed, top = int(np.uint64(seed)), np.uint64(n)
    keys = np.array([_output(seed, i) for i in range(4)], dtype=np.uint64)
    y = _feistel(np.arange(min(k, n), dtype=np.uint64), keys, h)
    out = np.flatnonzero(y >= top)
    while out.size:
        y[out] = _feistel(y[out], keys, h)
        out = out[y[out] >= top]
    return y.astype(np.int64)
