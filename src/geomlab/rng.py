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

import threading

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_SUBSTREAM_SALT = np.uint64(0xD1B54A32D192ED03)

_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)

# Keys made and selected at a time by rank_keys: 512 kB per uint64 array,
# so the passes over a chunk stay in a core's L2 cache (per key, 2^16 ran
# about 3x faster than 2^20 on a 2-core x86 VM with 2 MB of L2 per core).
_CHUNK = 1 << 16
with np.errstate(over="ignore"):
    _STEPS = GOLDEN * np.arange(1, _CHUNK + 1, dtype=np.uint64)
_STEPS.setflags(write=False)
# The low bits of a key that its last xorshift z ^ (z >> 31) can change.
_LOW33 = np.uint64((1 << 33) - 1)
# Each thread's key and scratch buffers of rank_keys (see _buffers).
_LOCAL = threading.local()


def _buffers() -> tuple:
    """The calling thread's two uint64 buffers of _CHUNK entries, made on
    its first rank_keys call and kept, so that their pages stay resident:
    freed, buffers this large go back to the OS, and each call faults them
    in again (224 page faults per call at n = 2^16).  They are per thread,
    so rows run in parallel threads never share one."""
    bufs = getattr(_LOCAL, "bufs", None)
    if bufs is None:
        bufs = _LOCAL.bufs = (np.empty(_CHUNK, dtype=np.uint64),
                              np.empty(_CHUNK, dtype=np.uint64))
    return bufs


def _mix64_head(z: np.ndarray, tmp: np.ndarray) -> None:
    """All of mix64 but its last step z ^= z >> 31, in place on the uint64
    array z, with tmp (same shape) as scratch."""
    np.right_shift(z, _S30, out=tmp)
    z ^= tmp
    z *= _M1
    np.right_shift(z, _S27, out=tmp)
    z ^= tmp
    z *= _M2


def _keys_below(z: np.ndarray, lim) -> tuple:
    """The positions and keys of the entries of z (mix64 but its last
    step) whose key z ^ (z >> 31) is below lim.  That step keeps the top 31
    bits of z, so z above lim | _LOW33 cannot qualify and is not finished."""
    sel = np.flatnonzero(z <= lim | _LOW33)
    keys = z[sel]
    keys ^= keys >> _S31
    below = keys < lim
    return sel[below], keys[below]


def mix64(z):
    """splitmix64 finalizer on uint64 scalars or arrays (wraps mod 2^64)."""
    z = np.array(z, dtype=np.uint64)  # a copy: the input is never written
    tmp = np.empty_like(z)
    with np.errstate(over="ignore"):
        _mix64_head(z, tmp)
    np.right_shift(z, _S31, out=tmp)
    z ^= tmp
    return z[()]


def substream_seed(seed: int, tag: int) -> int:
    """Derive an independent stream seed from (seed, tag), deterministically."""
    with np.errstate(over="ignore"):
        z = mix64(np.uint64(seed) + GOLDEN * np.uint64(np.int64(tag) + 1))
    return int(z ^ _SUBSTREAM_SALT)


class Stream:
    """Stateful view of the counter-mode splitmix64 stream for one seed."""

    def __init__(self, seed: int):
        self.seed = np.uint64(seed)
        self.counter = np.uint64(0)

    def u64(self, n: int) -> np.ndarray:
        idx = np.arange(1, n + 1, dtype=np.uint64) + self.counter
        self.counter += np.uint64(n)
        with np.errstate(over="ignore"):
            return mix64(self.seed + GOLDEN * idx)

    def uniform(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        u = (self.u64(n) >> _S11).astype(np.float64) * 2.0 ** -53
        return lo + (hi - lo) * u

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n integers in [0, bound), as floor(uniform * bound)."""
        return np.minimum((self.uniform(n) * bound).astype(np.int64), bound - 1)


def rank_keys(seed: int, n: int, k: int) -> np.ndarray:
    """The first k indices of a deterministic pseudorandom ranking of
    0..n-1 (used to sample cells): the indices of the k smallest keys
    mix64(seed + (i + 1) * GOLDEN), in key order, ties broken by index
    (there are none: mix64 is a bijection and GOLDEN is odd).  k above n
    gives all n.

    The keys are made and selected one chunk of at most _CHUNK indices at
    a time, in the thread's resident buffers, so memory is O(k + _CHUNK)
    whatever n is.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    k = min(k, n)
    best_key = np.empty(0, dtype=np.uint64)
    best_idx = np.empty(0, dtype=np.int64)
    if k == 0:
        return best_idx
    start = int(np.uint64(seed))
    z, tmp = _buffers()
    for lo in range(0, n, _CHUNK):
        zc, tc = z[:n - lo], tmp[:n - lo]
        # seed + (i + 1) * GOLDEN for i = lo, lo + 1, ...
        np.add(_STEPS[:zc.size],
               np.uint64((start + int(GOLDEN) * lo) % (1 << 64)), out=zc)
        with np.errstate(over="ignore"):
            _mix64_head(zc, tc)
        if best_key.size == k:  # only keys below the k-th best can enter
            sel, keys = _keys_below(zc, best_key.max())
        else:
            np.right_shift(zc, _S31, out=tc)
            zc ^= tc
            if zc.size > k:  # the k smallest keys: those up to the k-th
                np.copyto(tc, zc)
                tc.partition(k - 1)
                sel = np.flatnonzero(zc <= tc[k - 1])
            else:
                sel = np.arange(zc.size)
            keys = zc[sel]
        best_key = np.concatenate([best_key, keys])
        best_idx = np.concatenate([best_idx, sel + lo])
        if best_key.size > k:
            keep = np.argpartition(best_key, k - 1)[:k]
            best_key, best_idx = best_key[keep], best_idx[keep]
    return best_idx[np.lexsort((best_idx, best_key))]
