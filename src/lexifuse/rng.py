"""Seeded random streams with deterministic splitting, and counter-based
uniforms for many keys at once.

A stream is a thin wrapper over numpy's PCG64 generator.  Identical seed and
call sequence give bit-identical draws; independent child streams are derived
by seed-splitting so concurrent or per-word computations never share state.

philox_uniforms evaluates Philox-4x64-10 (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011) in numpy uint64 arithmetic, for every
key in one pass: each output is a pure function of (key, counter), so keys
need no generator object each.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigError


class RngStream:
    """Reproducible random stream addressable by a 64-bit seed path, from a
    nonnegative seed."""

    def __init__(self, seed: int, _entropy=None):
        self.seed = int(seed)
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")
        self._seq = _entropy if _entropy is not None else np.random.SeedSequence(self.seed)
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._gen.uniform(low, high))

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in [low, high)."""
        return int(self._gen.integers(low, high))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def numpy(self) -> np.random.Generator:
        """Escape hatch for vectorized draws from this stream."""
        return self._gen

    def split(self, key) -> "RngStream":
        """Derive an independent child stream named by `key`.

        The child depends only on (seed, key), never on how much of this
        stream has been consumed, so splitting is order-independent.
        """
        if isinstance(key, str):
            key = zlib.crc32(key.encode("utf-8"))
        path = tuple(self._seq.spawn_key) + (int(key) & 0xFFFFFFFF,)
        child = np.random.SeedSequence(entropy=self._seq.entropy, spawn_key=path)
        return RngStream(self.seed, _entropy=child)


def stream_for(seed: int, *keys) -> RngStream:
    """Stream addressed by a seed plus a path of string/int keys."""
    s = RngStream(seed)
    for k in keys:
        s = s.split(k)
    return s


# Philox-4x64 multipliers and Weyl key increments (Random123's constants).
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of the 128-bit products m * x, from
    products of 32-bit halves (uint64 multiplication keeps only the low word)."""
    m_lo, m_hi = m & _LOW32, m >> _32
    x_lo, x_hi = x & _LOW32, x >> _32
    lh, hl = x_lo * m_hi, x_hi * m_lo
    carry = ((x_lo * m_lo) >> _32) + (lh & _LOW32) + (hl & _LOW32)
    return x_hi * m_hi + (lh >> _32) + (hl >> _32) + (carry >> _32), x * m


def philox_uniforms(keys: np.ndarray, n_blocks: int) -> np.ndarray:
    """Doubles in [0, 1) as a (len(keys), n_blocks, 4) array: blocks 0 to
    n_blocks - 1 of the Philox-4x64-10 stream keyed by each row of the
    (n, 2) uint64 `keys`, as np.random.Philox(key=...).random_raw numbers
    them (block b has counter b + 1; key word 0 is the low one), each 64-bit
    output x taken as (x >> 11) * 2**-53."""
    k0, k1 = (np.ascontiguousarray(keys[:, j, None], dtype=np.uint64) for j in (0, 1))
    c0 = np.broadcast_to(np.arange(1, n_blocks + 1, dtype=np.uint64), (len(keys), n_blocks))
    c1 = c2 = c3 = np.zeros(c0.shape, np.uint64)
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return (np.stack([c0, c1, c2, c3], axis=-1) >> np.uint64(11)) * 2.0**-53
