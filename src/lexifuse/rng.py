"""Seeded random streams with deterministic splitting.

A stream is a thin wrapper over numpy's PCG64 generator.  Identical seed and
call sequence give bit-identical draws; independent child streams are derived
by seed-splitting so concurrent or per-word computations never share state.
"""

from __future__ import annotations

import zlib

import numpy as np


class RngStream:
    """Reproducible random stream addressable by a 64-bit seed path."""

    def __init__(self, seed: int, _entropy=None):
        self.seed = int(seed)
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
