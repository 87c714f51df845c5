"""Counter-based random number streams for reproducible Monte Carlo.

A stream is addressed by a 64-bit master seed and a stream index.  Streams
are backed by the Philox counter-based generator, so identical
``(seed, index)`` pairs reproduce identical sample sequences regardless of
how many other streams are drawn from, and distinct indices give
statistically independent streams.  This keeps campaigns bitwise
reproducible: each t of a campaign draws from its own stream, indexed by
the t index, so no t's draws depend on another's.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


class RngStream:
    """One independent, replayable random stream keyed by (seed, index)."""

    def __init__(self, seed: int, index: int = 0):
        self.seed = int(seed) & _MASK64
        self.index = int(index) & _MASK64
        key = np.array([self.seed, self.index], dtype=np.uint64)
        self._generator = np.random.Generator(np.random.Philox(key=key))

    @property
    def generator(self) -> np.random.Generator:
        return self._generator

    def __repr__(self):
        return f"RngStream(seed={self.seed}, index={self.index})"
