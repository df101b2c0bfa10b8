"""Seedable deterministic random source.

The generator is splitmix64 run in counter mode: word ``i`` of a stream is
``mix(seed + i * GOLDEN)``.  Bounded draws use rejection sampling on whole
64-bit words, so ``next_below`` is exactly uniform for every bound.
Counter mode makes batching trivial: a vectorised batch yields
bit-identical words to repeated scalar calls, and a consumed batch can be
undone by rewinding the counter.

The generator is hand-rolled rather than borrowed from ``random.Random``
so that seeded streams are stable across interpreter versions; the golden
files in the test suite depend on that.
"""

from __future__ import annotations

import secrets
from operator import index

import numpy as np

_MASK64 = (1 << 64) - 1
_WORD_SPAN = 1 << 64
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class RandomSource:
    """Deterministic stream of uniform integers, fixed by a 64-bit seed.

    Identical seeds and identical call sequences produce identical draws.
    Without an explicit seed, one is taken from system entropy and kept in
    ``self.seed`` so the run can be replayed.  An explicit seed must lie in
    ``[0, 2**64)``; any other value raises ``ValueError`` rather than
    aliasing another seed's stream.  Instances are not thread-safe; give
    each thread its own source.
    """

    def __init__(self, seed: int | None = None):
        if seed is None:
            seed = secrets.randbits(64)
        seed = index(seed)
        if not 0 <= seed < _WORD_SPAN:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        self.seed = seed
        self._count = 0

    def next_word(self) -> int:
        """Next raw 64-bit word of the stream."""
        self._count += 1
        return _mix((self.seed + self._count * _GOLDEN) & _MASK64)

    def next_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)``.

        Words at or above the largest multiple of ``bound`` are rejected
        and redrawn, removing modulo bias.  One word is consumed per
        accepted draw; rejections (probability < bound / 2**64) consume
        extra words.
        """
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = _WORD_SPAN - (_WORD_SPAN % bound)
        while True:
            word = self.next_word()
            if word < limit:
                return word % bound

    def next_words(self, n: int) -> np.ndarray:
        """Next ``n`` raw words as a uint64 array.

        Produces exactly the words ``n`` successive ``next_word`` calls
        would, then advances the stream past them.
        """
        counts = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        z = np.uint64(self.seed) + counts * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def rewind(self, n: int) -> None:
        """Step the stream back ``n`` words, un-consuming a batch."""
        if n < 0 or n > self._count:
            raise ValueError(f"cannot rewind {n} words of a {self._count}-word stream")
        self._count -= n
