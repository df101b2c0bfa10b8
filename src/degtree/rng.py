"""Seedable deterministic random source.

The generator is splitmix64 run in counter mode: word ``i`` of a stream is
``mix(seed + i * GOLDEN)``.  Bounded draws use rejection sampling on whole
64-bit words, so ``next_below`` is exactly uniform for every bound.
Counter mode makes batching trivial: a vectorised batch yields
bit-identical words to repeated scalar calls, and a consumed batch can be
undone by rewinding the counter.  The words of row ``r`` in a run of
rows are known without drawing rows ``0..r-1``, so one function,
``_draw_chunk``, the only one that draws, takes the bounded values of a
run of rows, a chunk of the shuffles of many trees or the labels of one
expression, from one batch whose rows match the ``next_below`` chain
word for word.  A single row longer than ``_BLOCK_WORDS``, the shuffle
of one large tree or the labels of one large expression, goes through it
a block at a time, so its draws never take more memory than one block.
A row may also carry raw words past its draws: an n-node expression tree
takes n - 1 shuffle words, then one label word per node, so with no
rejection tree ``r`` of a run starts at word ``r * (2n - 1)``, and a
chunk of such trees is one batch, however long, whose label words are
reduced once the rotated trees give each node's bound.  Each batch or
block equals the chain, and is kept, when no word exceeds 2**64 minus
the largest bound, shuffle or label, of its words; any other is rewound
and drawn by next_below on its own.

The generator is hand-rolled rather than borrowed from ``random.Random``
so that seeded streams are stable across interpreter versions; the golden
files in the test suite depend on that.

numpy is imported only where a batch is drawn, so importing this module,
and any run that draws fewer than ``_BATCH_WORDS`` words at a time, does
not load it.
"""

from __future__ import annotations

from itertools import chain
from operator import getitem, index

TYPE_CHECKING = False  # True for a type checker; typing is not imported at run time
if TYPE_CHECKING:
    import numpy as np

_MASK64 = (1 << 64) - 1
_WORD_SPAN = 1 << 64
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# From about this many words one numpy batch beats the next_below chain.
_BATCH_WORDS = 32
# Most words of a single row drawn at once (2 MiB of uint64); a longer row
# is drawn a block at a time.  Blocks of 2**16 words made the shuffle of a
# 1e5-node tree 2-7% slower (in-process, 2-core x86-64).
_BLOCK_WORDS = 1 << 18
# Most words next_words mixes in one pass (512 KiB): on a 2-core x86-64
# box a 2**18-word batch mixed in such slices took 0.8-1.1 ms, against
# 2.4-2.5 ms in one pass.
_MIX_WORDS = 1 << 16


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
            import secrets  # loaded only by unseeded runs

            seed = secrets.randbits(64)
        seed = index(seed)
        if not 0 <= seed < _WORD_SPAN:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        self.seed = seed
        self._count = 0

    @property
    def words_consumed(self) -> int:
        """Number of words drawn so far, less any rewound."""
        return self._count

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
        import numpy as np

        # in place, a cache-sized slice at a time, so only z and one slice's
        # shifted copy are ever held
        z = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        for start in range(0, n, _MIX_WORDS):
            part = z[start : start + _MIX_WORDS]
            part *= np.uint64(_GOLDEN)
            part += np.uint64(self.seed)
            part ^= part >> np.uint64(30)
            part *= np.uint64(_MIX1)
            part ^= part >> np.uint64(27)
            part *= np.uint64(_MIX2)
            part ^= part >> np.uint64(31)
        return z

    def rewind(self, n: int) -> None:
        """Step the stream back ``n`` words, un-consuming a batch."""
        if n < 0 or n > self._count:
            raise ValueError(f"cannot rewind {n} words of a {self.words_consumed}-word stream")
        self._count -= n


def _draw_chunk(source, bounds, rows: int, width: int = 0, top: int = 0):
    # The draws of ``rows`` rows, each with the values of
    # [source.next_below(b) for b in bounds] (the bounds n down to 2 of a
    # Fisher-Yates shuffle, or the symbol counts of expression labels), as
    # a (batch, rows) pair; rows yields each row as an iterable of blocks of
    # its draws, to be used up in turn.  A RandomSource draws them in one
    # next_words batch once they are _BATCH_WORDS words: batch is that 2-D
    # uint64 array, and a row's one block is its row of the batch as a
    # memoryview, whose items become Python ints one at a time, where a list
    # would hold them all (about 36 MB for a 1e6-node shuffle); the caller
    # drops both when done with them.  A batch row holds ``width`` words
    # (default: one per bound), the last left raw for the caller to reduce
    # by bounds up to ``top``.  A single row of more than _BLOCK_WORDS draws
    # and no raw words is drawn by this function a block at a time
    # (_row_blocks), with an empty (1, 0) batch.  As next_below(b) takes
    # every word up to 2**64 - b, a batch or block is kept only if no word
    # is above 2**64 minus its largest bound; any other (probability <
    # words * bound / 2**64) is rewound, and its draws come from next_below
    # like any other source's (a whole batch with batch None), so every
    # path consumes the identical stream.
    size = rows * len(bounds)
    if size >= _BATCH_WORDS and isinstance(source, RandomSource):
        import numpy as np

        if rows == 1 and size > _BLOCK_WORDS and width <= size:
            return np.empty((1, 0), dtype=np.uint64), iter([_row_blocks(source, bounds)])
        words = source.next_words(rows * (width or len(bounds))).reshape(rows, -1)
        if _kept(words, bounds, top):
            return words, zip(map(memoryview, words))
        source.rewind(words.size)
    return None, zip((source.next_below(b) for b in bounds) for _ in range(rows))


def _row_blocks(source, bounds):
    # The draws of one row of bounds, a _draw_chunk row of _BLOCK_WORDS at a
    # time, each kept block released when the next is asked for, so at most
    # one is held.
    for start in range(0, len(bounds), _BLOCK_WORDS):
        (block,) = next(_draw_chunk(source, bounds[start : start + _BLOCK_WORDS], 1)[1])
        yield block
        if isinstance(block, memoryview):
            block.release()


def _draw_ids(source, ranges: list) -> list:
    # r[source.next_below(len(r))] for each range r of label ids, as one _draw_chunk row
    draws = chain.from_iterable(next(_draw_chunk(source, list(map(len, ranges)), 1)[1]))
    return list(map(getitem, ranges, draws))


def _kept(words, bounds, top: int = 0) -> bool:
    # Whether every row of words, a 2-D uint64 array, matches the chain: no
    # word above 2**64 minus the largest of bounds and top.  If so, its first
    # len(bounds) columns are reduced by bounds in place.
    import numpy as np

    if isinstance(bounds, range):  # 4 bytes a bound: a shuffle has fewer than 2**32 items
        limits = np.arange(bounds.start, bounds.stop, bounds.step, dtype=np.uint32)
    else:
        limits = np.array(bounds, dtype=np.uint64)
    if words.max() > np.uint64(_WORD_SPAN - max(top, int(limits.max()))):
        return False
    words[:, : len(bounds)] %= limits
    return True
