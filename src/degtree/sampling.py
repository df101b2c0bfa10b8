"""Uniform sampling of ordered trees with a prescribed degree multiset.

Pipeline: expand the multiset to its canonical ascending sequence,
Fisher-Yates shuffle it, then rotate at the unique point that leaves a
well-formed preorder code.  Among the cyclic rotations of a charge-1
sequence exactly one is well-formed (the cycle lemma), and every tree is
hit by equally many shuffles, so the output is uniform over all trees
satisfying the multiset.  Each stage is linear in the node count.

Each stage has one kernel.  The shuffle's single swap loop takes its
draws from ``next_below``, or from one numpy batch over the same words.
Counter-mode splitmix can jump ahead, so the words of tree ``r`` in a
run of trees are known without drawing trees ``0..r-1``: a batch holds
one row of ``n - 1`` words per tree, and is used when the source is a
:class:`RandomSource` and the batch holds at least ``_BATCH_WORDS``
words across its rows, the measured point where numpy starts beating
the scalar chain.  Rows are drawn in batches of at most ``_CHUNK_WORDS``
words (one row when a row is longer), which bounds the draw matrix.  A
batch with any word in a rejection zone is rewound and its rows drawn
through ``next_below``, so every path consumes the identical stream.
The rotation point is the first peak of the prefix charge, scanned in
Python below ``_VECTOR_THRESHOLD`` nodes and found by ``cumsum``/``argmax``
above it.

Indexing: the rotation point ``k`` returned by ``find_rotation_point`` is
both the 1-based position of the last symbol of the complete-expression
prefix and the number of leading symbols ``rotate`` moves to the back, so
in Python slicing terms ``rotate(s, k) == s[k:] + s[:k]``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .degrees import DegreeMultiset, _charge_peak, charge
from .errors import ChargeNotOneError, NotConstructibleError
from .rng import RandomSource

# Below this size plain Python loops beat numpy's array-creation overhead.
_VECTOR_THRESHOLD = 1024
# From about this many words one numpy batch beats the next_below chain.
_BATCH_WORDS = 32
# Most words in one draw batch (8 MiB of uint64) unless a single row is longer.
_CHUNK_WORDS = 1 << 20


def fisher_yates_shuffle(degrees: Sequence[int], source) -> list[int]:
    """Return a uniformly shuffled copy of ``degrees`` in O(n).

    ``source`` needs only a ``next_below(bound)`` method; indices are
    drawn back to front, one draw per position, so a stub source scripted
    with ``len(degrees) - 1`` values walks every permutation path exactly
    once.  A :class:`RandomSource` gets its draws computed in one numpy
    batch over the identical word stream once there are at least
    ``_BATCH_WORDS`` of them.
    """
    return _shuffles(degrees, source, 1)[0]


def _shuffles(degrees: Sequence[int], source, rows: int) -> list[list[int]]:
    # ``rows`` shuffled copies, drawn one after another on source.  The
    # rows share one draw batch, so callers keep rows * (n - 1) within
    # _CHUNK_WORDS; each row is converted from numpy only when it is used.
    n = len(degrees)
    batch = _batched_draws(n, source, rows)
    if batch is None:
        scalar = ((source.next_below(b) for b in range(n, 1, -1)) for _ in range(rows))
        return [_swapped(degrees, draws) for draws in scalar]
    return [_swapped(degrees, row.tolist()) for row in batch]


def _swapped(degrees: Sequence[int], draws) -> list[int]:
    # The one Fisher-Yates swap loop; draws come back to front.
    values = list(degrees)
    for i, j in zip(range(len(values) - 1, 0, -1), draws):
        values[i], values[j] = values[j], values[i]
    return values


def _batched_draws(n: int, source, rows: int) -> np.ndarray | None:
    # Each row's n - 1 draws, in next_below's order, from one batch of
    # words; None when the draws must come from next_below instead: the
    # source is not a RandomSource, the batch is too small to pay, or a
    # word landed in a rejection zone (probability < n**2 / 2**64 per row),
    # in which case the batch is rewound so the caller redraws the same
    # stream.
    size = rows * (n - 1)
    if size < _BATCH_WORDS or not isinstance(source, RandomSource):
        return None
    words = source.next_words(size).reshape(rows, n - 1)
    bounds = np.arange(n, 1, -1, dtype=np.uint64)
    remainders = (np.uint64(0) - bounds) % bounds  # 2**64 mod bound
    thresholds = np.uint64(0) - remainders  # wraps to 0 when bound divides 2**64
    if ((remainders != np.uint64(0)) & (words >= thresholds)).any():
        source.rewind(size)
        return None
    return words % bounds


def find_rotation_point(degrees: Sequence[int]) -> int:
    """First position at which the prefix charge attains its maximum.

    That position ``k`` is the length of the maximal leading run of
    complete tree codes, i.e. ``decompose(degrees).complete_prefix_length``.
    Rotating there, ``degrees[k:] + degrees[:k]``, always yields a
    well-formed code.  For well-formed input ``k == len(degrees)``.

    Raises:
        ChargeNotOneError: if the total charge differs from 1.
    """
    if len(degrees) < _VECTOR_THRESHOLD:
        return _charge_peak(degrees)[0]
    return _rotation_point_vectorized(degrees)


def _rotation_point_vectorized(degrees: Sequence[int]) -> int:
    # _charge_peak's position, from numpy's cumsum and first argmax.
    values = np.asarray(degrees, dtype=np.int64)
    prefix = np.cumsum(1 - values)
    if prefix[-1] != 1 or values.max() >= len(values):
        # A degree of n or more rules out charge 1, and could have wrapped
        # the int64 sums; the error reports the exact charge.
        raise ChargeNotOneError(charge(degrees))
    return int(np.argmax(prefix)) + 1


def rotate(degrees: Sequence[int], k: int) -> list[int]:
    """Move the first ``k`` symbols to the back: ``degrees[k:] + degrees[:k]``.

    Length and element multiset are preserved; ``k`` of 0 or
    ``len(degrees)`` returns an unchanged copy.

    Raises:
        IndexError: if ``k`` is outside ``[0, len(degrees)]``.
    """
    if k < 0 or k > len(degrees):
        raise IndexError(f"rotation point {k} outside [0, {len(degrees)}]")
    if not isinstance(degrees, list):
        degrees = list(degrees)
    return degrees[k:] + degrees[:k]


def sample_tree(multiset: DegreeMultiset, source) -> list[int]:
    """Draw one tree uniformly among all trees matching ``multiset``.

    Returns the tree's preorder outdegree code.  Every distinct tree is
    equally likely, the draw costs O(total_nodes), and a given (seed,
    multiset) pair reproduces the same tree no matter how the multiset was
    originally written, because the expansion is sorted before shuffling.

    Raises:
        NotConstructibleError: if the multiset charge differs from 1, i.e.
            no tree uses all of its nodes.
    """
    return sample_trees(multiset, source, 1)[0]


def sample_trees(multiset: DegreeMultiset, source, count: int) -> list[list[int]]:
    """Draw ``count`` independent uniform trees matching ``multiset``.

    Returns exactly ``[sample_tree(multiset, source) for _ in
    range(count)]`` and leaves ``source`` at the same word, but draws the
    words of many trees in one batch.  ``count == 0`` returns ``[]``.
    Both checks below fail before any word is drawn.

    Raises:
        ValueError: if ``count`` is negative.
        NotConstructibleError: if the multiset charge differs from 1.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    total = multiset.charge
    if total != 1:
        raise NotConstructibleError(total)
    sequence = multiset.to_sequence()
    rows_per_batch = max(1, _CHUNK_WORDS // max(1, len(sequence) - 1))
    trees = []
    for start in range(0, count, rows_per_batch):
        for shuffled in _shuffles(sequence, source, min(rows_per_batch, count - start)):
            k = find_rotation_point(shuffled)
            trees.append(shuffled[k:] + shuffled[:k])
    return trees
