"""Uniform sampling of ordered trees with a prescribed degree multiset.

Pipeline: expand the multiset to its canonical ascending sequence,
Fisher-Yates shuffle it, then rotate at the unique point that leaves a
well-formed preorder code.  Among the cyclic rotations of a charge-1
sequence exactly one is well-formed (the cycle lemma), and every tree is
hit by equally many shuffles, so the output is uniform over all trees
satisfying the multiset.  Each stage is linear in the node count.

The shuffle takes its draws from ``rng._draw_chunks``, the draw kernel
that expression labels use too, which computes them from ``next_below``
or from one numpy batch over the identical word stream, for one shuffle
or for a chunk of them.  One swap loop shuffles a tree at a time.
Fisher-Yates fixes positions back to front, so the same loop also finds
the rotation point: the first position where the suffix charge is
lowest is where the prefix charge first peaks.  A batched chunk of
``sample_trees`` that holds at least 64 trees, and at least as many as
each has nodes, goes instead to a column kernel, which makes the same
swaps with one numpy step per position across all of its trees, then
finds every rotation point as the first peak of the prefix charge.
Both give the same trees from the same draws.

Indexing: the rotation point ``k`` returned by ``find_rotation_point`` is
both the 1-based position of the last symbol of the complete-expression
prefix and the number of leading symbols ``rotate`` moves to the back, so
in Python slicing terms ``rotate(s, k) == s[k:] + s[:k]``.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Sequence

from .degrees import DegreeMultiset, _charge_peak
from .errors import NotConstructibleError
from .rng import _draw_chunks, _draw_rows

# The fewest trees a batched chunk of sample_trees must hold, besides at
# least as many trees as each has nodes, to go to the column kernel.  The
# kernel pays numpy's per-call cost once per position rather than
# Python's once per node, so it needs many rows, nearly whatever their
# width.  With Python 3.11 and numpy 2.4 on a 2-core x86-64 box, trees as
# lists included, it ran at 0.4-0.9x the speed of the row loop on square
# chunks of 10-40 nodes and at 24-32 rows of 28-120 nodes, broke even
# between 28 and 64 rows, and ran 1.3-1.8x faster at 64 rows and
# 1.9-2.6x at 128 rows of 8-120 nodes.
_COLUMN_ROWS = 64


def fisher_yates_shuffle(degrees: Sequence[int], source) -> list[int]:
    """Return a uniformly shuffled copy of ``degrees`` in O(n).

    ``source`` needs only a ``next_below(bound)`` method; indices are
    drawn back to front, one draw per position, so a stub source scripted
    with ``len(degrees) - 1`` values walks every permutation path exactly
    once.  A :class:`RandomSource` gets its draws computed in one numpy
    batch over the identical word stream once there are enough of them.
    The items must be numbers, since the swap loop sums their charges.
    """
    return _swapped(degrees, next(_draw_rows(source, range(len(degrees), 1, -1), 1)))[0]


def _swapped(degrees: Sequence[int], draws) -> tuple[list[int], int]:
    # The one Fisher-Yates swap loop; draws come back to front.  Position i
    # is final once swapped, so the loop also keeps the first position k in
    # [1, n] where the suffix charge is lowest (n for the empty suffix): for
    # a charge-1 sequence the prefix charge, 1 minus the suffix charge,
    # first peaks there, so k is find_rotation_point of the result.  The
    # values stay a list even when they would fit in bytes: CPython 3.11
    # specialises list[int] subscripts, and over a bytearray this loop
    # measured 25-85% slower per item from 1e2 to 1e5 nodes and no faster
    # from 3e5 to 4e6.
    values = list(degrees)
    n = k = len(values)
    suffix = low = 0
    for i, j in zip(range(n - 1, 0, -1), draws):
        v = values[j]
        values[j] = values[i]
        values[i] = v
        suffix += 1 - v
        if suffix <= low:
            low = suffix
            k = i
    return values, k


def find_rotation_point(degrees: Sequence[int]) -> int:
    """First position at which the prefix charge attains its maximum.

    That position ``k`` is the length of the maximal leading run of
    complete tree codes, i.e. ``decompose(degrees).complete_prefix_length``.
    Rotating there, ``degrees[k:] + degrees[:k]``, always yields a
    well-formed code.  For well-formed input ``k == len(degrees)``.

    Raises:
        ChargeNotOneError: if the total charge differs from 1.
    """
    return _charge_peak(degrees)[0]


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
    return next(sample_trees(multiset, source, 1))


def sample_trees(multiset: DegreeMultiset, source, count: int) -> Iterator[list[int]]:
    """Iterate over ``count`` independent uniform trees matching ``multiset``.

    Yields the same trees as ``count`` successive ``sample_tree(multiset,
    source)`` calls, and once the iterator is used up ``source`` stands at
    the same word as after those calls.  The words of many trees are
    drawn in one batch, a bounded chunk of them ahead of the tree being
    yielded, so nothing else may draw from ``source`` mid-iteration.
    Only that chunk and the tree just yielded are held, however large
    ``count`` is.  ``count == 0`` yields nothing.  Both checks below are
    made when ``sample_trees`` is called, before any word is drawn.

    Raises:
        ValueError: if ``count`` is negative.
        NotConstructibleError: if the multiset charge differs from 1.
    """
    return chain.from_iterable(trees for trees, _ in _tree_chunks(multiset, source, count))


def _tree_chunks(multiset: DegreeMultiset, source, count: int):
    # The trees of sample_trees chunk by chunk, as (trees, table) pairs,
    # each chunk to be used up before the next is taken.  trees yields
    # each tree as a list; table is the 2-D uint8 array of the chunk's
    # trees, one per row, when the column kernel shuffled it, and None
    # otherwise.  The checks of sample_trees are made here, at the call.
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    total = multiset.charge
    if total != 1:
        raise NotConstructibleError(total)
    return _chunks(multiset.to_sequence(), source, count)


def _chunks(sequence: list[int], source, count: int):
    n = len(sequence)
    for batch, rows in _draw_chunks(source, range(n, 1, -1), count):
        if batch is not None and len(batch) >= max(n, _COLUMN_ROWS):
            table = _column_trees(sequence, batch)
            yield (tree.tolist() for tree in table), table
        else:
            yield _row_trees(sequence, rows), None


def _row_trees(sequence: list[int], rows):
    for draws in rows:
        shuffled, k = _swapped(sequence, draws)
        tree = shuffled[k:] + shuffled[:k]
        del shuffled, draws  # not held while the caller has the tree
        yield tree


def _column_trees(sequence: list[int], draws):
    # The trees _row_trees makes from the rows of draws, a uint64 array of
    # at least n = len(sequence) rows, made for all rows at once.  The swap
    # loop of _swapped runs one numpy step per position over every row:
    # position i of all trees is the contiguous row columns[i], and the
    # draw j of row r, below n, indexes the flat array at j * rows + r.
    # Each tree's rotation point is the first peak of its prefix charge,
    # and one take_along_axis rotates every tree.  At least n rows of n - 1
    # draws fit in _CHUNK_WORDS = 2**16 words only for n <= 256, so every
    # degree, at most n - 1, fits in a byte.
    import numpy as np

    rows, n = draws.shape[0], len(sequence)
    assert sequence[-1] <= 255, "a column chunk holds a degree above 255"
    columns = np.empty((n, rows), dtype=np.uint8)
    columns[:] = np.array(sequence, dtype=np.uint8)[:, None]
    flat = columns.reshape(-1)
    at = draws.T.copy()
    at *= np.uint64(rows)
    at += np.arange(rows, dtype=np.uint64)
    for j, i in zip(at, range(n - 1, 0, -1)):
        v = flat[j]
        flat[j] = columns[i]
        columns[i] = v
    del at
    trees = columns.T
    charge = np.arange(1, n + 1, dtype=np.int16) - trees.cumsum(axis=1, dtype=np.int16)
    start = charge.argmax(axis=1) + 1
    return np.take_along_axis(trees, (start[:, None] + np.arange(n)) % n, axis=1)
