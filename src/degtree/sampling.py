"""Uniform sampling of ordered trees with a prescribed degree multiset.

Pipeline: expand the multiset to its canonical ascending sequence,
Fisher-Yates shuffle it, then rotate at the unique point that leaves a
well-formed preorder code.  Among the cyclic rotations of a charge-1
sequence exactly one is well-formed (the cycle lemma), and every tree is
hit by equally many shuffles, so the output is uniform over all trees
satisfying the multiset.  Each stage is linear in the node count.

The shuffle takes its draws from ``rng._draw_chunks``, for one shuffle
or a chunk of them, from ``next_below`` or one numpy batch of the same
words, and its loop only swaps.  Each chunk of trees comes out as one
flat run of whole n-node codes: ``bytes`` when every degree fits a byte,
else a ``list``.  A batched chunk of bytes is shuffled row by row (or
by a column kernel, one numpy step per position, when it holds at least
64 trees and at least as many as each has nodes), and one numpy step
finds every rotation point, the first peak of the prefix charge, and
rotates every tree.  Any other chunk rotates tree by tree, without
numpy.  All give the same trees from the same draws.

Indexing: the rotation point ``k`` returned by ``find_rotation_point`` is
both the 1-based position of the last symbol of the complete-expression
prefix and the number of leading symbols ``rotate`` moves to the back, so
in Python slicing terms ``rotate(s, k) == s[k:] + s[:k]``.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .degrees import DegreeMultiset, _charge_peak
from .errors import NotConstructibleError
from .rng import _draw_chunks, _draw_rows

# The fewest trees a batched chunk of sample_trees must hold, besides at
# least as many trees as each has nodes, to go to the column kernel, which
# pays numpy's per-call cost once per position rather than Python's once
# per node.  It broke even between 28 and 64 rows of 8-120 nodes.
_COLUMN_ROWS = 64
# From one more node than this a tree whose degrees fit a byte is swapped
# in a bytearray, where its list of pointers outgrows a core's L2 cache.
_BYTE_NODES = 1 << 19


def fisher_yates_shuffle(degrees: Sequence, source) -> list:
    """Return a uniformly shuffled copy of ``degrees`` in O(n).

    ``source`` needs only a ``next_below(bound)`` method; indices are
    drawn back to front, one draw per position, so a stub source scripted
    with ``len(degrees) - 1`` values walks every permutation path exactly
    once.  A :class:`RandomSource` gets its draws computed in one numpy
    batch over the identical word stream once there are enough of them.
    The items may be of any kind.
    """
    return _swapped(list(degrees), next(_draw_rows(source, range(len(degrees), 1, -1), 1)))


def _swapped(values, draws):
    # The one Fisher-Yates swap loop, in place; draws come back to front.
    for i, j in zip(range(len(values) - 1, 0, -1), draws):
        values[i], values[j] = values[j], values[i]
    return values


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
    n, chunks = multiset.total_nodes, _tree_chunks(multiset, source, count)
    return (list(flat[start : start + n]) for flat in chunks for start in range(0, len(flat), n))


def _tree_chunks(multiset: DegreeMultiset, source, count: int):
    # The trees of sample_trees chunk by chunk, each chunk used up before the
    # next is taken, as a flat run of whole codes: bytes, or a list when a
    # degree is above 255.  The checks of sample_trees are made at the call.
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    total = multiset.charge
    if total != 1:
        raise NotConstructibleError(total)
    return _chunks(multiset.to_sequence(), source, count)


def _chunks(sequence: list[int], source, count: int):
    n, top = len(sequence), sequence[-1]
    container = bytearray if n > _BYTE_NODES and top <= 255 else list
    for batch, rows in _draw_chunks(source, range(n, 1, -1), count):
        if batch is None or top > 255:
            flat = []
            for draws in rows:
                shuffled = _swapped(list(sequence), draws)
                flat += rotate(shuffled, find_rotation_point(shuffled))
            flat = flat if top > 255 else bytes(flat)
        elif len(batch) >= max(n, _COLUMN_ROWS):
            flat = _rotated(_column_table(sequence, batch), n)
        else:
            shuffles = (bytearray(_swapped(container(sequence), draws)) for draws in rows)
            flat = _rotated(bytearray().join(shuffles), n)
        yield flat


def _column_table(sequence: list[int], draws):
    # The shuffles _swapped makes from the rows of draws, a uint64 array of
    # at least n = len(sequence) rows, as a (rows, n) uint8 array.  Each
    # swap runs across every row: position i of all trees is the contiguous
    # row columns[i], and draw j of row r indexes the flat array at
    # j * rows + r.
    import numpy as np

    rows, n = draws.shape[0], len(sequence)
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
    return columns.T


def _rotated(table, n: int) -> bytes:
    # The rows of table, n-node shuffles (or their bytes), each rotated at
    # the first peak of its prefix charge, as bytes: one row by two slices,
    # more by each row's window of the table set twice side by side.
    import numpy as np

    table = np.frombuffer(table, dtype=np.uint8).reshape(-1, n) if isinstance(table, bytearray) else table
    charge = np.subtract(1, table, dtype=np.int32)
    charge.cumsum(axis=1, out=charge)
    start = charge.argmax(axis=1) + 1
    del charge
    if len(table) == 1:
        k = int(start[0])
        return table[0, k:].tobytes() + table[0, :k].tobytes()
    doubled = np.concatenate((table, table), axis=1)
    row, step = doubled.strides
    windows = np.lib.stride_tricks.as_strided(doubled, (len(table), n + 1, n), (row, step, step), writeable=False)
    return windows[np.arange(len(table)), start].tobytes()
