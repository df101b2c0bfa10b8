"""Uniform sampling of ordered trees with a prescribed degree multiset.

Pipeline: expand the multiset to its canonical ascending sequence,
Fisher-Yates shuffle it, then rotate at the unique point that leaves a
well-formed preorder code.  Among the cyclic rotations of a charge-1
sequence exactly one is well-formed (the cycle lemma), and every tree is
hit by equally many shuffles, so the output is uniform over all trees
satisfying the multiset.  Each stage is linear in the node count.

One loop, ``_chunks``, walks the chunks of a sample.  Each turn takes
the draws of one shuffle, or of a chunk of them, from ``rng._draw_chunk``,
the one function that draws: from ``next_below`` or one numpy batch of
the same words (a long shuffle's a block at a time), and the swap loop
only swaps.  The multiset expands to a buffer of the narrowest unsigned
ints that hold its degrees, ``bytes`` or else an ``array``, and each chunk
comes out as one flat run of whole n-node codes of that type.  A batched
chunk is shuffled row by row, or by a column kernel, one numpy step per
position, from 64 trees up; its draws are dropped, and one numpy step
finds every rotation point, the first peak of the prefix charge, and
rotates every tree, all at the buffer's item width.  A ``next_below``
chunk rotates tree by tree, without numpy.  All give the same trees.
``fuzz-expr`` takes the same loop: each tree's label draws follow its
shuffle's in the stream, so a batched chunk draws both in one batch,
looks up each label's bound from the rotated trees, and hands the
chunk on with a label id per node; any other draws each tree's labels
as one more ``_draw_chunk`` row, as ``render_expression`` does.

Indexing: the rotation point ``k`` returned by ``find_rotation_point`` is
both the 1-based position of the last symbol of the complete-expression
prefix and the number of leading symbols ``rotate`` moves to the back, so
in Python slicing terms ``rotate(s, k) == s[k:] + s[:k]``.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from functools import partial

from . import rng
from .degrees import DegreeMultiset, _charge_peak
from .errors import NotConstructibleError
from .rng import _draw_chunk, _draw_ids

# Most words one chunk of many trees of sample_trees draws (512 KiB of
# uint64, plus the shifted copy next_words holds while mixing); a single row
# is drawn at most rng._BLOCK_WORDS words at a time.
_CHUNK_WORDS = 1 << 16
# The fewest trees a batched chunk of bytes must hold to go to the column
# kernel, which pays numpy's per-call cost once per position rather than
# Python's once per node.  It broke even at 28-64 rows of 8-1000 nodes.
_COLUMN_ROWS = 64
# From one more node than this a tree is swapped in a mutable copy of the
# sequence, where its list of pointers outgrows a core's L2 cache.
_BYTE_NODES = 1 << 19


def fisher_yates_shuffle(degrees: Sequence, source) -> list:
    """Return a uniformly shuffled copy of ``degrees`` in O(n).

    ``source`` needs only a ``next_below(bound)`` method; indices are
    drawn back to front, one draw per position, so a stub source scripted
    with ``len(degrees) - 1`` values walks every permutation path exactly
    once.  A :class:`RandomSource` gets its draws computed in one numpy
    batch over the identical word stream once there are enough of them,
    or in blocks of a bounded size past 2**18 of them.
    The items may be of any kind.
    """
    return _swapped(list(degrees), next(_draw_chunk(source, range(len(degrees), 1, -1), 1)[1]))


def _swapped(values, blocks):
    # The one Fisher-Yates swap loop, in place; draws come back to front, a
    # block of them at a time, each block used up before the next is taken.
    i = len(values)
    for draws in blocks:
        for i, j in zip(range(i - 1, 0, -1), draws):
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


def _tree_chunks(multiset: DegreeMultiset, source, count: int, labels=None):
    # The trees of sample_trees chunk by chunk, each chunk used up before the
    # next is taken, as _chunks gives them from the canonical sequence.  The
    # checks of sample_trees are made at the call.
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    total = multiset.charge
    if total != 1:
        raise NotConstructibleError(total)
    counts = multiset.counts
    # the narrowest item that holds every degree ("I" holds any under cli._MAX_NODES)
    typecode = next(t for t in "BHIQ" if max(counts) >> 8 * array(t).itemsize == 0)
    sequence = b"".join(array(typecode, [d]) * m for d, m in counts.items())
    return _chunks(sequence if typecode == "B" else array(typecode, sequence), source, count, labels)


def _chunks(sequence, source, count: int, labels=None):
    # The one loop over the chunks of sample_trees, from the canonical
    # sequence as bytes, or an array of wider items, the type of each chunk.
    # Each turn draws one chunk and drops its shuffle draws before rotating
    # it.  With labels, a map from each degree to a range of label ids, each
    # node draws an id from its degree's range by one of n words that follow
    # its tree's n - 1 shuffle words, and each turn yields the chunk and a
    # flat list of its ids.  A batch holds both draws of every tree, and
    # _draw_chunk keeps it only if no word is within n or the largest
    # range's size of 2**64; otherwise both are drawn tree by tree, the
    # labels as one more _draw_chunk row each, as render_expression draws them.
    n, typecode = len(sequence), memoryview(sequence).format
    # the sequence's type, and a mutable one to join rows in, from a list of ints or raw bytes
    chunk, row_type = (bytes, bytearray) if typecode == "B" else 2 * (partial(array, typecode),)
    container = list if n <= _BYTE_NODES else row_type
    bounds, per_chunk = range(n, 1, -1), max(1, _CHUNK_WORDS // max(1, n - 1))
    width = 2 * n - 1 if labels else n - 1
    top = max(map(len, labels.values())) if labels else 0
    for start in range(0, count, per_chunk):
        rows = min(per_chunk, count - start)
        batch, draws = _draw_chunk(source, bounds, rows, width, top)
        marks = [] if batch is None or not labels else batch[:, n - 1 :]
        rotated = batch is None
        if rotated:
            flat = []
            for row in draws:
                shuffled = _swapped(list(sequence), row)
                code = rotate(shuffled, find_rotation_point(shuffled))
                flat += code
                if labels:
                    marks += _draw_ids(source, list(map(labels.__getitem__, code)))
            flat = chunk(flat)
        elif len(batch) >= _COLUMN_ROWS:
            flat = _column_table(sequence, batch[:, : n - 1])
        else:
            flat = bytearray().join(row_type(_swapped(container(sequence), row)) for row in draws)
            flat = memoryview(flat).cast(typecode)  # its rows, in the sequence's items
        del batch, draws
        if not rotated:
            flat = chunk(_rotated(flat, n))
        if labels and type(marks) is not list:  # else ids drawn tree by tree above
            marks = _label_ids(marks, flat, labels)
        yield (flat, marks) if labels else flat


def _label_ids(words, flat, labels):
    # The label ids of a chunk's rotated codes flat from its raw label words,
    # which _draw_chunk has checked against the largest range, as a flat list.
    import numpy as np

    degrees = sorted(labels)
    codes = np.frombuffer(flat, dtype=memoryview(flat).format)
    at = np.searchsorted(degrees, codes).reshape(words.shape)
    words %= np.array([len(labels[d]) for d in degrees], dtype=np.uint64)[at]
    words += np.array([labels[d].start for d in degrees], dtype=np.uint64)[at]
    return words.reshape(-1).tolist()


def _column_table(sequence, draws):
    # The shuffles _swapped makes from the rows of draws, a uint64 array, as
    # a (rows, n) array of the sequence's item type.  Each swap runs across
    # every row: position i of all trees is the contiguous row columns[i],
    # and draw j of row r indexes the flat array at j * rows + r.
    import numpy as np

    rows, n = draws.shape[0], len(sequence)
    columns = np.empty((n, rows), dtype=memoryview(sequence).format)
    columns[:] = np.frombuffer(sequence, dtype=columns.dtype)[:, None]
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
    # The rows of table, n-node shuffles (or a buffer), each rotated at the
    # first peak of its prefix charge, as their items' bytes: one row by two
    # slices, its peak found a block at a time from the charge before the
    # block, more by each row's window of the table set twice side by side.
    import numpy as np

    table = table if isinstance(table, np.ndarray) else np.frombuffer(table, memoryview(table).format).reshape(-1, n)
    if len(table) == 1:
        row, peak, k, level = table[0], -n, 0, 0  # a charge-1 row's charges are above -n
        for start in range(0, n, rng._BLOCK_WORDS):
            charge = np.subtract(1, row[start : start + rng._BLOCK_WORDS], dtype=np.int32)
            charge.cumsum(out=charge)
            top = int(charge.argmax())
            if level + int(charge[top]) > peak:
                peak, k = level + int(charge[top]), start + top + 1
            level += int(charge[-1])
        return b"".join((row[k:], row[:k]))
    charge = np.subtract(1, table, dtype=np.int32)
    charge.cumsum(axis=1, out=charge)
    start = charge.argmax(axis=1) + 1
    del charge
    doubled = np.concatenate((table, table), axis=1)
    row, step = doubled.strides
    windows = np.lib.stride_tricks.as_strided(doubled, (len(table), n + 1, n), (row, step, step), writeable=False)
    return windows[np.arange(len(table)), start].tobytes()
