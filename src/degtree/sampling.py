"""Uniform sampling of ordered trees with a prescribed degree multiset.

Pipeline: expand the multiset to its canonical ascending sequence,
Fisher-Yates shuffle it, then rotate at the unique point that leaves a
well-formed preorder code.  Among the cyclic rotations of a charge-1
sequence exactly one is well-formed (the cycle lemma), and every tree is
hit by equally many shuffles, so the output is uniform over all trees
satisfying the multiset.  Each stage is linear in the node count.

One loop, ``_chunks``, walks the chunks of a sample.  Each turn takes
the draws of one shuffle, or of a chunk of them, from one
``rng._draw_chunk`` call, from ``next_below`` or one numpy batch of the
same words, and the swap loop only swaps.  The multiset expands to
``bytes`` when every degree fits a byte, else to a ``list``, and each
chunk comes out as one flat run of whole n-node codes of the same type.
A batched chunk of bytes is shuffled row by row, or by a column kernel,
one numpy step per position, from 64 trees up; its draws are dropped,
and one numpy step finds every rotation point, the first peak of the
prefix charge, and rotates every tree.  Any other chunk rotates tree by
tree, without numpy.  All give the same trees from the same draws.
``fuzz-expr`` takes the same loop: each tree's label draws follow its
shuffle's in the stream, so a batched chunk draws both in one batch,
looks up each label's bound from the rotated trees, and hands the
chunk on with a label id per node.

Indexing: the rotation point ``k`` returned by ``find_rotation_point`` is
both the 1-based position of the last symbol of the complete-expression
prefix and the number of leading symbols ``rotate`` moves to the back, so
in Python slicing terms ``rotate(s, k) == s[k:] + s[:k]``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .degrees import DegreeMultiset, _charge_peak
from .errors import NotConstructibleError
from .rng import _draw_chunk

# Most words one chunk of sample_trees draws (512 KiB of uint64, plus the
# shifted copy next_words holds while mixing) unless a single row is longer.
_CHUNK_WORDS = 1 << 16
# The fewest trees a batched chunk of bytes must hold to go to the column
# kernel, which pays numpy's per-call cost once per position rather than
# Python's once per node.  It broke even at 28-64 rows of 8-1000 nodes.
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
    return _swapped(list(degrees), next(_draw_chunk(source, range(len(degrees), 1, -1), 1)[1]))


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


def _tree_chunks(multiset: DegreeMultiset, source, count: int, labels=None):
    # The trees of sample_trees chunk by chunk, each chunk used up before the
    # next is taken, as a flat run of whole codes: bytes, or a list when a
    # degree is above 255; with labels, as _chunks gives them.  The checks of
    # sample_trees are made at the call.
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    total = multiset.charge
    if total != 1:
        raise NotConstructibleError(total)
    counts = multiset.counts
    if max(counts) > 255:
        return _chunks(multiset.to_sequence(), source, count, labels)
    return _chunks(b"".join(bytes([d]) * m for d, m in counts.items()), source, count, labels)


def _chunks(sequence, source, count: int, labels=None):
    # The one loop over the chunks of sample_trees, from the canonical
    # sequence as bytes, or as a list when a degree is above 255.  Each turn
    # draws one chunk and drops its shuffle draws before rotating it.  With
    # labels, a map from each degree to a range of label ids, each node
    # draws an id from its degree's range by one of n words that follow
    # its tree's n - 1 shuffle words, and each turn yields the chunk and a
    # flat list of its ids.  A batch holds both draws of every tree, and
    # _draw_chunk keeps it only if no word is within n or the largest
    # range's size of 2**64; otherwise both are drawn tree by tree.
    n, wide = len(sequence), type(sequence) is list
    container = bytearray if n > _BYTE_NODES else list
    bounds, per_chunk = range(n, 1, -1), max(1, _CHUNK_WORDS // max(1, n - 1))
    width = 2 * n - 1 if labels else n - 1
    top = max(map(len, labels.values())) if labels else 0
    for start in range(0, count, per_chunk):
        rows = min(per_chunk, count - start)
        batch, draws = _draw_chunk(source, bounds, rows, width, top)
        marks = [] if batch is None or not labels else batch[:, n - 1 :]
        rotated = batch is None or wide
        if rotated:
            flat = []
            for row in draws:
                shuffled = _swapped(list(sequence), row)
                code = rotate(shuffled, find_rotation_point(shuffled))
                flat += code
                if labels and batch is None:
                    ranges = map(labels.__getitem__, code)
                    marks += [r[source.next_below(len(r))] for r in ranges]
            flat = flat if wide else bytes(flat)
        elif len(batch) >= _COLUMN_ROWS:
            flat = _column_table(sequence, batch[:, : n - 1])
        else:
            flat = bytearray().join(bytearray(_swapped(container(sequence), row)) for row in draws)
        del batch, draws
        if not rotated:
            flat = _rotated(flat, n)
        if labels and type(marks) is not list:  # else ids drawn tree by tree above
            marks = _label_ids(marks, flat, labels)
        yield (flat, marks) if labels else flat


def _label_ids(words, flat, labels):
    # The label ids of a chunk's rotated codes flat from its raw label words,
    # which _draw_chunk has checked against the largest range, as a flat list.
    import numpy as np

    degrees = sorted(labels)
    codes = np.array(flat) if type(flat) is list else np.frombuffer(flat, dtype=np.uint8)
    at = np.searchsorted(degrees, codes).reshape(words.shape)
    words %= np.array([len(labels[d]) for d in degrees], dtype=np.uint64)[at]
    words += np.array([labels[d].start for d in degrees], dtype=np.uint64)[at]
    return words.reshape(-1).tolist()


def _column_table(sequence: bytes, draws):
    # The shuffles _swapped makes from the rows of draws, a uint64 array, as
    # a (rows, n) uint8 array.  Each swap runs across every row: position i
    # of all trees is the contiguous row columns[i], and draw j of row r
    # indexes the flat array at j * rows + r.
    import numpy as np

    rows, n = draws.shape[0], len(sequence)
    columns = np.empty((n, rows), dtype=np.uint8)
    columns[:] = np.frombuffer(sequence, dtype=np.uint8)[:, None]
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
