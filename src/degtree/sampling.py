"""Uniform sampling of ordered trees with a prescribed degree multiset.

Pipeline: expand the multiset to its canonical ascending sequence,
Fisher-Yates shuffle it, then rotate at the unique point that leaves a
well-formed preorder code.  Among the cyclic rotations of a charge-1
sequence exactly one is well-formed (the cycle lemma), and every tree is
hit by equally many shuffles, so the output is uniform over all trees
satisfying the multiset.  Each stage is linear in the node count.

Each stage has one kernel.  The shuffle's single swap loop takes its
draws from ``next_below``, or from one numpy batch over the same words
for a :class:`RandomSource` of ``_VECTOR_THRESHOLD`` or more nodes.  The
rotation point is the first peak of the prefix charge, scanned in Python
below that size and found by ``cumsum``/``argmax`` above it.

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


def fisher_yates_shuffle(degrees: Sequence[int], source) -> list[int]:
    """Return a uniformly shuffled copy of ``degrees`` in O(n).

    ``source`` needs only a ``next_below(bound)`` method; indices are
    drawn back to front, one draw per position, so a stub source scripted
    with ``len(degrees) - 1`` values walks every permutation path exactly
    once.  A :class:`RandomSource` additionally gets its draws computed in
    one numpy batch that consumes the identical word stream.
    """
    values = list(degrees)
    n = len(values)
    draws = None
    if n >= _VECTOR_THRESHOLD and isinstance(source, RandomSource):
        draws = _batched_draws(n, source)
    if draws is None:
        draws = [source.next_below(bound) for bound in range(n, 1, -1)]
    for i, j in zip(range(n - 1, 0, -1), draws):
        values[i], values[j] = values[j], values[i]
    return values


def _batched_draws(n: int, source: RandomSource) -> list[int] | None:
    # One word per position, in next_below's order.  If any word lands in
    # a rejection zone (probability < n**2 / 2**64) the batch is rewound
    # and None returned, so the caller redraws on the same stream.
    words = source.next_words(n - 1)
    bounds = np.arange(n, 1, -1, dtype=np.uint64)
    remainders = (np.uint64(0) - bounds) % bounds  # 2**64 mod bound
    thresholds = np.uint64(0) - remainders  # wraps to 0 when bound divides 2**64
    if ((remainders != np.uint64(0)) & (words >= thresholds)).any():
        source.rewind(n - 1)
        return None
    return (words % bounds).tolist()


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
    total = multiset.charge
    if total != 1:
        raise NotConstructibleError(total)
    shuffled = fisher_yates_shuffle(multiset.to_sequence(), source)
    return rotate(shuffled, find_rotation_point(shuffled))
