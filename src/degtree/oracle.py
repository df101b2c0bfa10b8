"""Exhaustive enumeration and exact counting of trees for a degree multiset.

Ground truth for the sampler: enumeration walks every distinct permutation
of the degree list and keeps the well-formed ones, while ``count_trees``
evaluates the closed form ``(n! / prod(m_d!)) / n`` in exact integer
arithmetic, the multinomial as a product of binomial coefficients.  The
test suite holds the two routes equal over a full sweep of small
multisets before either is trusted.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Iterable, Iterator

from .degrees import DegreeMultiset, is_well_formed
from .errors import EnumerationTooLargeError, NotConstructibleError

#: Node-count ceiling for exhaustive enumeration; 10 keeps the walk under
#: 10! distinct permutations.
DEFAULT_ENUMERATION_BOUND = 10


def distinct_permutations(values: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """Yield each distinct permutation of ``values`` once, in lexicographic order.

    Classic in-place next-permutation stepping; repeated input values
    produce no repeated outputs, so a multiset of n values yields
    ``n! / prod(multiplicity!)`` tuples rather than ``n!``.
    """
    seq = sorted(values)
    n = len(seq)
    while True:
        yield tuple(seq)
        pivot = n - 2
        while pivot >= 0 and seq[pivot] >= seq[pivot + 1]:
            pivot -= 1
        if pivot < 0:
            return
        partner = n - 1
        while seq[partner] <= seq[pivot]:
            partner -= 1
        seq[pivot], seq[partner] = seq[partner], seq[pivot]
        seq[pivot + 1 :] = reversed(seq[pivot + 1 :])


def enumerate_trees(
    multiset: DegreeMultiset, bound: int = DEFAULT_ENUMERATION_BOUND
) -> set[tuple[int, ...]]:
    """The set of ALL distinct well-formed codes over ``multiset``.

    Computed by filtering every distinct permutation of the degree list,
    so the node count is guarded by ``bound``.  A non-constructible
    multiset yields the empty set.

    Raises:
        EnumerationTooLargeError: if ``multiset.total_nodes > bound``.
    """
    if multiset.total_nodes > bound:
        raise EnumerationTooLargeError(multiset.total_nodes, bound)
    return {
        p for p in distinct_permutations(multiset.to_sequence()) if is_well_formed(p)
    }


def count_trees(multiset: DegreeMultiset) -> int:
    """Exact number of distinct trees matching ``multiset``.

    Evaluates ``(n! / prod(m_d!)) / n``: the numerator counts the
    pairwise-different orderings of the degree list, and exactly one
    ordering in n is well-formed.  The numerator is built as the product
    of ``comb(m_1 + ... + m_i, m_i)``, which places each degree's copies
    among the slots filled so far; the division by n is checked to be
    exact.  Arbitrary-precision integers keep large multisets exact too.

    Raises:
        NotConstructibleError: if the multiset charge differs from 1.
    """
    total_charge = multiset.charge
    if total_charge != 1:
        raise NotConstructibleError(total_charge)
    n = multiset.total_nodes
    orderings = 1
    placed = 0
    for multiplicity in multiset.counts.values():
        placed += multiplicity
        orderings *= comb(placed, multiplicity)
    count, remainder = divmod(orderings, n)
    if remainder:
        raise RuntimeError(f"ordering count not divisible by {n}; invariant broken")
    return count


def catalan(n: int) -> int:
    """n-th Catalan number ``(2n)! / (n! (n+1)!)``, exactly.

    Counts the binary trees with n internal (outdegree-2) nodes, i.e.
    ``count_trees({0: n + 1, 2: n})``.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return factorial(2 * n) // (factorial(n) * factorial(n + 1))


def binary_leaf_count(internal_nodes: int) -> int:
    """Leaves needed to close ``internal_nodes`` outdegree-2 nodes into a tree.

    Solving ``charge + leaves = 1`` with every internal node contributing
    ``1 - 2`` gives ``internal_nodes + 1``.
    """
    if internal_nodes < 0:
        raise ValueError(f"internal_nodes must be non-negative, got {internal_nodes}")
    return internal_nodes + 1
