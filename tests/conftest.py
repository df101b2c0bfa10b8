"""Shared exhaustive families, independent brute-force oracles, and
random sources that expose which draw path ran.

``brute_parse`` consumes a code by the recursive definition of an
expression and is deliberately independent of both library criteria it is
used to cross-check (the prefix-charge test and the iterative decoder).
"""

import itertools
from math import comb

import pytest
from hypothesis import strategies as st

from degtree import DegreeMultiset, RandomSource
from degtree.rng import _MIX1, _MIX2

MAX_DEGREE = 4
MAX_LEN = 9


def unmix(word):
    """Inverse of splitmix64's finaliser ``rng._mix``."""

    def unshift(y, s):  # invert y = x ^ (x >> s)
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    z = unshift(word, 31) * pow(_MIX2, -1, 2**64) % 2**64
    z = unshift(z, 27) * pow(_MIX1, -1, 2**64) % 2**64
    return unshift(z, 30)


class ScalarOnly:
    """Hides the RandomSource type so the generic next_below draw path runs."""

    def __init__(self, seed):
        self._source = RandomSource(seed)

    def next_below(self, bound):
        return self._source.next_below(bound)


class RecordingSource(RandomSource):
    """A RandomSource that records its batch sizes and rewinds."""

    def __init__(self, seed):
        super().__init__(seed)
        self.batches = []
        self.rewinds = 0

    def next_words(self, n):
        self.batches.append(n)
        return super().next_words(n)

    def rewind(self, n):
        self.rewinds += 1
        super().rewind(n)


def brute_parse(code, start=0):
    """End index of the single expression starting at ``start``, or None."""
    if start >= len(code):
        return None
    position = start + 1
    for _ in range(code[start]):
        position = brute_parse(code, position)
        if position is None:
            return None
    return position


def brute_well_formed(code):
    return len(code) > 0 and brute_parse(tuple(code)) == len(code)


def all_sequences(max_len, max_degree):
    """Every degree sequence with 1 <= len <= max_len and entries <= max_degree."""
    for length in range(1, max_len + 1):
        yield from itertools.product(range(max_degree + 1), repeat=length)


def _fixed_sum_tuples(length, total, max_degree):
    if length == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, max_degree) + 1):
        for rest in _fixed_sum_tuples(length - 1, total - first, max_degree):
            yield (first,) + rest


def charge_one_sequences(max_len, max_degree):
    """The bounded family restricted to total charge exactly 1."""
    for length in range(1, max_len + 1):
        yield from _fixed_sum_tuples(length, length - 1, max_degree)


def constructible_multisets(max_nodes, max_degree):
    """Every degree multiset with charge 1 in the bounded family."""
    for n in range(1, max_nodes + 1):
        for combo in itertools.combinations_with_replacement(
            range(max_degree + 1), n
        ):
            if n - sum(combo) == 1:
                yield DegreeMultiset.from_degrees(combo)


def comb_chain_count(multiset):
    """``(n! / prod(m_d!)) / n`` as a product of binomial coefficients.

    The multinomial places each degree's copies among the slots filled so
    far; kept as a reference independent of the library's prime-exponent
    route.
    """
    orderings, placed = 1, 0
    for multiplicity in multiset.counts.values():
        placed += multiplicity
        orderings *= comb(placed, multiplicity)
    count, remainder = divmod(orderings, multiset.total_nodes)
    assert remainder == 0, multiset
    return count


def brute_trees(multiset):
    """Every well-formed code over ``multiset``, by filtering all orderings.

    A reference for the library's pruned walk; it takes ``n!`` steps.
    """
    orderings = set(itertools.permutations(multiset.to_sequence()))
    return {code for code in orderings if brute_well_formed(code)}


@st.composite
def constructible_multiset_strategy(draw, max_nodes, max_degree):
    """A charge-1 multiset of at most ``max_nodes`` nodes.

    The drawn internal degrees take multiplicities in increasing degree
    order until the node budget is spent; the leaves close the charge.
    """
    internal = draw(
        st.dictionaries(
            st.integers(1, max_degree), st.integers(1, max_nodes), max_size=6
        )
    )
    counts, budget = {}, max_nodes - 1
    for degree, multiplicity in sorted(internal.items()):
        multiplicity = min(multiplicity, budget // degree)
        if multiplicity:
            counts[degree] = multiplicity
            budget -= degree * multiplicity
    counts[0] = 1 + sum((degree - 1) * m for degree, m in counts.items())
    return DegreeMultiset(counts)


@pytest.fixture(scope="session")
def charge_one_family():
    """All 15,749 charge-1 sequences with length <= 9, degrees <= 4."""
    return list(charge_one_sequences(MAX_LEN, MAX_DEGREE))


@pytest.fixture(scope="session")
def well_formed_family(charge_one_family):
    """The 1,847 well-formed members of the charge-1 family."""
    return [s for s in charge_one_family if brute_well_formed(s)]
