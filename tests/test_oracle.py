import contextlib
import decimal
import io
import itertools
from math import factorial

import pytest
from hypothesis import given

from conftest import (
    brute_trees,
    brute_well_formed,
    comb_chain_count,
    constructible_multiset_strategy,
    constructible_multisets,
)
from degtree import (
    ChargeNotOneError,
    DegreeMultiset,
    EnumerationTooLargeError,
    NotConstructibleError,
    binary_leaf_count,
    catalan,
    count_trees,
    enumerate_trees,
    is_constructible,
    is_well_formed,
)
from degtree.cli import main


class TestEnumerateTrees:
    def test_examples(self):
        assert enumerate_trees(DegreeMultiset({0: 2, 2: 1})) == [(2, 0, 0)]
        assert enumerate_trees(DegreeMultiset({0: 3, 2: 2})) == [
            (2, 0, 2, 0, 0),
            (2, 2, 0, 0, 0),
        ]
        assert enumerate_trees(DegreeMultiset({0: 1, 1: 1})) == [(1, 0)]

    def test_mixed_arity_instance(self):
        outcomes = enumerate_trees(DegreeMultiset({0: 4, 1: 1, 2: 1, 3: 1}))
        assert len(outcomes) == 30
        assert (3, 1, 0, 2, 0, 0, 0) in outcomes

    def test_every_outcome_is_well_formed(self):
        for code in enumerate_trees(DegreeMultiset({0: 4, 1: 1, 2: 1, 3: 1})):
            assert brute_well_formed(code)

    def test_not_constructible_gives_empty_list(self):
        assert enumerate_trees(DegreeMultiset({0: 1, 2: 1})) == []
        assert enumerate_trees(DegreeMultiset({0: 3, 3: 2})) == []
        assert enumerate_trees(DegreeMultiset({0: 2})) == []

    def test_matches_brute_force_filter(self):
        for multiset in constructible_multisets(7, 4):
            assert enumerate_trees(multiset) == sorted(brute_trees(multiset)), multiset

    def test_long_unary_chain_does_not_recurse(self):
        chain = DegreeMultiset({0: 1, 1: 3000})
        assert enumerate_trees(chain, bound=3001) == [(1,) * 3000 + (0,)]

    def test_every_space_of_ten_nodes_in_order(self):
        # every degree a tree of at most 10 nodes can have
        for multiset in constructible_multisets(10, 9):
            codes = enumerate_trees(multiset)
            assert type(codes) is list, multiset
            assert all(a < b for a, b in zip(codes, codes[1:])), multiset
            for code in codes:
                assert is_well_formed(code), (multiset, code)
                assert DegreeMultiset.from_degrees(code) == multiset, (multiset, code)
            assert len(codes) == count_trees(multiset), multiset

    def test_broom_past_the_bound(self):
        # the unary nodes split above the binary one and in its two subtrees
        broom = DegreeMultiset({0: 2, 1: 60, 2: 1})
        codes = enumerate_trees(broom, bound=63)
        assert len(codes) == 1891 == count_trees(broom)
        assert all(is_well_formed(code) for code in codes)

    def test_size_bound(self):
        eleven = DegreeMultiset({0: 6, 2: 5})
        with pytest.raises(EnumerationTooLargeError) as info:
            enumerate_trees(eleven)
        assert info.value.total_nodes == 11
        assert info.value.bound == 10
        assert len(enumerate_trees(eleven, bound=11)) == count_trees(eleven)


def test_error_messages_past_the_int_string_limit():
    # str() of an int of more than 4300 digits raises from Python 3.11 on
    charge, nodes = -(10**8000), 10**4300
    assert f"charge -1{'0' * 8000}, expected 1" in str(NotConstructibleError(charge))
    assert f"charge -1{'0' * 8000}, expected 1" in str(ChargeNotOneError(charge))
    assert str(EnumerationTooLargeError(nodes, 10)).startswith(f"1{'0' * 4300} nodes exceeds")


class TestCountTrees:
    def test_examples(self):
        assert count_trees(DegreeMultiset({0: 1})) == 1
        assert count_trees(DegreeMultiset({0: 4, 1: 1, 2: 1, 3: 1})) == 30

    def test_not_constructible(self):
        with pytest.raises(NotConstructibleError) as info:
            count_trees(DegreeMultiset({0: 1, 2: 1}))
        assert info.value.charge == 0

    def test_matches_enumeration_for_small_multisets(self):
        for multiset in constructible_multisets(8, 4):
            assert count_trees(multiset) == len(enumerate_trees(multiset)), multiset

    def test_binary_multisets_give_catalan(self):
        for n in range(0, 9):
            assert count_trees(DegreeMultiset({0: n + 1, 2: n} if n else {0: 1})) == catalan(n)

    def test_big_values_stay_exact(self):
        # catalan(30) needs more than 64 bits
        assert count_trees(DegreeMultiset({0: 31, 2: 30})) == catalan(30)
        assert catalan(30) == 3814986502092304


def assert_count_equals_comb_chain(multiset):
    # both count_trees and the digits the count command prints; the
    # expected text goes through Decimal, as str(int) stops at 4300 digits
    expected = comb_chain_count(multiset)
    assert count_trees(multiset) == expected, multiset
    spec = ",".join(f"{degree}:{m}" for degree, m in multiset.counts.items())
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["count", "--degrees", spec]) == 0
    assert out.getvalue() == f"{decimal.Decimal(expected)}\n", multiset


class TestCountAgainstCombChain:
    def test_every_multiset_of_the_criterion_4_family(self):
        for multiset in constructible_multisets(9, 4):
            assert_count_equals_comb_chain(multiset)

    def test_one_and_two_nodes(self):
        assert_count_equals_comb_chain(DegreeMultiset({0: 1}))
        assert_count_equals_comb_chain(DegreeMultiset({0: 1, 1: 1}))

    def test_catalan_numbers(self):
        for k in range(301):
            binary = DegreeMultiset({0: k + 1, 2: k} if k else {0: 1})
            assert_count_equals_comb_chain(binary)
            assert count_trees(binary) == catalan(k)

    @given(constructible_multiset_strategy(max_nodes=3000, max_degree=40))
    def test_drawn_multisets(self, multiset):
        assert_count_equals_comb_chain(multiset)

    @pytest.mark.parametrize(
        "counts",
        [
            {0: 4801, 1: 3600, 2: 2400, 3: 1200},
            # the largest count of the oracle benchmark's sweep: 33 339 digits
            {0: 24001, 1: 17999, 2: 12000, 3: 6000},
            {0: 5812, 1: 1000, 2: 5000, 257: 2, 300: 1},
        ],
        ids=["12001-nodes", "60000-nodes", "degree-300"],
    )
    def test_counts_past_the_int_string_limit(self, counts):
        # every count here has more than 4300 digits, which str(int) refuses
        assert_count_equals_comb_chain(DegreeMultiset(counts))


class TestCatalan:
    def test_known_prefix(self):
        assert [catalan(n) for n in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]

    def test_enumeration_backs_small_values(self):
        assert len(enumerate_trees(DegreeMultiset({0: 4, 2: 3}))) == 5 == catalan(3)
        assert len(enumerate_trees(DegreeMultiset({0: 5, 2: 4}))) == 14 == catalan(4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            catalan(-1)


class TestBinaryLeafCount:
    def test_values(self):
        assert binary_leaf_count(0) == 1
        assert binary_leaf_count(3) == 4
        assert binary_leaf_count(10) == 11

    def test_counts_make_multisets_feasible(self):
        assert is_constructible(DegreeMultiset({0: 11, 2: 10}))
        assert not is_constructible(DegreeMultiset({0: 10, 2: 10}))
        assert not is_constructible(DegreeMultiset({0: 12, 2: 10}))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binary_leaf_count(-2)


def test_one_in_n_of_labeled_orderings_is_well_formed():
    # the rotation correspondence forces exactly (n-1)! of the n! labeled
    # orderings to be well-formed; spot-check small multisets directly
    for multiset in constructible_multisets(6, 4):
        expansion = multiset.to_sequence()
        n = multiset.total_nodes
        hits = sum(
            1 for p in itertools.permutations(expansion) if brute_well_formed(p)
        )
        assert hits == factorial(n) // n, multiset
