import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import brute_well_formed
from degtree import (
    ChargeNotOneError,
    DegreeMultiset,
    NotConstructibleError,
    RandomSource,
    decompose,
    enumerate_trees,
    find_rotation_point,
    fisher_yates_shuffle,
    is_well_formed,
    rotate,
    sample_tree,
)
from degtree.rng import _GOLDEN, _MIX1, _MIX2
from degtree.sampling import _rotation_point_vectorized


class ScriptedSource:
    """Plays back a fixed script of next_below results."""

    def __init__(self, script):
        self.script = list(script)

    def next_below(self, bound):
        value = self.script.pop(0)
        assert 0 <= value < bound
        return value


def _unmix(word):
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
    """Hides the RandomSource type so the generic shuffle path runs."""

    def __init__(self, seed):
        self._source = RandomSource(seed)

    def next_below(self, bound):
        return self._source.next_below(bound)


class TestShuffle:
    def test_trivial(self):
        source = RandomSource(1)
        assert fisher_yates_shuffle([], source) == []
        assert fisher_yates_shuffle([5], source) == [5]

    def test_input_not_mutated(self):
        values = [1, 2, 3, 4]
        fisher_yates_shuffle(values, RandomSource(3))
        assert values == [1, 2, 3, 4]

    def test_all_draw_paths_hit_each_arrangement_equally(self):
        # n = 3 consumes next_below(3) then next_below(2): 6 paths total.
        counts = {}
        for draws in itertools.product(range(3), range(2)):
            result = tuple(fisher_yates_shuffle([0, 0, 2], ScriptedSource(draws)))
            counts[result] = counts.get(result, 0) + 1
        assert counts == {(0, 0, 2): 2, (0, 2, 0): 2, (2, 0, 0): 2}

    def test_all_draw_paths_give_distinct_permutations(self):
        seen = set()
        for draws in itertools.product(range(3), range(2)):
            seen.add(tuple(fisher_yates_shuffle([1, 2, 3], ScriptedSource(draws))))
        assert seen == set(itertools.permutations([1, 2, 3]))

    @given(st.lists(st.integers(0, 5), max_size=40), st.integers(0, 2**32))
    def test_preserves_multiset(self, values, seed):
        shuffled = fisher_yates_shuffle(values, RandomSource(seed))
        assert sorted(shuffled) == sorted(values)

    @pytest.mark.parametrize("size", [1023, 1024, 1025, 5000])
    def test_batched_path_equals_scalar_path(self, size):
        # sizes straddle the vectorisation threshold; both paths must
        # consume the identical word stream and return identical results
        values = list(range(size))
        fast = fisher_yates_shuffle(values, RandomSource(420))
        slow = fisher_yates_shuffle(values, ScalarOnly(420))
        assert fast == slow

    def test_rejection_fallback_equals_scalar_path(self):
        # the seed's first word is 2**64 - 1, which next_below(1025)
        # rejects, so the batched draw must rewind and redraw
        seed = (_unmix(2**64 - 1) - _GOLDEN) % 2**64
        assert RandomSource(seed).next_word() == 2**64 - 1
        fast, slow = RandomSource(seed), ScalarOnly(seed)
        assert fisher_yates_shuffle(range(1025), fast) == fisher_yates_shuffle(
            range(1025), slow
        )
        assert fast.next_word() == slow._source.next_word()

    def test_default_source_shuffles_uniformly(self):
        source = RandomSource(1)
        counts = {}
        runs = 24000
        for _ in range(runs):
            key = tuple(fisher_yates_shuffle([0, 1, 2, 3], source))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 24
        expected = runs / 24
        chi_square = sum((c - expected) ** 2 / expected for c in counts.values())
        # 0.995 quantile of chi-square with 23 degrees of freedom
        assert chi_square < 44.18, counts


class TestFindRotationPoint:
    def test_examples(self):
        assert find_rotation_point([0, 2, 0]) == 1
        assert find_rotation_point([3, 1, 0, 2, 0, 0, 0]) == 7
        assert find_rotation_point([0, 0, 0, 0, 1, 2, 3]) == 4

    def test_rejects_other_charges(self):
        with pytest.raises(ChargeNotOneError) as info:
            find_rotation_point([2, 0])
        assert info.value.charge == 0
        with pytest.raises(ChargeNotOneError):
            find_rotation_point([])
        with pytest.raises(ChargeNotOneError) as info:  # the vectorised path
            find_rotation_point([0] * 2000)
        assert info.value.charge == 2000
        with pytest.raises(ChargeNotOneError) as info:  # int64 sums wrap to 1
            find_rotation_point([2**63 - 1, 2**63 - 1, 1504] + [0] * 1500)
        assert info.value.charge == 1 - 2**64

    def test_matches_decomposition_exhaustively(self, charge_one_family):
        for seq in charge_one_family:
            k = decompose(seq).complete_prefix_length
            assert 1 <= k <= len(seq)
            assert find_rotation_point(seq) == _rotation_point_vectorized(seq) == k

    def test_well_formed_input_is_fixpoint(self, well_formed_family):
        for seq in well_formed_family:
            assert find_rotation_point(seq) == len(seq)

    def test_large_input_uses_vector_path(self):
        # a long run of leaves then their operator: rotation point is the
        # position of the last complete leaf expression
        n = 5000
        seq = [0] * n + [n]
        assert find_rotation_point(seq) == n


class TestRotate:
    def test_examples(self):
        assert rotate([0, 2, 0], 1) == [2, 0, 0]
        assert rotate([3, 1, 0, 2, 0, 0, 0], 7) == [3, 1, 0, 2, 0, 0, 0]
        rotated = rotate([0, 0, 0, 0, 1, 2, 3], 4)
        assert rotated == [1, 2, 3, 0, 0, 0, 0]
        assert is_well_formed(rotated)

    def test_edge_rotations_are_identity(self):
        assert rotate([1, 2, 3], 0) == [1, 2, 3]
        assert rotate([1, 2, 3], 3) == [1, 2, 3]
        assert rotate([], 0) == []

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            rotate([1, 2], -1)
        with pytest.raises(IndexError):
            rotate([1, 2], 3)

    def test_accepts_tuples(self):
        assert rotate((0, 2, 0), 1) == [2, 0, 0]

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=30), st.data())
    def test_preserves_and_inverts(self, values, data):
        k = data.draw(st.integers(0, len(values)))
        rotated = rotate(values, k)
        assert len(rotated) == len(values)
        assert sorted(rotated) == sorted(values)
        assert rotate(rotated, len(values) - k) == values


class TestCorrection:
    def test_rotation_fixes_every_charge_one_sequence(self, charge_one_family):
        for seq in charge_one_family:
            assert is_well_formed(rotate(seq, find_rotation_point(seq))), seq

    def test_non_identity_rotations_break_well_formedness(self, well_formed_family):
        for seq in well_formed_family:
            for k in range(1, len(seq)):
                assert not is_well_formed(rotate(seq, k)), (seq, k)

    def test_all_rotations_distinct(self, charge_one_family):
        # a repeating period would force the charge to be a multiple of
        # the period count, impossible at charge 1
        for seq in charge_one_family:
            n = len(seq)
            assert len({tuple(rotate(seq, k)) for k in range(n)}) == n, seq


class TestSampleTree:
    def test_single_node(self):
        for seed in range(5):
            assert sample_tree(DegreeMultiset({0: 1}), RandomSource(seed)) == [0]

    def test_unique_tree_is_forced(self):
        multiset = DegreeMultiset({0: 2, 2: 1})
        for seed in range(20):
            assert sample_tree(multiset, RandomSource(seed)) == [2, 0, 0]

    def test_output_is_always_a_valid_code(self):
        multiset = DegreeMultiset({0: 4, 1: 1, 2: 1, 3: 1})
        outcomes = enumerate_trees(multiset)
        expansion = multiset.to_sequence()
        for seed in range(50):
            code = sample_tree(multiset, RandomSource(seed))
            assert tuple(code) in outcomes
            assert sorted(code) == expansion

    def test_not_constructible(self):
        with pytest.raises(NotConstructibleError) as info:
            sample_tree(DegreeMultiset({0: 1, 2: 1}), RandomSource(1))
        assert info.value.charge == 0

    def test_deterministic_for_seed_and_multiset(self):
        multiset = DegreeMultiset({0: 7, 1: 2, 2: 3, 4: 1})
        again = DegreeMultiset.from_degrees([4, 2, 2, 2, 1, 1] + [0] * 7)
        assert multiset == again
        first = sample_tree(multiset, RandomSource(99))
        second = sample_tree(again, RandomSource(99))
        assert first == second

    def test_large_sample_is_well_formed(self):
        # crosses the batched-shuffle and vectorised-scan thresholds
        multiset = DegreeMultiset({0: 60001, 1: 7, 2: 60000})
        code = sample_tree(multiset, RandomSource(8))
        assert len(code) == 120008
        assert is_well_formed(code)
        assert sorted(code) == multiset.to_sequence()
        assert sample_tree(multiset, RandomSource(8)) == code

    def test_small_empirical_uniformity(self):
        # two-outcome space: both trees should appear in similar numbers
        multiset = DegreeMultiset({0: 3, 2: 2})
        counts = {(2, 0, 2, 0, 0): 0, (2, 2, 0, 0, 0): 0}
        source = RandomSource(12)
        n = 4000
        for _ in range(n):
            counts[tuple(sample_tree(multiset, source))] += 1
        assert sum(counts.values()) == n
        assert min(counts.values()) > n / 2 - 200  # ~6 sigma


def test_brute_force_agreement_spot_check(charge_one_family):
    # rotation correction must land on the same code the recursive parser
    # accepts, not merely a charge-1 string
    for seq in charge_one_family[::97]:
        fixed = rotate(seq, find_rotation_point(seq))
        assert brute_well_formed(fixed)
