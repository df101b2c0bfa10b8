import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import RecordingSource, ScalarOnly, brute_well_formed, unmix as _unmix
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
    sample_trees,
)
from degtree import rng, sampling
from degtree.rng import _GOLDEN
from degtree.sampling import _COLUMN_ROWS, _rotated, _swapped, _tree_chunks


class ScriptedSource:
    """Plays back a fixed script of next_below results."""

    def __init__(self, script):
        self.script = list(script)

    def next_below(self, bound):
        value = self.script.pop(0)
        assert 0 <= value < bound
        return value


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

    @pytest.mark.parametrize("size", [5, 40])
    def test_shuffles_items_of_any_kind(self, size):
        # strings, drawn by next_below and (40 items) in one batch, take the
        # same swaps as their positions
        words = [f"w{i}" for i in range(size)]
        shuffled = fisher_yates_shuffle(words, RandomSource(size))
        positions = fisher_yates_shuffle(range(size), RandomSource(size))
        assert shuffled == [words[i] for i in positions]

    @given(st.lists(st.integers(0, 5), max_size=40), st.integers(0, 2**32))
    def test_preserves_multiset(self, values, seed):
        shuffled = fisher_yates_shuffle(values, RandomSource(seed))
        assert sorted(shuffled) == sorted(values)

    @pytest.mark.parametrize("size", [1023, 1024, 1025, 5000])
    def test_batched_path_equals_scalar_path(self, size):
        # every size batches; both paths must consume the identical word
        # stream and return identical results
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

    def test_top_word_at_bound_two_is_kept_without_rewind(self):
        # the last word of a 1025-item shuffle is drawn below 2, which
        # rejects no word; 2**64 - 1 there exceeds 2**64 - 1025, so the
        # batch's max() check trips and the exact test must clear it
        seed = (_unmix(2**64 - 1) - 1024 * _GOLDEN) % 2**64
        assert RandomSource(seed).next_words(1024)[-1] == 2**64 - 1

        class NoRewind(RandomSource):
            def rewind(self, n):
                raise AssertionError(f"rewound {n} words")

        fast, slow = NoRewind(seed), ScalarOnly(seed)
        assert fisher_yates_shuffle(range(1025), fast) == fisher_yates_shuffle(
            range(1025), slow
        )
        assert fast.words_consumed == slow._source.words_consumed == 1024

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
        with pytest.raises(ChargeNotOneError) as info:
            find_rotation_point([0] * 2000)
        assert info.value.charge == 2000
        with pytest.raises(ChargeNotOneError) as info:  # exact, not int64-wrapped
            find_rotation_point([2**63 - 1, 2**63 - 1, 1504] + [0] * 1500)
        assert info.value.charge == 1 - 2**64

    def test_matches_decomposition_exhaustively(self, charge_one_family):
        # identity draws (j = i) leave seq in place, so the table kernel
        # rotates seq itself: all of one length as one table, and each
        # as a table of one row, into one run of bytes
        by_length = {}
        for seq in charge_one_family:
            k = decompose(seq).complete_prefix_length
            assert 1 <= k <= len(seq)
            assert find_rotation_point(seq) == k
            assert _swapped(list(seq), range(len(seq) - 1, 0, -1)) == list(seq)
            assert _rotated(bytearray(seq), len(seq)) == bytes(rotate(seq, k))
            by_length.setdefault(len(seq), []).append(seq)
        for n, family in by_length.items():
            rotated = (rotate(seq, find_rotation_point(seq)) for seq in family)
            assert _rotated(np.array(family, dtype=np.uint8), n) == bytes(itertools.chain.from_iterable(rotated))

    def test_well_formed_input_is_fixpoint(self, well_formed_family):
        for seq in well_formed_family:
            assert find_rotation_point(seq) == len(seq)

    def test_long_leaf_run(self):
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
        # a batched shuffle of 120 008 nodes
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


def _binary_multiset(n):
    """An n-node charge-1 multiset of leaves, binary nodes and one unary."""
    binary, unary = divmod(n - 1, 2)
    counts = {0: n - binary - unary, 1: unary, 2: binary}
    return DegreeMultiset({d: m for d, m in counts.items() if m})


class TestSampleTrees:
    @pytest.mark.parametrize("size", [*range(1, 61), 1023, 1024, 5000])
    def test_equals_sequential_sample_tree(self, size):
        multiset = _binary_multiset(size)
        for count in (0, 1, 2, 143, 1000):
            batched, sequential = RandomSource(size), RandomSource(size)
            trees = list(sample_trees(multiset, batched, count))
            assert trees == [sample_tree(multiset, sequential) for _ in range(count)]
            assert batched.words_consumed == sequential.words_consumed

    @pytest.mark.parametrize("size", [10, 40])
    def test_chunk_boundaries_keep_the_stream(self, size, monkeypatch):
        # 50-word chunks: 5 rows of 10 nodes (the last chunk of 3 rows is
        # too small to batch), or one 40-node row per chunk
        monkeypatch.setattr(sampling, "_CHUNK_WORDS", 50)
        multiset = _binary_multiset(size)
        batched, sequential = RecordingSource(3), RandomSource(3)
        trees = list(sample_trees(multiset, batched, 143))
        assert trees == [sample_tree(multiset, sequential) for _ in range(143)]
        assert batched.words_consumed == sequential.words_consumed
        assert batched.rewinds == 0
        assert batched.batches and max(batched.batches) <= max(50, size - 1)

    def test_rejection_inside_a_later_row_equals_scalar_path(self):
        # 4 rows of 9 words; word 21 (row 2, bound 7) is 2**64 - 1, which
        # next_below(7) rejects, so the whole batch is rewound and redrawn
        multiset = _binary_multiset(10)
        i = 21
        seed = (_unmix(2**64 - 1) - (i + 1) * _GOLDEN) % 2**64
        probe = RandomSource(seed)
        probe.next_words(i)
        assert probe.next_word() == 2**64 - 1
        fast, slow = RecordingSource(seed), ScalarOnly(seed)
        trees = list(sample_trees(multiset, fast, 4))
        assert trees == [sample_tree(multiset, slow) for _ in range(4)]
        assert fast.batches == [36] and fast.rewinds == 1
        assert fast.words_consumed == slow._source.words_consumed == 4 * 9 + 1
        assert fast.next_word() == slow._source.next_word()

    def test_trees_are_drawn_lazily(self):
        # a billion 10-node trees: the first comes after one chunk of words
        multiset = _binary_multiset(10)
        source = RandomSource(7)
        first = next(sample_trees(multiset, source, 10**9))
        assert first == sample_tree(multiset, RandomSource(7))
        assert source.words_consumed <= sampling._CHUNK_WORDS

    @pytest.mark.parametrize(
        "counts, count",
        # one 200 001-node tree, and a column chunk of 7281 10-node trees
        [({0: 100_001, 2: 100_000}, 1), ({0: 5, 1: 2, 2: 2, 3: 1}, 20_000)],
    )
    def test_holds_one_chunk(self, counts, count):
        # besides the chunk it hands on, the sampler holds the canonical
        # sequence as bytes: no list of it, no draws and no shuffled table
        multiset = DegreeMultiset(counts)
        next(_tree_chunks(multiset, RandomSource(2), count))  # numpy's first-call allocations
        tracemalloc.start()
        try:
            chunks = _tree_chunks(multiset, RandomSource(3), count)
            flat = next(chunks)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held / len(flat) < 4

    @pytest.mark.parametrize("size", [1023, 1024, 1025, 5000, 100_000])
    def test_equals_shuffle_then_rotate(self, size):
        # the swap loop's rotation point is the one find_rotation_point
        # gives on the same shuffle
        multiset = _binary_multiset(size)
        shuffled = fisher_yates_shuffle(multiset.to_sequence(), RandomSource(size))
        expected = rotate(shuffled, find_rotation_point(shuffled))
        assert sample_tree(multiset, RandomSource(size)) == expected

    def test_input_checks_draw_nothing(self):
        source = RandomSource(5)
        with pytest.raises(ValueError, match="non-negative"):
            sample_trees(_binary_multiset(50), source, -1)
        assert list(sample_trees(_binary_multiset(50), source, 0)) == []
        with pytest.raises(NotConstructibleError) as info:
            sample_trees(DegreeMultiset({0: 40, 2: 1}), source, 10)
        assert info.value.charge == 39
        assert source.words_consumed == 0

    @pytest.mark.parametrize("size", [*range(0, 70), 1025])
    def test_shuffle_batches_equal_scalar_path(self, size):
        # the shuffle batches from rng._BATCH_WORDS words up
        fast, slow = RandomSource(size), ScalarOnly(size)
        assert fisher_yates_shuffle(range(size), fast) == fisher_yates_shuffle(
            range(size), slow
        )
        assert fast.words_consumed == slow._source.words_consumed


def _cut(flat, n):
    """The n-node trees of a flat chunk, as lists."""
    return [list(flat[start : start + n]) for start in range(0, len(flat), n)]


def _record_tables(patch):
    """The (type, length) of each table the sampler hands _rotated, from now on."""
    tables = []

    def recorded(table, n, real=sampling._rotated):
        tables.append((type(table), len(table)))
        return real(table, n)

    patch.setattr(sampling, "_rotated", recorded)
    return tables


def _column_run(multiset, source, count):
    """The trees of sample_trees, and for each chunk whether the column kernel made it."""
    n, trees, columns, calls = multiset.total_nodes, [], [], []

    def recorded(sequence, draws, real=sampling._column_table):
        calls.append(len(draws))
        return real(sequence, draws)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampling, "_column_table", recorded)
        for flat in _tree_chunks(multiset, source, count):
            assert type(flat) is bytes
            trees += _cut(flat, n)
            columns.append(bool(calls))
            calls.clear()
    return trees, columns


@st.composite
def _charge_one_multisets(draw, widths):
    # n - 1 unit charges dealt to n nodes: every charge-1 multiset of n
    # nodes can come out
    n = draw(widths) + 1
    owners = draw(st.lists(st.integers(0, n - 1), min_size=n - 1, max_size=n - 1))
    return DegreeMultiset.from_degrees([owners.count(node) for node in range(n)])


class TestColumnKernel:
    # Batched chunks of bytes of at least 64 rows are shuffled by the column
    # kernel; ScalarOnly draws every tree through next_below and the row
    # loop.

    @given(_charge_one_multisets(st.integers(1, 40)), st.integers(0, 100), st.integers(0, 2**64 - 1))
    def test_equals_row_loop_on_one_stream(self, multiset, extra, seed):
        n = multiset.total_nodes
        count = _COLUMN_ROWS + extra
        column, scalar = RecordingSource(seed), ScalarOnly(seed)
        trees, columns = _column_run(multiset, column, count)
        assert columns == [True]
        assert trees == list(sample_trees(multiset, scalar, count))
        assert column.words_consumed == scalar._source.words_consumed == count * (n - 1)
        assert column.rewinds == 0

    @given(
        _charge_one_multisets(st.integers(1, 12)),
        st.integers(0, 600),
        st.integers(50, 200),
        st.integers(0, 2**64 - 1),
    )
    def test_chunk_seams_keep_the_stream(self, multiset, count, chunk_rows, seed):
        # chunks of 50 to 200 rows; one of fewer than 64 rows, or with too
        # few words for a batch, takes the row loop
        n = multiset.total_nodes
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sampling, "_CHUNK_WORDS", chunk_rows * (n - 1))
            column, scalar = RecordingSource(seed), ScalarOnly(seed)
            trees, columns = _column_run(multiset, column, count)
        assert trees == list(sample_trees(multiset, scalar, count))
        assert column.words_consumed == scalar._source.words_consumed
        sizes = [min(chunk_rows, count - start) for start in range(0, count, chunk_rows)]
        assert columns == [size >= _COLUMN_ROWS and size * (n - 1) >= rng._BATCH_WORDS for size in sizes]

    def test_rejection_inside_a_column_chunk_takes_the_row_loop(self):
        # 64 rows of 9 words; word 21 (row 2, bound 7) is 2**64 - 1, which
        # next_below(7) rejects, so the batch is rewound and its rows drawn
        # by next_below, with no second batch
        multiset = _binary_multiset(10)
        i = 21
        seed = (_unmix(2**64 - 1) - (i + 1) * _GOLDEN) % 2**64
        probe = RandomSource(seed)
        probe.next_words(i)
        assert probe.next_word() == 2**64 - 1
        fast, slow = RecordingSource(seed), ScalarOnly(seed)
        trees, columns = _column_run(multiset, fast, 64)
        assert trees == list(sample_trees(multiset, slow, 64))
        assert columns == [False]
        assert fast.batches == [64 * 9] and fast.rewinds == 1
        assert fast.words_consumed == slow._source.words_consumed == 64 * 9 + 1
        assert fast.next_word() == slow._source.next_word()

    @pytest.mark.parametrize(
        "size, count, column",
        # just below and at the crossover, whatever the width: rows of
        # 10-node trees, then rows of 100-node trees
        [(10, 63, False), (10, 64, True), (100, 63, False), (100, 64, True)],
    )
    def test_the_row_loop_takes_chunks_below_the_crossover(self, size, count, column):
        multiset = _binary_multiset(size)
        fast, slow = RecordingSource(4), ScalarOnly(4)
        trees, columns = _column_run(multiset, fast, count)
        assert trees == list(sample_trees(multiset, slow, count))
        assert columns == [column] and fast.batches == [count * (size - 1)]

    def test_fewer_rows_than_nodes(self):
        # 65 rows of 1000-node trees, 64 935 words: one chunk
        multiset = _binary_multiset(1000)
        fast, slow = RecordingSource(13), ScalarOnly(13)
        trees, columns = _column_run(multiset, fast, 65)
        assert columns == [True] and fast.batches == [65 * 999]
        assert trees == list(sample_trees(multiset, slow, 65))

    def test_widest_column_chunk_holds_a_degree_of_255(self):
        # 256 rows of 255 words fill one chunk, with the widest degree that
        # fits a byte
        multiset = DegreeMultiset({0: 255, 255: 1})
        fast, slow = RecordingSource(6), ScalarOnly(6)
        trees, columns = _column_run(multiset, fast, 256)
        assert columns == [True]
        assert trees == list(sample_trees(multiset, slow, 256))
        assert all(tree[0] == 255 for tree in trees)


def _shuffled_then_rotated(multiset, source, count):
    """count trees by the public stages, each drawn from source in turn."""
    sequence = multiset.to_sequence()
    for _ in range(count):
        shuffled = fisher_yates_shuffle(sequence, source)
        yield rotate(shuffled, find_rotation_point(shuffled))


@st.composite
def _wide_multisets(draw):
    # widths 1-300, and a few with one degree above 255
    if draw(st.integers(0, 9)):
        return draw(_charge_one_multisets(st.integers(1, 299)))
    top = draw(st.integers(256, 298))
    unary = draw(st.integers(0, 299 - top))
    return DegreeMultiset({d: m for d, m in {0: top, 1: unary, top: 1}.items() if m})


class TestTableKernel:
    # Every batched chunk with degrees below 256 is one uint8 table whose rows
    # one numpy step rotates into bytes; every other chunk rotates tree by
    # tree, into bytes or, with a degree above 255, a list.  All give the
    # trees of the public shuffle, rotation point and rotation, drawn one
    # after another by next_below.

    @given(
        multiset=_wide_multisets(),
        count=st.integers(1, 30),
        chunk_words=st.integers(32, 3000),
        byte_nodes=st.integers(0, 300),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(DegreeMultiset({0: 255, 255: 1}), 2, 255, 0, 3)  # two 1-row chunks of bytes
    @example(DegreeMultiset({0: 299, 299: 1}), 3, 3000, 0, 3)  # a degree above 255 in one batch
    def test_equals_shuffle_then_rotate(self, multiset, count, chunk_words, byte_nodes, seed):
        # chunk seams wherever chunk_words puts them; trees of more than
        # byte_nodes nodes are swapped in a bytearray
        n = multiset.total_nodes
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sampling, "_CHUNK_WORDS", chunk_words)
            patch.setattr(sampling, "_BYTE_NODES", byte_nodes)
            tables = _record_tables(patch)
            fast = RecordingSource(seed)
            chunks = list(_tree_chunks(multiset, fast, count))
        sampled = list(sample_trees(multiset, RandomSource(seed), count))
        slow = ScalarOnly(seed)
        kind = bytes if max(multiset.counts) <= 255 else list
        assert all(type(flat) is kind for flat in chunks)
        per = max(1, chunk_words // (n - 1))  # trees a chunk
        assert [len(flat) for flat in chunks] == [n * min(per, count - start) for start in range(0, count, per)]
        trees = [tree for flat in chunks for tree in _cut(flat, n)]
        assert trees == list(_shuffled_then_rotated(multiset, slow, count)) == sampled
        assert all(type(tree) is list and type(tree[0]) is int for tree in sampled)
        assert fast.words_consumed == slow._source.words_consumed == count * (n - 1)
        assert len(tables) == (len(fast.batches) if kind is bytes else 0)

    def test_rewound_chunk_rotates_tree_by_tree(self, monkeypatch):
        # chunks of one row; the seed's first word is 2**64 - 1, which
        # next_below(1025) rejects, so the first chunk is rewound and drawn
        # by next_below, and the second is one batch
        monkeypatch.setattr(sampling, "_CHUNK_WORDS", 1024)
        tables = _record_tables(monkeypatch)
        seed = (_unmix(2**64 - 1) - _GOLDEN) % 2**64
        multiset = _binary_multiset(1025)
        fast, slow = RecordingSource(seed), ScalarOnly(seed)
        chunks = _tree_chunks(multiset, fast, 2)
        first = next(chunks)
        assert tables == [] and fast.rewinds == 1
        second = next(chunks)
        assert tables == [(bytearray, 1025)] and next(chunks, None) is None
        assert fast.rewinds == 1 and fast.batches == [1024, 1024]
        assert type(first) is type(second) is bytes
        assert [list(first), list(second)] == list(_shuffled_then_rotated(multiset, slow, 2))
        assert fast.words_consumed == slow._source.words_consumed == 2 * 1024 + 1

    def test_one_row_chunk_of_bytes(self, monkeypatch):
        # 2001 nodes past a lowered byte threshold: one row swapped in a
        # bytearray, rotated by two slices
        monkeypatch.setattr(sampling, "_BYTE_NODES", 2000)
        tables = _record_tables(monkeypatch)
        multiset = _binary_multiset(2001)
        fast, slow = RecordingSource(9), ScalarOnly(9)
        (flat,) = _tree_chunks(multiset, fast, 1)
        assert tables == [(bytearray, 2001)] and fast.batches == [2000]
        assert type(flat) is bytes
        assert [list(flat)] == list(_shuffled_then_rotated(multiset, slow, 1))


class TestPrefixLawPastEnumeration:
    # Raney's lemma gives the exact law of the next symbol of a uniform tree:
    # with k subtrees open and r > 1 symbols left, counted by c, it is d with
    # probability (k - 1 + d) * c[d] / (k * (r - 1)).  At the root (k = 1,
    # r = n) that is d * m[d] / (n - 1).  The multiset, tree count, seed and
    # alpha were fixed before the first run.
    MULTISET = {0: 651, 1: 500, 2: 300, 3: 100, 4: 50}  # 1601 nodes
    TREES = 3000
    # 0.999 quantile of chi-square with 18 degrees of freedom (scipy: 42.312)
    CHI_SQUARE_999_DF18 = 42.31

    def law(self):
        # exact probability of each possible (root, second symbol) pair
        n = sum(self.MULTISET.values())
        cells = {}
        for k, m in self.MULTISET.items():
            if not k:
                continue  # a leaf is no root of a tree with more nodes
            root = Fraction(k * m, n - 1)
            for e, c in {**self.MULTISET, k: m - 1}.items():
                second = Fraction((k - 1 + e) * c, k * (n - 2))
                if second:
                    cells[k, e] = root * second
        return cells

    def test_first_two_symbols_follow_the_exact_law(self):
        law = self.law()
        assert sum(law.values()) == 1 and len(law) == 19
        expected = {cell: self.TREES * p for cell, p in law.items()}
        assert min(expected.values()) >= 20
        source = RecordingSource(1)
        trees = sample_trees(DegreeMultiset(self.MULTISET), source, self.TREES)
        observed = Counter(tuple(tree[:2]) for tree in trees)
        # drawn by the batch branch, 40 trees of 1600 draws per chunk
        assert source.batches[0] == 40 * 1600 and source.rewinds == 0
        assert set(observed) <= set(law)
        chi_square = sum((observed[cell] - e) ** 2 / e for cell, e in expected.items())
        assert chi_square < self.CHI_SQUARE_999_DF18, observed


def test_brute_force_agreement_spot_check(charge_one_family):
    # rotation correction must land on the same code the recursive parser
    # accepts, not merely a charge-1 string
    for seq in charge_one_family[::97]:
        fixed = rotate(seq, find_rotation_point(seq))
        assert brute_well_formed(fixed)
