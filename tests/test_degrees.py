import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    MAX_DEGREE,
    all_sequences,
    brute_well_formed,
    constructible_multisets,
)
from degtree import (
    ChargeNotOneError,
    DegreeMultiset,
    SegmentDecomposition,
    charge,
    decompose,
    is_constructible,
    is_well_formed,
    prefix_charges,
)

degree_lists = st.lists(st.integers(min_value=0, max_value=6), max_size=30)


class TestCharge:
    def test_examples(self):
        assert charge([0]) == 1
        assert charge([0, 0, 0, 0, 1, 2, 3]) == 1
        assert charge([2, 0]) == 0
        assert charge([]) == 0

    @given(degree_lists, degree_lists)
    def test_additive_over_concatenation(self, a, b):
        assert charge(a + b) == charge(a) + charge(b)

    def test_huge_degrees_stay_exact(self):
        assert charge([10**30]) == 1 - 10**30


class TestPrefixCharges:
    def test_examples(self):
        assert prefix_charges([2, 0, 0]) == [-1, 0, 1]
        assert prefix_charges([0]) == [1]
        assert prefix_charges([0, 2, 0]) == [1, 0, 1]
        assert prefix_charges([]) == []

    @given(degree_lists)
    def test_last_element_is_total_charge(self, degrees):
        running = prefix_charges(degrees)
        assert len(running) == len(degrees)
        if degrees:
            assert running[-1] == charge(degrees)


class TestWellFormed:
    def test_examples(self):
        assert is_well_formed([3, 1, 0, 2, 0, 0, 0])
        assert is_well_formed([0])
        assert not is_well_formed([0, 2, 0])
        assert not is_well_formed([2, 0])
        assert not is_well_formed([])

    @given(degree_lists)
    def test_matches_recursive_definition(self, degrees):
        assert is_well_formed(degrees) == brute_well_formed(degrees)


class TestConstructible:
    def test_examples(self):
        assert is_constructible(DegreeMultiset({0: 1}))
        assert is_constructible(DegreeMultiset({0: 4, 1: 1, 2: 1, 3: 1}))
        assert not is_constructible(DegreeMultiset({0: 1, 2: 1}))

    def test_matches_existence_exhaustively(self):
        # Sweep every sequence with <= 8 nodes once, recording which degree
        # multisets admit at least one well-formed ordering; feasibility
        # must match that set exactly, in both directions.
        realizable = set()
        for seq in all_sequences(8, MAX_DEGREE):
            if brute_well_formed(seq):
                realizable.add(tuple(sorted(seq)))
        import itertools

        for n in range(1, 9):
            for combo in itertools.combinations_with_replacement(
                range(MAX_DEGREE + 1), n
            ):
                multiset = DegreeMultiset.from_degrees(combo)
                assert is_constructible(multiset) == (combo in realizable), combo


class TestDecompose:
    def test_examples(self):
        assert decompose([0, 2, 0]) == SegmentDecomposition(1, 1, 0)
        assert decompose([3, 1, 0, 2, 0, 0, 0]) == SegmentDecomposition(7, 1, 0)
        assert decompose([0, 0, 0, 0, 1, 2, 3]) == SegmentDecomposition(4, 4, -3)

    def test_rejects_other_charges(self):
        with pytest.raises(ChargeNotOneError) as info:
            decompose([2, 0])
        assert info.value.charge == 0
        with pytest.raises(ChargeNotOneError) as info:
            decompose([0, 0])
        assert info.value.charge == 2

    def test_consistency_exhaustive(self, charge_one_family):
        # The prefix must split into exactly h well-formed expressions under
        # the greedy shortest-first rule, and the tail must not begin with
        # any complete expression.  Checked against the recursive parser.
        for seq in charge_one_family:
            result = decompose(seq)
            k, h = result.complete_prefix_length, result.complete_expression_count
            assert result.tail_charge == 1 - h
            assert result.tail_charge == charge(seq[k:])
            if not is_well_formed(seq):
                assert h >= 1
            segments = 0
            start = 0
            while start < k:
                end = start + 1
                while not brute_well_formed(seq[start:end]):
                    end += 1
                    assert end <= k, (seq, start)
                segments += 1
                start = end
            assert segments == h, seq
            tail = seq[k:]
            assert not any(
                brute_well_formed(tail[:end]) for end in range(1, len(tail) + 1)
            ), seq

    def test_well_formed_input_is_single_segment(self, well_formed_family):
        for seq in well_formed_family:
            assert decompose(seq) == SegmentDecomposition(len(seq), 1, 0)


class TestSegmentDecomposition:
    # a plain class; the expected values are what it gave as a frozen dataclass
    FIELDS = ("complete_prefix_length", "complete_expression_count", "tail_charge")

    def test_repr(self):
        assert repr(decompose([0, 0, 0, 0, 1, 2, 3])) == (
            "SegmentDecomposition(complete_prefix_length=4, complete_expression_count=4, tail_charge=-3)"
        )

    def test_equality_and_hash(self):
        split = SegmentDecomposition(1, 1, 0)
        assert split == SegmentDecomposition(1, 1, 0)
        assert not split != SegmentDecomposition(1, 1, 0)
        assert split != SegmentDecomposition(1, 1, 1)
        assert split != (1, 1, 0) and not split == (1, 1, 0)
        assert split.__eq__((1, 1, 0)) is NotImplemented
        assert hash(split) == hash((1, 1, 0))
        assert len({split, SegmentDecomposition(1, 1, 0), SegmentDecomposition(4, 4, -3)}) == 2

    @pytest.mark.parametrize("field", FIELDS)
    def test_frozen(self, field):
        split = SegmentDecomposition(7, 1, 0)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(split, field, 2)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(split, field)
        with pytest.raises(AttributeError):
            split.other = 2
        assert split == SegmentDecomposition(7, 1, 0)

    def test_keywords_and_match(self):
        split = SegmentDecomposition(complete_prefix_length=4, complete_expression_count=4, tail_charge=-3)
        assert split == decompose([0, 0, 0, 0, 1, 2, 3])
        assert SegmentDecomposition.__match_args__ == self.FIELDS
        match split:
            case SegmentDecomposition(length, count, tail):
                assert (length, count, tail) == (4, 4, -3)
            case _:
                pytest.fail(f"{split!r} did not match")


class TestDegreeMultiset:
    def test_from_degrees_and_accessors(self):
        multiset = DegreeMultiset.from_degrees([2, 0, 0, 1, 0, 0, 3])
        assert multiset.counts == {0: 4, 1: 1, 2: 1, 3: 1}
        assert multiset.total_nodes == 7
        assert multiset.charge == 1
        assert multiset.to_sequence() == [0, 0, 0, 0, 1, 2, 3]

    def test_charge_matches_sequence_charge(self):
        for multiset in constructible_multisets(6, MAX_DEGREE):
            assert multiset.charge == charge(multiset.to_sequence()) == 1

    def test_equality_and_hash(self):
        a = DegreeMultiset({0: 2, 2: 1})
        b = DegreeMultiset.from_degrees([2, 0, 0])
        assert a == b
        assert hash(a) == hash(b)
        assert a != DegreeMultiset({0: 2, 3: 1})

    def test_validation(self):
        with pytest.raises(ValueError):
            DegreeMultiset({})
        with pytest.raises(ValueError):
            DegreeMultiset({-1: 2})
        with pytest.raises(ValueError):
            DegreeMultiset({0: 0})
        with pytest.raises(ValueError):
            DegreeMultiset({2: -3})
        with pytest.raises(TypeError):
            DegreeMultiset({0.5: 2})
        with pytest.raises(TypeError):
            DegreeMultiset({0: 1.5})

    def test_repr_round_trips_visually(self):
        assert repr(DegreeMultiset({2: 1, 0: 2})) == "DegreeMultiset({0: 2, 2: 1})"

    def test_repr_of_multiplicities_past_the_int_string_limit(self):
        # 4301 digits each, more than Python 3.11+ converts with str()
        big = 10**4300
        text = repr(DegreeMultiset({0: big, 2: big - 1}))
        assert text == "DegreeMultiset({0: 1" + "0" * 4300 + ", 2: " + "9" * 4300 + "})"
