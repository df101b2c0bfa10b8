"""Degree sequences, degree multisets, and the charge function.

A *degree sequence* is any sequence of non-negative integers, read as the
preorder outdegrees of tree nodes.  The *charge* of a sequence is
``len(s) - sum(s)``: each node contributes 1 minus its outdegree.  A
non-empty sequence encodes exactly one tree (it is *well-formed*) iff its
total charge is 1 and the charge of every proper prefix is at most 0.

Plain Python sequences stand in for degree sequences throughout the
package; only the multiset constraint gets a class of its own.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from itertools import accumulate
from operator import index

from .errors import ChargeNotOneError, _int_text, _Record


class DegreeMultiset:
    """Bag of node outdegrees with multiplicities.

    The multiset is the sampling constraint: a tree satisfies it when its
    nodes' outdegrees, counted with multiplicity, are exactly this bag.
    Multiplicities must be positive and the bag must not be empty.
    """

    __slots__ = ("_counts", "_total")

    def __init__(self, counts: Mapping[int, int]):
        cleaned: dict[int, int] = {}
        for degree, multiplicity in counts.items():
            degree, multiplicity = index(degree), index(multiplicity)
            if degree < 0:
                raise ValueError(f"outdegree must be non-negative, got {degree}")
            if multiplicity < 1:
                raise ValueError(f"multiplicity of degree {degree} must be positive, got {multiplicity}")
            cleaned[degree] = multiplicity
        if not cleaned:
            raise ValueError("degree multiset must contain at least one node")
        self._counts = dict(sorted(cleaned.items()))
        self._total = sum(cleaned.values())

    @classmethod
    def from_degrees(cls, degrees: Iterable[int]) -> "DegreeMultiset":
        """Build from an iterable listing one outdegree per node."""
        return cls(Counter(degrees))

    @property
    def counts(self) -> dict[int, int]:
        """Copy of the degree -> multiplicity map, keys ascending."""
        return dict(self._counts)

    @property
    def total_nodes(self) -> int:
        return self._total

    @property
    def charge(self) -> int:
        """Node count minus the sum of outdegrees; 1 iff a tree exists."""
        return self._total - sum(d * m for d, m in self._counts.items())

    def to_sequence(self) -> list[int]:
        """Expand to the canonical degree sequence (ascending by degree)."""
        out: list[int] = []
        for degree, multiplicity in self._counts.items():
            out.extend([degree] * multiplicity)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DegreeMultiset):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        return hash(tuple(self._counts.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{_int_text(d)}: {_int_text(m)}" for d, m in self._counts.items())
        return f"DegreeMultiset({{{inner}}})"


class SegmentDecomposition(_Record):
    """Split of a charge-1 sequence into complete tree codes plus a tail.

    ``complete_prefix_length`` is the number of leading symbols covered by
    complete codes, ``complete_expression_count`` how many such codes the
    prefix holds, and ``tail_charge`` the charge of what remains (always
    ``1 - complete_expression_count``).  Frozen and hashable.
    """

    __match_args__ = ("complete_prefix_length", "complete_expression_count", "tail_charge")

    def __init__(self, complete_prefix_length: int, complete_expression_count: int, tail_charge: int):
        # through the instance dict, past the __setattr__ that refuses
        vars(self).update(complete_prefix_length=complete_prefix_length,
                          complete_expression_count=complete_expression_count, tail_charge=tail_charge)

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def charge(degrees: Sequence[int]) -> int:
    """Total charge of a degree sequence: ``sum(1 - d for d in degrees)``.

    Charge is additive over concatenation; the empty sequence has charge 0.
    """
    return len(degrees) - sum(degrees)


def prefix_charges(degrees: Sequence[int]) -> list[int]:
    """Running charge after each element; empty input gives an empty list."""
    return list(accumulate(1 - d for d in degrees))


def is_well_formed(degrees: Sequence[int]) -> bool:
    """True iff ``degrees`` is the preorder outdegree code of exactly one tree.

    Criterion: non-empty, total charge 1, and every proper prefix has
    charge <= 0.  The recursive equivalent is ``codec.decode_prefix``
    consuming the whole input; the test suite checks the two agree.
    """
    if not degrees:
        return False
    running = 0
    last = len(degrees) - 1
    for i, degree in enumerate(degrees):
        running += 1 - degree
        if running > 0 and i < last:
            return False
    return running == 1


def is_constructible(multiset: DegreeMultiset) -> bool:
    """True iff at least one ordered tree uses every node of ``multiset``.

    Equivalent to the multiset having charge exactly 1.
    """
    return multiset.charge == 1


def _charge_peak(degrees: Sequence[int]) -> tuple[int, int]:
    # One pass: the first 1-based position where the prefix charge is
    # highest, that height, and the total-charge check.
    running = height = position = 0
    for i, degree in enumerate(degrees, start=1):
        running += 1 - degree
        if running > height:
            height, position = running, i
    if running != 1:
        raise ChargeNotOneError(running)
    return position, height


def decompose(degrees: Sequence[int]) -> SegmentDecomposition:
    """Greedily split ``degrees`` into complete tree codes plus a deficient tail.

    Each cut is the shortest remaining prefix that completes a tree.  Since
    the prefix charge rises by at most 1 per symbol, the cuts fall where it
    first reaches 1, 2, 3, ...: the last cut is the first position where the
    prefix charge is highest, and the number of cuts is that height, so one
    scan finds both.  Requires total charge 1.  A well-formed input
    decomposes as a single segment covering the whole sequence.

    Raises:
        ChargeNotOneError: if the total charge differs from 1.
    """
    position, height = _charge_peak(degrees)
    return SegmentDecomposition(position, height, 1 - height)
