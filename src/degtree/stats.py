"""Empirical uniformity checks of the sampler over the enumerated space, in order.

A report's outcome list is the codec's prefix text of its outcomes, as
JSON lists.
"""

from __future__ import annotations

import struct
from collections import Counter

from .codec import _blocks
from .degrees import DegreeMultiset
from .errors import _Record
from .oracle import enumerate_trees
from .rng import RandomSource
from .sampling import _tree_chunks


class FrequencyReport(_Record):
    """Observed tree frequencies with a chi-square summary.

    ``outcome_counts`` covers the whole enumerated outcome space,
    zero-count outcomes included, in the lexicographic order of
    ``enumerate_trees``, and ``degrees_of_freedom`` is one less
    than the number of outcomes.  The report carries the statistic only;
    pass/fail thresholds are the caller's policy.
    """

    __match_args__ = ("outcome_counts", "total_samples", "chi_square", "degrees_of_freedom", "seed")

    def __init__(self, outcome_counts: dict[tuple[int, ...], int], total_samples: int, chi_square: float,
                 degrees_of_freedom: int, seed: int):
        self.outcome_counts = outcome_counts
        self.total_samples = total_samples
        self.chi_square = chi_square
        self.degrees_of_freedom = degrees_of_freedom
        self.seed = seed

    def to_json(self) -> str:
        """One-line JSON with outcomes in the order of ``outcome_counts``."""
        import json  # loaded only by the stats command

        head = json.dumps({"seed": self.seed, "samples": self.total_samples, "chi_square": self.chi_square,
                           "degrees_of_freedom": self.degrees_of_freedom})
        codes = list(self.outcome_counts)
        try:  # the codes as one flat code, if they are tuples of one length of bytes
            (size,) = set(map(len, codes))
            flat = b"".join(map(bytes, codes))  # refuses an item outside 0-255
        except (TypeError, ValueError):
            size = 0
        if size and set(map(type, codes)) == {tuple}:  # their prefix lines, as JSON lists
            lines = "".join(_blocks([flat], size, "prefix"))
            outcomes = "[[" + lines[:-1].replace(" ", ", ").replace("\n", "], [") + "]]"
        else:
            outcomes = json.dumps(codes)
        counts = json.dumps(list(self.outcome_counts.values()))
        # what json.dumps writes with "outcomes" and "counts" added last
        return f'{head[:-1]}, "outcomes": {outcomes}, "counts": {counts}}}'


def uniformity_report(
    multiset: DegreeMultiset,
    samples: int,
    source: RandomSource,
) -> FrequencyReport:
    """Draw ``samples`` trees and tabulate them over the full outcome space.

    ``chi_square`` is ``sum((observed - expected)**2 / expected)`` with
    ``expected = samples / len(outcomes)``.  A single-outcome space
    degenerates to chi_square 0 with 0 degrees of freedom.  Identical
    (multiset, samples, seed) triples produce identical reports.

    Raises:
        NotConstructibleError: the multiset admits no tree.
        EnumerationTooLargeError: the multiset has more nodes than
            ``enumerate_trees`` enumerates by default.
        ValueError: ``samples`` is not positive.
    """
    if samples <= 0:
        raise ValueError(f"samples must be positive, got {samples}")
    # _tree_chunks checks the charge, drawing nothing, before the size check
    chunks = _tree_chunks(multiset, source, samples)
    counts = dict.fromkeys(enumerate_trees(multiset), 0)
    records = Counter()
    for flat in chunks:  # bytes: an enumerated space has at most 10 nodes, so degrees below 10
        records.update(struct.iter_unpack(f"{multiset.total_nodes}s", flat))
    for (record,), observed in records.items():
        code = tuple(record)
        if code not in counts:
            raise RuntimeError(f"sampled code {code} outside the enumerated space")
        counts[code] = observed
    expected = samples / len(counts)
    chi_square = sum((observed - expected) ** 2 for observed in counts.values())
    chi_square /= expected
    return FrequencyReport(
        outcome_counts=counts,
        total_samples=samples,
        chi_square=chi_square,
        degrees_of_freedom=len(counts) - 1,
        seed=source.seed,
    )
