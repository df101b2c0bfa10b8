"""Empirical uniformity checks of the sampler over the enumerated space, in order."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .degrees import DegreeMultiset
from .oracle import enumerate_trees
from .rng import RandomSource
from .sampling import sample_trees


@dataclass
class FrequencyReport:
    """Observed tree frequencies with a chi-square summary.

    ``outcome_counts`` covers the whole enumerated outcome space,
    zero-count outcomes included, in the lexicographic order of
    ``enumerate_trees``, and ``degrees_of_freedom`` is one less
    than the number of outcomes.  The report carries the statistic only;
    pass/fail thresholds are the caller's policy.
    """

    outcome_counts: dict[tuple[int, ...], int]
    total_samples: int
    chi_square: float
    degrees_of_freedom: int
    seed: int

    def to_json(self) -> str:
        """One-line JSON with outcomes in the order of ``outcome_counts``."""
        payload = {
            "seed": self.seed,
            "samples": self.total_samples,
            "chi_square": self.chi_square,
            "degrees_of_freedom": self.degrees_of_freedom,
            "outcomes": list(self.outcome_counts),
            "counts": list(self.outcome_counts.values()),
        }
        return json.dumps(payload)


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
    # sample_trees checks the charge, drawing nothing, before the size check
    trees = sample_trees(multiset, source, samples)
    counts = dict.fromkeys(enumerate_trees(multiset), 0)
    for code in map(tuple, trees):
        if code not in counts:
            raise RuntimeError(f"sampled code {code} outside the enumerated space")
        counts[code] += 1
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
