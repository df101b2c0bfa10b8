"""Empirical uniformity checks of the sampler over the enumerated space, in order."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

from .codec import _DIGITS
from .degrees import DegreeMultiset
from .oracle import enumerate_trees
from .rng import RandomSource
from .sampling import _tree_chunks


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
        head = json.dumps({"seed": self.seed, "samples": self.total_samples, "chi_square": self.chi_square,
                           "degrees_of_freedom": self.degrees_of_freedom})
        outcomes = _codes_json(list(self.outcome_counts))
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
    outcomes = enumerate_trees(multiset)
    counts = dict.fromkeys(outcomes, 0)
    for trees, table in chunks:
        if table is None:  # from the row loop, when numpy need not be loaded
            for code in map(tuple, trees):
                if code not in counts:
                    raise _outside(code)
                counts[code] += 1
        else:
            for code, observed in zip(outcomes, _tally(table, outcomes)):
                counts[code] += observed
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


def _tally(table, outcomes: list[tuple[int, ...]]) -> list[int]:
    # How often each of outcomes, n-node codes in increasing order, occurs
    # among the rows of the uint8 array table, n-node trees too.  A degree
    # in an n-node tree is below n, so the digits of a code in base n rank
    # it in that order, and a row with no equal among the codes is foreign.
    import numpy as np

    n = table.shape[1]
    space = np.frombuffer(bytes(chain.from_iterable(outcomes)), dtype=np.uint8)
    weights = np.array([n**power for power in range(n - 1, -1, -1)], dtype=np.int64)
    keys = space.reshape(-1, n) @ weights
    rows = table @ weights
    found = np.searchsorted(keys, rows)
    foreign = keys.take(found, mode="clip") != rows
    if foreign.any():
        raise _outside(tuple(table[foreign.argmax()].tolist()))
    return np.bincount(found, minlength=len(keys)).tolist()


def _codes_json(codes: list[tuple[int, ...]]) -> str:
    # json.dumps(codes), made without it for tuples of one length whose
    # degrees are all below 10, as in a space of at most 10 nodes: each code
    # is "[d, d, ..., d]", so one slice assignment a position writes it.
    try:
        digits = b"".join(map(bytes, codes))  # refuses a degree that is no byte
        (size,) = set(map(len, codes))
    except (TypeError, ValueError):
        return json.dumps(codes)
    if set(map(type, codes)) != {tuple} or digits.translate(None, bytes(range(10))):
        return json.dumps(codes)
    width = 3 * size + 2
    text = bytearray(b"[" + b", ".join([b"0"] * size) + b"], ") * len(codes)
    digits = digits.translate(_DIGITS)
    for position in range(size):
        text[3 * position + 1 :: width] = digits[position::size]
    return "[" + text[:-2].decode("ascii") + "]"


def _outside(code: tuple[int, ...]) -> RuntimeError:
    return RuntimeError(f"sampled code {code} outside the enumerated space")
