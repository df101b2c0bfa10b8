import json
import re

import pytest

from degtree import (
    DegreeMultiset,
    EnumerationTooLargeError,
    FrequencyReport,
    NotConstructibleError,
    RandomSource,
    enumerate_trees,
    uniformity_report,
)
from degtree import sampling


def test_single_outcome_space_is_degenerate():
    report = uniformity_report(DegreeMultiset({0: 2, 2: 1}), 100, RandomSource(4))
    assert report.outcome_counts == {(2, 0, 0): 100}
    assert report.total_samples == 100
    assert report.chi_square == 0.0
    assert report.degrees_of_freedom == 0


def test_two_outcome_space_statistic():
    multiset = DegreeMultiset({0: 3, 2: 2})
    report = uniformity_report(multiset, 2000, RandomSource(11))
    counts = report.outcome_counts
    assert set(counts) == {(2, 0, 2, 0, 0), (2, 2, 0, 0, 0)}
    assert sum(counts.values()) == 2000
    expected = ((counts[(2, 0, 2, 0, 0)] - 1000) ** 2 / 1000) + (
        (counts[(2, 2, 0, 0, 0)] - 1000) ** 2 / 1000
    )
    assert report.chi_square == pytest.approx(expected)
    assert report.degrees_of_freedom == 1


def test_thirty_outcome_space_shape():
    multiset = DegreeMultiset({0: 4, 1: 1, 2: 1, 3: 1})
    report = uniformity_report(multiset, 3000, RandomSource(2))
    assert report.degrees_of_freedom == 29
    assert list(report.outcome_counts) == enumerate_trees(multiset)
    assert sum(report.outcome_counts.values()) == 3000


def test_zero_count_outcomes_are_reported():
    multiset = DegreeMultiset({0: 4, 1: 1, 2: 1, 3: 1})
    report = uniformity_report(multiset, 3, RandomSource(9))
    assert len(report.outcome_counts) == 30
    assert sum(report.outcome_counts.values()) == 3
    assert sum(1 for v in report.outcome_counts.values() if v == 0) >= 27


def test_reports_are_deterministic():
    multiset = DegreeMultiset({0: 3, 2: 2})
    first = uniformity_report(multiset, 500, RandomSource(77))
    second = uniformity_report(multiset, 500, RandomSource(77))
    assert first == second
    assert first.to_json() == second.to_json()


def test_json_schema():
    multiset = DegreeMultiset({0: 3, 2: 2})
    report = uniformity_report(multiset, 60, RandomSource(5))
    payload = json.loads(report.to_json())
    assert list(payload) == [
        "seed",
        "samples",
        "chi_square",
        "degrees_of_freedom",
        "outcomes",
        "counts",
    ]
    assert payload["seed"] == 5
    assert payload["samples"] == 60
    assert payload["outcomes"] == [[2, 0, 2, 0, 0], [2, 2, 0, 0, 0]]
    assert sum(payload["counts"]) == 60
    assert payload["degrees_of_freedom"] == 1


def _payload(report):
    return {
        "seed": report.seed,
        "samples": report.total_samples,
        "chi_square": report.chi_square,
        "degrees_of_freedom": report.degrees_of_freedom,
        "outcomes": list(report.outcome_counts),
        "counts": list(report.outcome_counts.values()),
    }


@pytest.mark.parametrize(
    "counts",
    [{0: 2, 2: 1}, {0: 3, 2: 2}, {0: 4, 1: 1, 2: 1, 3: 1}, {0: 3, 1: 3, 3: 1},
     {0: 5, 1: 2, 2: 2, 3: 1}, {0: 9, 9: 1}, {0: 5, 1: 3, 5: 1}, {0: 1, 1: 9}],
)
def test_json_equals_json_dumps_of_the_payload(counts):
    # the outcomes are written digit by digit, every degree being below 10
    report = uniformity_report(DegreeMultiset(counts), 500, RandomSource(3))
    assert report.to_json() == json.dumps(_payload(report))


@pytest.mark.parametrize(
    "outcomes",
    # degrees of 10 and more, codes of two lengths, no outcomes, values that are no bytes
    [{(10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0): 2}, {(2, 0, 0): 1, (1, 0): 2}, {}, {(0,): 1, (300,): 0}, {(-1,): 3}],
)
def test_json_of_other_outcomes_falls_back_to_json_dumps(outcomes):
    report = FrequencyReport(outcomes, 5, 1.5, max(len(outcomes) - 1, 0), 7)
    assert report.to_json() == json.dumps(_payload(report))


def test_report_is_a_plain_record():
    # the expected values are what FrequencyReport gave as a dataclass
    report = FrequencyReport({(0, 1, 0): 3, (1, 0, 0): 0}, 3, 3.0, 1, 2**64 - 1)
    assert repr(report) == (
        "FrequencyReport(outcome_counts={(0, 1, 0): 3, (1, 0, 0): 0}, total_samples=3, chi_square=3.0, "
        "degrees_of_freedom=1, seed=18446744073709551615)"
    )
    same = FrequencyReport(outcome_counts={(0, 1, 0): 3, (1, 0, 0): 0}, total_samples=3, chi_square=3.0,
                           degrees_of_freedom=1, seed=2**64 - 1)
    assert report == same and not report != same
    assert report != FrequencyReport({(0, 1, 0): 3, (1, 0, 0): 0}, 3, 3.0, 1, 7)
    assert report != ({(0, 1, 0): 3, (1, 0, 0): 0}, 3, 3.0, 1, 2**64 - 1)
    with pytest.raises(TypeError):
        hash(report)
    match report:
        case FrequencyReport(counts, samples, chi_square, freedom, seed):
            assert (counts, samples, chi_square, freedom, seed) == ({(0, 1, 0): 3, (1, 0, 0): 0}, 3, 3.0, 1, 2**64 - 1)
        case _:
            pytest.fail(f"{report!r} did not match")


def test_input_validation():
    good = DegreeMultiset({0: 2, 2: 1})
    with pytest.raises(ValueError):
        uniformity_report(good, 0, RandomSource(1))
    with pytest.raises(NotConstructibleError):
        uniformity_report(DegreeMultiset({0: 1, 2: 1}), 10, RandomSource(1))
    with pytest.raises(EnumerationTooLargeError):
        uniformity_report(DegreeMultiset({0: 6, 2: 5}), 10, RandomSource(1))


@pytest.mark.parametrize(
    "kernel, samples, calls",
    # 100 trees of 5 nodes in one column chunk, 40 in one chunk of rows
    # swapped one by one, both rotated as a table; 3 trees draw too few
    # words for a batch and are rotated one by one
    [("_rotated", 100, [500]), ("_rotated", 40, [200]), ("rotate", 3, [5, 5, 5])],
    ids=["column", "row_table", "row"],
)
def test_code_outside_the_space_is_an_error(monkeypatch, kernel, samples, calls):
    # the last tree of the kernel's first output becomes (0, 0, 2, 2, 0), a
    # rotation of a tree but no tree, in the flat chunk the tally reads
    real, given = getattr(sampling, kernel), []

    def planted(*args):
        flat = bytearray(real(*args))
        if not given:
            flat[-5:] = [0, 0, 2, 2, 0]
        given.append(len(flat))
        return bytes(flat) if kernel == "_rotated" else list(flat)

    monkeypatch.setattr(sampling, kernel, planted)
    with pytest.raises(RuntimeError, match=re.escape("sampled code (0, 0, 2, 2, 0) outside")):
        uniformity_report(DegreeMultiset({0: 3, 2: 2}), samples, RandomSource(1))
    assert given == calls


def test_chunks_of_both_kernels_add_up():
    # 10-node trees come in chunks of 7281 rows (2**16 // 9 words): three
    # column chunks, then one row that takes the row loop
    multiset = DegreeMultiset({0: 5, 1: 2, 2: 2, 3: 1})
    samples = 3 * 7281 + 1
    report = uniformity_report(multiset, samples, RandomSource(8))
    expected = dict.fromkeys(enumerate_trees(multiset), 0)
    for code in map(tuple, sampling.sample_trees(multiset, RandomSource(8), samples)):
        expected[code] += 1
    assert report.outcome_counts == expected
    assert all(type(count) is int for count in report.outcome_counts.values())


def test_chi_square_quantile_constant_matches_scipy():
    # 52.34 is the 0.995 quantile of chi-square with 29 degrees of
    # freedom, used by the calibration tests; derived once numerically
    scipy_stats = pytest.importorskip("scipy.stats")
    assert scipy_stats.chi2.ppf(0.995, 29) == pytest.approx(52.34, abs=0.005)
