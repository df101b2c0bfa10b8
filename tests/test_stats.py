import json

import pytest

from degtree import (
    DegreeMultiset,
    EnumerationTooLargeError,
    NotConstructibleError,
    RandomSource,
    enumerate_trees,
    uniformity_report,
)


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


def test_input_validation():
    good = DegreeMultiset({0: 2, 2: 1})
    with pytest.raises(ValueError):
        uniformity_report(good, 0, RandomSource(1))
    with pytest.raises(NotConstructibleError):
        uniformity_report(DegreeMultiset({0: 1, 2: 1}), 10, RandomSource(1))
    with pytest.raises(EnumerationTooLargeError):
        uniformity_report(DegreeMultiset({0: 6, 2: 5}), 10, RandomSource(1))


def test_chi_square_quantile_constant_matches_scipy():
    # 52.34 is the 0.995 quantile of chi-square with 29 degrees of
    # freedom, used by the calibration tests; derived once numerically
    scipy_stats = pytest.importorskip("scipy.stats")
    assert scipy_stats.chi2.ppf(0.995, 29) == pytest.approx(52.34, abs=0.005)
