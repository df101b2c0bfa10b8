"""End-to-end acceptance gate.

One test per criterion; each prints a ``PASS criterion N`` line once its
assertions hold (run with ``pytest -s`` to see them).  Bounds, exact
equalities, and runtime ceilings are pinned here and nowhere else.
"""

import itertools
import statistics
import time
from math import factorial

import pytest

from conftest import constructible_multisets
from degtree import (
    DegreeMultiset,
    OperatorAlphabet,
    RandomSource,
    catalan,
    count_trees,
    decode_prefix,
    encode_prefix,
    enumerate_trees,
    find_rotation_point,
    is_well_formed,
    render_expression,
    rotate,
    sample_tree,
    to_dot,
    to_json,
    to_sexpr,
    uniformity_report,
)
from test_cli import check_golden, parse_sexpr, run as run_cli

# 0.995 quantile of chi-square with 29 degrees of freedom (regularised
# incomplete gamma inverse; cross-checked against scipy in test_stats).
CHI_SQUARE_995_DF29 = 52.34

MIXED_MULTISET = DegreeMultiset({0: 4, 1: 1, 2: 1, 3: 1})


@pytest.fixture(scope="module")
def labeled_ordering_sweep():
    """Scan+rotate outcomes over ALL n! labeled orderings, n <= 8.

    For every constructible multiset: a map from corrected code to how
    many orderings produced it, plus the number of orderings that were
    already well-formed.
    """
    results = []
    for multiset in constructible_multisets(8, 4):
        outcome_counts = {}
        already_well_formed = 0
        for ordering in itertools.permutations(multiset.to_sequence()):
            if is_well_formed(ordering):
                already_well_formed += 1
            fixed = tuple(rotate(ordering, find_rotation_point(ordering)))
            outcome_counts[fixed] = outcome_counts.get(fixed, 0) + 1
        results.append((multiset, outcome_counts, already_well_formed))
    return results


def test_criterion_1_exhaustive_correction_sweep(charge_one_family):
    start = time.perf_counter()
    for seq in charge_one_family:
        assert is_well_formed(rotate(seq, find_rotation_point(seq))), seq
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"PASS criterion 1: rotation fixes all {len(charge_one_family)} "
        f"charge-1 sequences (len<=9, deg<=4) in {elapsed:.2f}s"
    )


def test_criterion_2_rotation_uniqueness(well_formed_family):
    for seq in well_formed_family:
        assert find_rotation_point(seq) == len(seq)
        for k in range(1, len(seq)):
            assert not is_well_formed(rotate(seq, k)), (seq, k)
    print(
        f"PASS criterion 2: all non-identity rotations of "
        f"{len(well_formed_family)} well-formed sequences are malformed"
    )


def test_criterion_3_derandomized_uniformity(labeled_ordering_sweep):
    start = time.perf_counter()
    for multiset, outcome_counts, _ in labeled_ordering_sweep:
        n = multiset.total_nodes
        copies = n
        for multiplicity in multiset.counts.values():
            copies *= factorial(multiplicity)
        assert sorted(outcome_counts) == enumerate_trees(multiset), multiset
        assert all(count == copies for count in outcome_counts.values()), multiset
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"PASS criterion 3: every tree produced exactly n*prod(m_d!) times "
        f"over all n! orderings, {len(labeled_ordering_sweep)} multisets (n<=8)"
    )


def test_criterion_4_counting_agreement():
    start = time.perf_counter()
    multisets = list(constructible_multisets(9, 4))
    for multiset in multisets:
        n = multiset.total_nodes
        orderings = factorial(n)
        for multiplicity in multiset.counts.values():
            orderings //= factorial(multiplicity)
        assert orderings % n == 0, multiset
        assert count_trees(multiset) == len(enumerate_trees(multiset)), multiset
    assert count_trees(MIXED_MULTISET) == 30
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"PASS criterion 4: closed-form count equals enumeration for all "
        f"{len(multisets)} constructible multisets (n<=9) in {elapsed:.2f}s"
    )


def test_criterion_5_catalan_reproduction():
    start = time.perf_counter()
    for n in range(9):
        binary = DegreeMultiset.from_degrees([0] * (n + 1) + [2] * n)
        assert catalan(n) == count_trees(binary), n
    assert catalan(3) == 5 == len(enumerate_trees(DegreeMultiset({0: 4, 2: 3})))
    assert catalan(4) == 14 == len(enumerate_trees(DegreeMultiset({0: 5, 2: 4})))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print("PASS criterion 5: catalan(n) = count_trees({0:n+1, 2:n}) for n in 0..8")


def test_criterion_6_one_in_n_law(labeled_ordering_sweep):
    for multiset, _, already_well_formed in labeled_ordering_sweep:
        n = multiset.total_nodes
        assert already_well_formed == factorial(n) // n, multiset
    print(
        "PASS criterion 6: exactly n!/n of the n! labeled orderings are "
        "well-formed for every constructible multiset (n<=8)"
    )


def test_criterion_7_statistical_uniformity():
    start = time.perf_counter()
    outcomes = enumerate_trees(MIXED_MULTISET)
    chi_squares = []
    for seed in (1, 2, 3, 4, 5):
        report = uniformity_report(MIXED_MULTISET, 30000, RandomSource(seed))
        assert list(report.outcome_counts) == outcomes
        assert sum(report.outcome_counts.values()) == 30000
        assert report.degrees_of_freedom == 29
        chi_squares.append(report.chi_square)
    passing = sum(1 for value in chi_squares if value < CHI_SQUARE_995_DF29)
    elapsed = time.perf_counter() - start
    assert passing >= 4, chi_squares
    assert elapsed < 10.0
    print(
        f"PASS criterion 7: chi-square(29df) < {CHI_SQUARE_995_DF29} for "
        f"{passing}/5 seeds (values {[round(v, 1) for v in chi_squares]}) "
        f"in {elapsed:.2f}s"
    )


def test_criterion_8_linear_time_sampling():
    million = DegreeMultiset({0: 500000, 1: 1, 2: 499999})
    four_million = DegreeMultiset({0: 2000000, 1: 1, 2: 1999999})

    warmup = sample_tree(DegreeMultiset({0: 50001, 2: 50000}), RandomSource(0))
    assert is_well_formed(warmup)

    def timed(multiset, seed):
        source = RandomSource(seed)
        begin = time.perf_counter()
        sample_tree(multiset, source)
        return time.perf_counter() - begin

    code = sample_tree(million, RandomSource(123))
    assert is_well_formed(code)
    assert sorted(code) == million.to_sequence()

    # the two sizes alternate, seed by seed, so a change of load on the
    # machine lands on both medians rather than on one
    times = [(timed(million, seed), timed(four_million, seed)) for seed in range(10)]
    median_1m, median_4m = (statistics.median(column) for column in zip(*times))
    summary = (
        f"median {median_1m * 1000:.0f}ms at 1e6 nodes, "
        f"{median_4m * 1000:.0f}ms at 4e6 (ratio {median_4m / median_1m:.2f}x)"
    )
    assert median_1m < 1.0, summary
    assert median_4m <= 6 * median_1m, summary
    print(f"PASS criterion 8: {summary}")


def test_criterion_9_round_trips_and_cli_golden(well_formed_family, capsys):
    for seq in well_formed_family:
        assert encode_prefix(decode_prefix(seq)) == list(seq)

    # CLI determinism: stored transcripts must reproduce byte-exactly
    cases = [
        ("sample_prefix.txt", ["sample", "--degrees", "0:4,1:1,2:1,3:1", "--seed", "7", "--count", "5"]),
        ("sample_sexpr.txt", ["sample", "--degrees", "0:4,1:1,2:1,3:1", "--seed", "7", "--count", "5", "--format", "sexpr"]),
        ("sample_json.txt", ["sample", "--degrees", "0:4,1:1,2:1,3:1", "--seed", "7", "--count", "3", "--format", "json"]),
        ("sample_dot.txt", ["sample", "--degrees", "0:4,1:1,2:1,3:1", "--seed", "7", "--count", "2", "--format", "dot"]),
        ("enumerate_prefix.txt", ["enumerate", "--degrees", "0:4,1:1,2:1,3:1"]),
        ("stats.txt", ["stats", "--degrees", "0:3,2:2", "--samples", "200", "--seed", "1"]),
    ]
    for name, argv in cases:
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        check_golden(name, out)

    # format equivalence: sexpr output re-parses to the prefix output
    _, prefix_out, _ = run_cli(
        ["sample", "--degrees", "0:4,1:1,2:1,3:1", "--seed", "7", "--count", "5"],
        capsys,
    )
    _, sexpr_out, _ = run_cli(
        ["sample", "--degrees", "0:4,1:1,2:1,3:1", "--seed", "7", "--count", "5", "--format", "sexpr"],
        capsys,
    )
    assert [parse_sexpr(line) for line in sexpr_out.splitlines()] == [
        [int(tok) for tok in line.split()] for line in prefix_out.splitlines()
    ]
    print(
        f"PASS criterion 9: encode/decode identity on {len(well_formed_family)} "
        "codes; CLI transcripts byte-identical to golden files"
    )


def test_criterion_10_linear_time_rendering():
    alphabet = OperatorAlphabet({0: ["x", "y"], 1: ["neg"], 2: ["+", "*"]})
    renderers = {
        "sexpr": to_sexpr,
        "json": to_json,
        "dot": to_dot,
        "infix": lambda code: render_expression(code, alphabet, RandomSource(1), "infix"),
    }
    # {0: k + 1, 1: k, 2: k} has 3k + 1 nodes: 1e5 and 4e5
    small, large = (
        sample_tree(DegreeMultiset({0: k + 1, 1: k, 2: k}), RandomSource(k))
        for k in (33333, 133333)
    )
    assert (len(small), len(large)) == (100000, 400000)
    ratios = {}
    for name, render in renderers.items():
        times = {len(small): [], len(large): []}
        for _ in range(5):
            # sizes alternate so that drifts in machine speed hit both alike
            for code in (small, large):
                begin = time.perf_counter()
                render(code)
                times[len(code)].append(time.perf_counter() - begin)
        median_small = statistics.median(times[len(small)])
        median_large = statistics.median(times[len(large)])
        ratios[name] = median_large / median_small
        assert median_large <= 6 * median_small, (name, median_small, median_large)
    print(
        "PASS criterion 10: render time at 4e5 nodes over 1e5 nodes, "
        + ", ".join(f"{name} {ratio:.2f}x" for name, ratio in ratios.items())
    )


def test_criterion_11_linear_time_counting(capsys):
    # {0: k + 1, 1: 1, 2: k} has 2k + 2 nodes: 2e5 and 8e5
    specs = {size: f"0:{size // 2},1:1,2:{size // 2 - 1}" for size in (200000, 800000)}
    times = {size: [] for size in specs}
    digits = {}
    for _ in range(5):
        # sizes alternate so that drifts in machine speed hit both alike
        for size, spec in specs.items():
            begin = time.perf_counter()
            code, out, err = run_cli(["count", "--degrees", spec], capsys)
            times[size].append(time.perf_counter() - begin)
            assert (code, err) == (0, "")
            # a flag and the lengths, not the texts: pytest's diff of 2.4e5 digits can take minutes
            same = digits.setdefault(size, out) == out
            assert same, (size, len(digits[size]), len(out))
    assert all(out.rstrip("\n").isdigit() for out in digits.values())
    median_small = statistics.median(times[200000])
    median_large = statistics.median(times[800000])
    assert median_large <= 6 * median_small, (median_small, median_large)
    print(
        f"PASS criterion 11: count median {median_small * 1000:.0f}ms at 2e5 "
        f"nodes, {median_large * 1000:.0f}ms at 8e5 "
        f"(ratio {median_large / median_small:.2f}x)"
    )


def test_criterion_12_linear_time_enumeration():
    # a unary chain is one tree as deep as it is long: 3e3 and 1.2e4 nodes
    chains = {n: DegreeMultiset({0: 1, 1: n - 1}) for n in (3000, 12000)}
    enumerate_trees(chains[3000], bound=3000)  # warm-up
    times = {n: [] for n in chains}
    for _ in range(5):
        # sizes alternate so that drifts in machine speed hit both alike
        for n, chain in chains.items():
            begin = time.perf_counter()
            trees = enumerate_trees(chain, bound=n)
            times[n].append(time.perf_counter() - begin)
            assert trees == [(1,) * (n - 1) + (0,)]
    median_small = statistics.median(times[3000])
    median_large = statistics.median(times[12000])
    assert median_large <= 6 * median_small, (median_small, median_large)
    print(
        f"PASS criterion 12: enumeration median {median_small * 1000:.1f}ms at "
        f"3e3 nodes, {median_large * 1000:.1f}ms at 1.2e4 "
        f"(ratio {median_large / median_small:.2f}x)"
    )
