import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from conftest import RecordingSource, unmix
from degtree import cli
from degtree.cli import main, parse_degree_spec
from degtree.rng import _GOLDEN
from degtree import DegreeMultiset, RandomSource, enumerate_trees, render_expression, sample_tree, sample_trees

GOLDEN_DIR = Path(__file__).parent / "golden"
ALPHABET = str(Path(__file__).parent / "data" / "alphabet.json")
# one symbol for unary nodes; every other arity has a count that is not a power of two
ALPHABET_SINGLE = str(Path(__file__).parent / "data" / "alphabet_single.json")


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_golden(name, output):
    """Compare against the stored byte-exact transcript.

    Regenerate with ``UPDATE_GOLDEN=1 pytest tests/test_cli.py``.
    """
    path = GOLDEN_DIR / name
    if os.environ.get("UPDATE_GOLDEN"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(output, encoding="utf-8")
    assert output == path.read_text(encoding="utf-8"), name


def parse_sexpr(text):
    """Degree sequence of a rendered s-expression."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def expression():
        nonlocal pos
        if tokens[pos] == "(":
            pos += 1
            degree = int(tokens[pos])
            pos += 1
            out = [degree]
            for _ in range(degree):
                out.extend(expression())
            assert tokens[pos] == ")"
            pos += 1
            return out
        value = int(tokens[pos])
        pos += 1
        assert value == 0
        return [0]

    result = expression()
    assert pos == len(tokens)
    return result


class TestDegreeSpec:
    def test_list_and_multiset_forms_agree(self):
        assert parse_degree_spec("0,0,0,0,1,2,3") == parse_degree_spec(
            "0:4,1:1,2:1,3:1"
        )
        assert parse_degree_spec(" 0 , 2 ") == DegreeMultiset({0: 1, 2: 1})

    def test_repeated_multiset_entries_accumulate(self):
        assert parse_degree_spec("0:1,0:1,2:1") == DegreeMultiset({0: 2, 2: 1})

    @pytest.mark.parametrize(
        "spec",
        ["", ",", "0,,1", "abc", "1:x", "0:0", "-1,0", "0:4,1", "2:-1", "0:2,0:-1", "0:0,0:1"],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_degree_spec(spec)


class TestCheck:
    def test_constructible(self, capsys):
        code, out, err = run(["check", "--degrees", "0:4,1:1,2:1,3:1"], capsys)
        assert (code, out, err) == (0, "charge=1 constructible=true\n", "")

    def test_infeasible(self, capsys):
        code, out, _ = run(["check", "--degrees", "0:1,2:1"], capsys)
        assert (code, out) == (2, "charge=0 constructible=false\n")

    def test_single_leaf(self, capsys):
        code, out, _ = run(["check", "--degrees", "0"], capsys)
        assert (code, out) == (0, "charge=1 constructible=true\n")


class TestSample:
    def test_forced_tree_any_seed(self, capsys):
        code, out, err = run(["sample", "--degrees", "0,0,2", "--seed", "7"], capsys)
        assert (code, out, err) == (0, "2 0 0\n", "")

    def test_deterministic_runs(self, capsys):
        args = ["sample", "--degrees", "0:4,1:1,2:1,3:1", "--seed", "5", "--count", "8"]
        first = run(args, capsys)
        second = run(args, capsys)
        assert first == second
        assert first[0] == 0
        assert len(first[1].splitlines()) == 8

    def test_list_and_multiset_specs_sample_identically(self, capsys):
        left = run(
            ["sample", "--degrees", "3,2,1,0,0,0,0", "--seed", "9", "--count", "4"],
            capsys,
        )
        right = run(
            ["sample", "--degrees", "0:4,1:1,2:1,3:1", "--seed", "9", "--count", "4"],
            capsys,
        )
        assert left == right

    def test_entropy_seed_is_replayable(self, capsys):
        code, out, err = run(
            ["sample", "--degrees", "0:4,1:1,2:1,3:1", "--count", "3"], capsys
        )
        assert code == 0
        assert err.startswith("seed=")
        seed = err.strip().split("=", 1)[1]
        replay_code, replay_out, replay_err = run(
            ["sample", "--degrees", "0:4,1:1,2:1,3:1", "--count", "3", "--seed", seed],
            capsys,
        )
        assert (replay_code, replay_out, replay_err) == (0, out, "")

    def test_infeasible_exit(self, capsys):
        code, out, err = run(["sample", "--degrees", "0:2", "--seed", "1"], capsys)
        assert code == 2
        assert out == ""
        assert "charge 2" in err

    @pytest.mark.parametrize("rounds", [1, 3])
    @pytest.mark.parametrize(
        "top, count", [(top, count) for top in (9, 10, 256) for count in (1, 143)] + [(9, 30_000)]
    )
    def test_prefix_lines_equal_the_library_trees(self, capsys, top, count, rounds):
        # top degree 9 takes the one-pass digit writer and 10 up the
        # per-tree join; 256 does not fit the digit writer's bytes at all.
        # With count 1, the 12- to 30-node trees of top 9 and the 13-node
        # tree of top 10 draw fewer than 32 words, so they come from the
        # scalar next_below path; the rest are batched.  30 000 trees of
        # top 9 take the digit writer across several of its write blocks.
        counts = {0: 1 + (top - 1) * rounds, 1: 2, top: rounds}
        spec = ",".join(f"{d}:{m}" for d, m in counts.items())
        code, out, err = run(
            ["sample", "--degrees", spec, "--seed", "11", "--count", str(count)], capsys
        )
        trees = list(sample_trees(DegreeMultiset(counts), RandomSource(11), count))
        assert (code, err) == (0, "")
        # out == "\n".join(...) + "\n", line by line: a failing diff of the
        # whole text would take minutes to print
        lines = out.split("\n")
        assert len(lines) == count + 1 and lines[-1] == ""
        for line, tree in zip(lines, trees):
            assert line == " ".join(map(str, tree))

    def test_golden_prefix(self, capsys):
        code, out, _ = run(
            ["sample", "--degrees", "0:4,1:1,2:1,3:1", "--seed", "7", "--count", "5"],
            capsys,
        )
        assert code == 0
        check_golden("sample_prefix.txt", out)

    def test_golden_sexpr(self, capsys):
        code, out, _ = run(
            [
                "sample", "--degrees", "0:4,1:1,2:1,3:1", "--seed", "7",
                "--count", "5", "--format", "sexpr",
            ],
            capsys,
        )
        assert code == 0
        check_golden("sample_sexpr.txt", out)

    def test_golden_json(self, capsys):
        code, out, _ = run(
            [
                "sample", "--degrees", "0:4,1:1,2:1,3:1", "--seed", "7",
                "--count", "3", "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        for line in out.splitlines():
            assert json.loads(line)["degree"] in range(5)
        check_golden("sample_json.txt", out)

    def test_golden_dot(self, capsys):
        code, out, _ = run(
            [
                "sample", "--degrees", "0:4,1:1,2:1,3:1", "--seed", "7",
                "--count", "2", "--format", "dot",
            ],
            capsys,
        )
        assert code == 0
        assert out.count("digraph tree {") == 2
        assert "}\n\ndigraph" in out  # blank line between records
        check_golden("sample_dot.txt", out)

    def test_sexpr_format_equivalent_to_prefix(self, capsys):
        base = ["--degrees", "0:4,1:1,2:1,3:1", "--seed", "21", "--count", "6"]
        _, prefix_out, _ = run(["sample", *base], capsys)
        _, sexpr_out, _ = run(["sample", *base, "--format", "sexpr"], capsys)
        prefix_codes = [
            [int(tok) for tok in line.split()] for line in prefix_out.splitlines()
        ]
        sexpr_codes = [parse_sexpr(line) for line in sexpr_out.splitlines()]
        assert prefix_codes == sexpr_codes


class TestNodeBound:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--seed", "1"],
            ["stats", "--samples", "10", "--seed", "1"],
            ["fuzz-expr", "--alphabet", ALPHABET, "--seed", "1"],
            ["count"],
        ],
        ids=["sample", "stats", "fuzz-expr", "count"],
    )
    def test_trillion_nodes_refused_at_once(self, capsys, argv):
        spec = f"0:{10**12 + 1},2:{10**12}"
        start = time.perf_counter()
        code, out, err = run([argv[0], "--degrees", spec, *argv[1:]], capsys)
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err == (
            f"degtree: error: {2 * 10**12 + 1} nodes exceeds the node bound "
            f"of {cli._MAX_NODES}\n"
        )

    def test_bound_admits_its_own_size(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_NODES", 7)
        assert run(["sample", "--degrees", "0:4,1:1,2:1,3:1", "--seed", "1"], capsys)[0] == 0
        code, out, err = run(["sample", "--degrees", "0:4,1:2,2:1,3:1", "--seed", "1"], capsys)
        assert (code, out) == (3, "")
        assert "8 nodes exceeds the node bound of 7" in err

    def test_check_takes_any_size(self, capsys):
        spec = f"0:{10**12 + 1},2:{10**12}"
        assert run(["check", "--degrees", spec], capsys) == (
            0, "charge=1 constructible=true\n", ""
        )


class TestCount:
    def test_catalan_instance(self, capsys):
        assert run(["count", "--degrees", "0:4,2:3"], capsys) == (0, "5\n", "")

    def test_mixed_instance(self, capsys):
        assert run(["count", "--degrees", "0:4,1:1,2:1,3:1"], capsys) == (0, "30\n", "")

    def test_infeasible(self, capsys):
        code, _, err = run(["count", "--degrees", "0:1,2:1"], capsys)
        assert code == 2
        assert "charge 0" in err

    def test_count_beyond_the_int_string_limit(self, capsys):
        # Catalan(10000) has 6015 digits; Python 3.11 refuses str() of an
        # int over 4300 digits, so read the printed digits back in chunks
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run(["count", "--degrees", "0:10001,2:10000"], capsys)
        assert (code, err) == (0, "")
        digits = out.rstrip("\n")
        assert digits.isdigit() and len(digits) > 4300
        value = 0
        for start in range(0, len(digits), 1000):
            chunk = digits[start : start + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        assert value == comb(20000, 10000) // 10001
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


# D = 4000 nines: every entry of D:D is within Python's 4300-digit limit
# on int <-> str conversion, but the charge D - D*D has 8000 digits
_NINES = "9" * 4000
# (10**4000 - 1) * (10**4000 - 2), written out by hand
_NINES_CHARGE = "-" + "9" * 3999 + "7" + "0" * 3999 + "2"
# 10**4300 leaves and 10**4300 - 1 binary nodes: a tree of 4301-digit size
_HUGE_TREE = f"0:{'9' * 4300},0:1,2:{'9' * 4300}"


class TestIntStringLimit:
    def test_check_prints_every_digit_of_the_charge(self, capsys):
        code, out, err = run(["check", "--degrees", f"{_NINES}:{_NINES}"], capsys)
        assert (code, err) == (2, "")
        assert out == f"charge={_NINES_CHARGE} constructible=false\n"
        assert len(_NINES_CHARGE) == 8001

    def test_enumerate_infeasible(self, capsys):
        code, out, err = run(["enumerate", "--degrees", f"{_NINES}:{_NINES}"], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"degtree: error: degree multiset has charge {_NINES_CHARGE}, expected 1; "
            "no tree uses all of its nodes\n"
        )

    @pytest.mark.parametrize(
        "argv, bound",
        [(["enumerate"], "exhaustive enumeration bound of 10"),
         (["sample", "--seed", "1"], f"node bound of {cli._MAX_NODES}")],
        ids=["enumerate", "sample"],
    )
    def test_node_counts_past_the_limit(self, capsys, argv, bound):
        code, out, err = run([argv[0], "--degrees", _HUGE_TREE, *argv[1:]], capsys)
        assert (code, out) == (3, "")
        assert err == f"degtree: error: 1{'9' * 4299}9 nodes exceeds the {bound}\n"

    def test_entry_past_the_limit_is_named(self, capsys):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this Python has no int-to-str digit limit")
        digits = limit + 100
        code, out, err = run(["check", "--degrees", f"0:{'9' * digits}"], capsys)
        assert (code, out) == (1, "")
        assert f"{digits}-digit entry" in err
        assert f"Python's {limit}-digit limit" in err
        # a non-integer entry stays one, however long
        code, _, err = run(["check", "--degrees", f"0:{'9' * digits}x"], capsys)
        assert code == 1
        assert "non-integer entry" in err


class TestEnumerate:
    def test_sorted_output(self, capsys):
        code, out, _ = run(["enumerate", "--degrees", "0:3,2:2"], capsys)
        assert code == 0
        assert out == "2 0 2 0 0\n2 2 0 0 0\n"

    def test_golden_thirty(self, capsys):
        code, out, _ = run(["enumerate", "--degrees", "0:4,1:1,2:1,3:1"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 30
        assert lines == sorted(lines)
        check_golden("enumerate_prefix.txt", out)

    def test_golden_sexpr(self, capsys):
        code, out, _ = run(
            ["enumerate", "--degrees", "0:3,2:2", "--format", "sexpr"], capsys
        )
        assert code == 0
        check_golden("enumerate_sexpr.txt", out)

    @pytest.mark.parametrize("spec", ["0", "0,1", "0:4,1:1,2:1,3:1", "0:9,9:1"])
    def test_prefix_lines_equal_the_library_trees(self, capsys, spec):
        # every degree is below 10, so these take sample's digit writer
        code, out, err = run(["enumerate", "--degrees", spec], capsys)
        trees = enumerate_trees(parse_degree_spec(spec))
        assert (code, err) == (0, "")
        assert out.split("\n") == [" ".join(map(str, tree)) for tree in trees] + [""]

    def test_infeasible(self, capsys):
        code, _, err = run(["enumerate", "--degrees", "0:2,2:2"], capsys)
        assert code == 2
        assert "charge" in err

    def test_too_large(self, capsys):
        code, _, err = run(["enumerate", "--degrees", "0:6,2:5"], capsys)
        assert code == 3
        assert "exceeds" in err


class TestStats:
    def test_golden(self, capsys):
        args = ["stats", "--degrees", "0:3,2:2", "--samples", "200", "--seed", "1"]
        code, out, err = run(args, capsys)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["samples"] == 200
        assert payload["seed"] == 1
        assert sum(payload["counts"]) == 200
        check_golden("stats.txt", out)
        assert run(args, capsys) == (code, out, err)

    def test_too_large(self, capsys):
        code, _, err = run(
            ["stats", "--degrees", "0:6,2:5", "--samples", "10", "--seed", "1"], capsys
        )
        assert code == 3
        assert "exceeds" in err

    def test_samples_required(self, capsys):
        code, _, err = run(["stats", "--degrees", "0:3,2:2"], capsys)
        assert code == 1
        assert "--samples" in err

    def test_non_positive_samples_is_usage_error(self, capsys):
        code, _, err = run(
            ["stats", "--degrees", "0:3,2:2", "--samples", "0", "--seed", "1"], capsys
        )
        assert code == 1
        assert "positive" in err


class TestIntegerGrammar:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "--degrees", "٠:٢,٢:١"], "non-integer entry '٠'"),  # Arabic-Indic digits
            (["check", "--degrees", "０:2,2:1"], "non-integer entry '０'"),  # fullwidth
            (["check", "--degrees", "0_0:2,2:1"], "non-integer entry '0_0'"),
            (["check", "--degrees", "0,0,²"], "non-integer entry '²'"),
            (["sample", "--degrees", "0:2,2:1", "--seed", "٧"], "argument --seed: invalid int value: '٧'"),
            (["sample", "--degrees", "0:2,2:1", "--seed", " +0_7 "], "invalid int value: ' +0_7 '"),
            (["sample", "--degrees", "0:2,2:1", "--seed", "+-7"], "invalid int value: '+-7'"),
            (["sample", "--degrees", "0:2,2:1", "--count", "１"], "expected a positive integer, got '１'"),
            (["stats", "--degrees", "0:2,2:1", "--samples", "3_0"], "expected a positive integer, got '3_0'"),
            (["fuzz-expr", "--degrees", "0:2,2:1", "--alphabet", ALPHABET, "--count", " 2"],
             "expected a positive integer, got ' 2'"),
        ],
        ids=["arabic_indic", "fullwidth", "underscore", "superscript", "seed_arabic_indic", "seed_underscore",
             "seed_two_signs", "count_fullwidth", "samples_underscore", "count_space"],
    )
    def test_only_ascii_digits_are_integers(self, capsys, argv, message):
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert message in err
        assert "seed=" not in err

    def test_a_sign_and_spaces_around_entries_are_kept(self, capsys):
        assert run(["check", "--degrees", " +0 : 2 , 2:+1 "], capsys) == (0, "charge=1 constructible=true\n", "")
        argv = ["sample", "--degrees", "0:4,1:1,2:1,3:1", "--count", "+3"]
        assert run([*argv, "--seed", "+7"], capsys) == run([*argv, "--seed", "7"], capsys)


class TestFuzzExpr:
    def test_golden_prefix(self, capsys):
        code, out, err = run(
            [
                "fuzz-expr", "--degrees", "0:4,1:1,2:1,3:1", "--alphabet", ALPHABET,
                "--seed", "3", "--count", "5",
            ],
            capsys,
        )
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 5
        check_golden("fuzz_prefix.txt", out)

    def test_golden_infix(self, capsys):
        code, out, _ = run(
            [
                "fuzz-expr", "--degrees", "0:4,1:1,2:1,3:1", "--alphabet", ALPHABET,
                "--seed", "3", "--count", "5", "--style", "infix",
            ],
            capsys,
        )
        assert code == 0
        check_golden("fuzz_infix.txt", out)

    def test_missing_arity_is_a_usage_error(self, capsys, tmp_path):
        sparse = tmp_path / "sparse.json"
        sparse.write_text('{"0": ["x"], "2": ["+"]}')
        # the second spec misses arities 3 and 5: the smaller one is named
        for degrees, message in [
            ("0:4,1:1,2:1,3:1", "arity"),
            ("0:8,2:1,3:1,5:1", "alphabet defines no symbols for arity 3"),
        ]:
            code, out, err = run(
                [
                    "fuzz-expr", "--degrees", degrees,
                    "--alphabet", str(sparse), "--seed", "1",
                ],
                capsys,
            )
            assert code == 1, degrees
            assert out == "", degrees
            assert message in err, degrees

    def test_unreadable_alphabet(self, capsys, tmp_path):
        code, _, err = run(
            [
                "fuzz-expr", "--degrees", "0,0,2",
                "--alphabet", str(tmp_path / "missing.json"), "--seed", "1",
            ],
            capsys,
        )
        assert code == 1
        assert "alphabet" in err

    def test_invalid_json_alphabet(self, capsys, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        code, _, err = run(
            ["fuzz-expr", "--degrees", "0,0,2", "--alphabet", str(broken), "--seed", "1"],
            capsys,
        )
        assert code == 1
        assert "JSON" in err

    @pytest.mark.parametrize(
        "content",
        [None, "", b"{not json", b"\xff\xfe{", b'{"0": [' + b"9" * 5000 + b'], "2": ["+"]}', b"[" * 100_000],
        ids=["missing", "directory", "not_json", "not_utf8", "digit_limit", "nested"],
    )
    def test_alphabet_read_errors_are_one_line(self, capsys, tmp_path, content):
        # each file that cannot be read as JSON: the nested one used to end in
        # a traceback, and the not_utf8 and digit_limit ones did not name the file
        if content and b"9" * 5000 in content and not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
            pytest.skip("this Python has no int-to-str digit limit below 5000 digits")
        path = tmp_path / "alphabet.json"
        if content == "":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        code, out, err = run(["fuzz-expr", "--degrees", "0:2,2:1", "--alphabet", str(path), "--seed", "1"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"degtree: error: cannot read alphabet file {str(path)!r} as JSON: "), err
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, arity",
        [
            ('{"0": ["x"], "00": ["y"], "2": ["+"]}', 0),
            ('{"0": ["x"], "0": ["y"], "2": ["+"]}', 0),
            ('{"0": ["x"], "-0": ["y"], "2": ["+"]}', 0),
            ('{"0": ["x"], " 2 ": ["*"], "2": ["+"]}', 2),
        ],
    )
    def test_arity_given_twice(self, capsys, tmp_path, text, arity):
        # the later entry used to replace the earlier one without a word
        twice = tmp_path / "twice.json"
        twice.write_text(text)
        code, out, err = run(
            ["fuzz-expr", "--degrees", "0,0,2", "--alphabet", str(twice), "--seed", "1"],
            capsys,
        )
        assert (code, out) == (1, "")
        assert f"arity {arity} more than once" in err

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"\u0660": ["x"], "2": ["+"]}', "\u0660"),  # Arabic-Indic zero
            ('{"0": ["x"], "\uff12": ["+"]}', "\uff12"),  # fullwidth two
            ('{"0_0": ["x"], "2": ["+"]}', "0_0"),
            ('{"0": ["x"], "2.0": ["+"]}', "2.0"),
            ('{" ": ["x"], "2": ["+"]}', " "),
        ],
        ids=["arabic_indic_zero", "fullwidth_two", "underscore", "decimal_point", "blank"],
    )
    def test_arity_key_is_an_ascii_integer(self, capsys, tmp_path, text, key):
        # only an optional sign and ASCII digits name an arity; int() read the first three as 0 or 2
        alphabet = tmp_path / "alphabet.json"
        alphabet.write_text(text, encoding="utf-8")
        code, out, err = run(
            ["fuzz-expr", "--degrees", "0:2,2:1", "--alphabet", str(alphabet), "--seed", "1"], capsys
        )
        assert (code, out) == (1, "")
        assert err == f"degtree: error: alphabet arity key {key!r} is not an integer\n"

    def test_arity_key_past_the_limit_is_an_alphabet_error(self, capsys, tmp_path):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this Python has no int-to-str digit limit")
        alphabet = tmp_path / "alphabet.json"
        alphabet.write_text(json.dumps({"0": ["x"], "9" * (limit + 1): ["+"], "2": ["+"]}))
        code, out, err = run(
            ["fuzz-expr", "--degrees", "0:2,2:1", "--alphabet", str(alphabet), "--seed", "1"], capsys
        )
        assert (code, out) == (1, "")
        assert err == f"degtree: error: alphabet arity key of {limit + 1} characters exceeds Python's digit limit\n"

    def test_alphabet_must_be_an_object(self, capsys, tmp_path):
        pairs = tmp_path / "pairs.json"
        pairs.write_text('[["0", ["x"]], ["2", ["+"]]]')
        code, _, err = run(
            ["fuzz-expr", "--degrees", "0,0,2", "--alphabet", str(pairs), "--seed", "1"],
            capsys,
        )
        assert code == 1
        assert "JSON object" in err


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 1

    def test_no_command(self, capsys):
        assert run([], capsys)[0] == 1

    def test_missing_degrees(self, capsys):
        assert run(["sample"], capsys)[0] == 1

    def test_bad_format_choice(self, capsys):
        code, _, err = run(
            ["sample", "--degrees", "0", "--format", "xml", "--seed", "1"], capsys
        )
        assert code == 1
        assert "invalid choice" in err

    def test_bad_degree_spec(self, capsys):
        code, _, err = run(["check", "--degrees", "zero"], capsys)
        assert code == 1
        assert "degree spec" in err

    def test_help_exits_zero(self, capsys):
        assert run(["--help"], capsys)[0] == 0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sample", "--degrees", "0,0,2", "--count", "-3"], "positive"),
            (["sample", "--degrees", "0,0,2", "--seed", str(2**64 + 7)], "2**64"),
            (["stats", "--degrees", "0:3,2:2", "--samples", "-1"], "positive"),
        ],
        ids=["negative_count", "seed_beyond_64_bits", "negative_samples_unseeded"],
    )
    def test_out_of_range_numbers_rejected_before_any_work(self, capsys, argv, message):
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert message in err
        assert "seed=" not in err


_GOLDEN_CASES = [
    (["sample", "--degrees", "0:4,1:1,2:1,3:1", "--seed", "7", "--count", "5"], "sample_prefix.txt"),
    (["sample", "--degrees", "0:4,1:1,2:1,3:1", "--seed", "7", "--count", "5", "--format", "sexpr"],
     "sample_sexpr.txt"),
    (["sample", "--degrees", "0:4,1:1,2:1,3:1", "--seed", "7", "--count", "3", "--format", "json"],
     "sample_json.txt"),
    (["sample", "--degrees", "0:4,1:1,2:1,3:1", "--seed", "7", "--count", "2", "--format", "dot"],
     "sample_dot.txt"),
    (["enumerate", "--degrees", "0:4,1:1,2:1,3:1"], "enumerate_prefix.txt"),
    (["enumerate", "--degrees", "0:3,2:2", "--format", "sexpr"], "enumerate_sexpr.txt"),
    (["stats", "--degrees", "0:3,2:2", "--samples", "200", "--seed", "1"], "stats.txt"),
    (["fuzz-expr", "--degrees", "0:4,1:1,2:1,3:1", "--alphabet", ALPHABET, "--seed", "3", "--count", "5"],
     "fuzz_prefix.txt"),
    (["fuzz-expr", "--degrees", "0:4,1:1,2:1,3:1", "--alphabet", ALPHABET, "--seed", "3", "--count", "5",
      "--style", "infix"], "fuzz_infix.txt"),
]

# md5s of outputs too long for golden files, also checked against the
# installed console script in .github/workflows/tests.yml
_BIG_TREE = "0:120001,1:90000,2:60000,3:30000"


def _seed_of_max_word(position):
    """A seed whose word ``position`` (1-based) is ``2**64 - 1``, which
    ``next_below`` rejects for every bound but a power of two."""
    return str((unmix(2**64 - 1) - position * _GOLDEN) % 2**64)


# A run of 18-node expression trees takes 35 words a tree: 17 shuffle words, then 18 labels.
_FIRST_LABEL_REJECTED = _seed_of_max_word(18)
_SECOND_SHUFFLE_REJECTED = _seed_of_max_word(36)
# Word 35 is the first tree's last label, a leaf's.  tests/data/alphabet.json has 4 leaf symbols and
# next_below(4) takes 2**64 - 1, but the batch is redrawn: 2**64 - 1 is within 4 of 2**64.
_LEAF_SLIVER = _seed_of_max_word(35)
_PINNED_MD5 = [
    (["sample", "--degrees", "0:2,2:1", "--seed", "5", "--count", "300000"],
     "5f6aca0d5ba595b2a26ab67a99a46d6c"),
    # the largest 10-node space, 756 trees
    (["enumerate", "--degrees", "0:5,1:2,2:2,3:1"], "b9009aaf6ab8b5a99040ec184a701510"),
    (["enumerate", "--degrees", "0:5,1:2,2:2,3:1", "--format", "json"],
     "b3713d41189caa742dd3374407bc94e0"),
    # expression labels: 1001-node trees draw theirs in one batch, 7-node trees by next_below
    (["fuzz-expr", "--degrees", "0:501,2:500", "--alphabet", ALPHABET, "--seed", "1",
      "--count", "20", "--style", "infix"], "ffdae434e62335cef515195f77f4b724"),
    (["fuzz-expr", "--degrees", "0:4,1:1,2:1,3:1", "--alphabet", ALPHABET, "--seed", "3",
      "--count", "2000"], "a68809cedfb6b2e64c976e82934f22ee"),
    # the block writer: forests of small trees, whose blocks end mid-stream
    (["enumerate", "--degrees", "0:5,1:2,2:2,3:1", "--format", "sexpr"],
     "0a2c58d00b953e64717414199d8d1104"),
    (["enumerate", "--degrees", "0:5,1:2,2:2,3:1", "--format", "dot"],
     "f506549f5fdc50e7c5c75c9cfa42c5a9"),
    (["sample", "--degrees", "0:4,1:1,2:1,3:1", "--seed", "9", "--count", "3000", "--format", "json"],
     "654e82046c9e082c346a941051235530"),
    (["sample", "--degrees", "0:4,1:1,2:1,3:1", "--seed", "9", "--count", "3000", "--format", "dot"],
     "bda990fdea1e43370700cac6a7436075"),
    # prefix lines with degrees of 10 or more
    (["sample", "--degrees", "0:25,1:3,3:2,10:1,12:1", "--seed", "4", "--count", "2000"],
     "37873f34432257b25fbf1c2c2327c4ae"),
    # one 300 001-node tree, written in many chunks
    (["sample", "--degrees", _BIG_TREE, "--seed", "11", "--format", "sexpr"],
     "3ec240c0a13f5409f67ad160ec7b16a7"),
    (["sample", "--degrees", _BIG_TREE, "--seed", "11", "--format", "json"],
     "a23fc24de30613f7c5886f3aa90fc868"),
    (["sample", "--degrees", _BIG_TREE, "--seed", "11", "--format", "dot"],
     "0de22539b9337d6f776c7b9557c3a75e"),
    # chunks shuffled column by column: 5 chunks of 7281 10-node trees, 13 of 18-node trees
    (["stats", "--degrees", "0:5,1:2,2:2,3:1", "--samples", "30000", "--seed", "1"],
     "7ba9744d11bdb569ec8cd7018b792515"),
    (["sample", "--degrees", "0:9,1:3,2:4,3:2", "--seed", "12", "--count", "50000"],
     "b9769b3d2673fe7cf717900353efd4e5"),
    # one 800 001-node tree, past the node count from which the swap loop runs over bytes
    (["sample", "--degrees", "0:300001,1:300000,2:100000,3:100000", "--seed", "21"],
     "e1a2e441ff1b2a4ea91b3676b7376635"),
    # a degree above 255, in two batched chunks
    (["sample", "--degrees", "0:350,2:50,300:1", "--seed", "8", "--count", "200"],
     "263a0c10f288d19dc78901ec0a4f1527"),
    # 3 trees of 10 nodes draw 27 words, too few for a batch, and are tallied as one chunk
    (["stats", "--degrees", "0:5,1:2,2:2,3:1", "--samples", "3", "--seed", "1"],
     "d77222dcb3979e8847c618f2d7e6162e"),
    # chunks that are lists, with a degree above 255, through the structure pass and the dot writer
    (["sample", "--degrees", "0:350,2:50,300:1", "--seed", "8", "--count", "200", "--format", "sexpr"],
     "171be3c7dc22e6b8c4a3446871d9bd47"),
    (["sample", "--degrees", "0:350,2:50,300:1", "--seed", "8", "--count", "200", "--format", "dot"],
     "ba570be904efb70d98da50c145ed3a36"),
    # expression trees in runs: 2000 7-node trees, chunks of 100 18-node trees in both styles,
    # and 6501-node trees, which the block writer cuts into runs
    (["fuzz-expr", "--degrees", "0:4,1:1,2:1,3:1", "--alphabet", ALPHABET, "--seed", "3",
      "--count", "2000", "--style", "infix"], "0811a92683c4ef1486de72ff69aa4c55"),
    (["fuzz-expr", "--degrees", "0:9,1:3,2:4,3:2", "--alphabet", ALPHABET, "--seed", "12",
      "--count", "100"], "8aa5fe938f89c5528004872700d92221"),
    (["fuzz-expr", "--degrees", "0:9,1:3,2:4,3:2", "--alphabet", ALPHABET, "--seed", "12",
      "--count", "100", "--style", "infix"], "5767ffbd9e9ce73b1f057672224bbad4"),
    (["fuzz-expr", "--degrees", "0:3001,1:1000,2:2000,3:500", "--alphabet", ALPHABET, "--seed", "5",
      "--count", "2", "--style", "infix"], "0f4351f62ff6b4ae1335572b2c2b7a0a"),
    # a rejected word rewinds the chunk: the first tree's first label, the second tree's first shuffle word
    (["fuzz-expr", "--degrees", "0:9,1:3,2:4,3:2", "--alphabet", ALPHABET_SINGLE,
      "--seed", _FIRST_LABEL_REJECTED, "--count", "100"], "52813f7a61ea82eb2fe72932e0aca56c"),
    (["fuzz-expr", "--degrees", "0:9,1:3,2:4,3:2", "--alphabet", ALPHABET_SINGLE,
      "--seed", _SECOND_SHUFFLE_REJECTED, "--count", "100", "--style", "infix"],
     "749d925261dae9eb9f47ced0cc0dd660"),
    # a word next_below takes but the batch does not, in the row loop and in the column kernel
    (["fuzz-expr", "--degrees", "0:9,1:3,2:4,3:2", "--alphabet", ALPHABET, "--seed", _LEAF_SLIVER,
      "--count", "63"], "61f53f5dad5e5e14bf43300d31f5852f"),
    (["fuzz-expr", "--degrees", "0:9,1:3,2:4,3:2", "--alphabet", ALPHABET, "--seed", _LEAF_SLIVER,
      "--count", "100"], "cc52492b1c8745b9960e8c28b4dcd3ad"),
    # a one-symbol arity, whose nodes still take one word each
    (["fuzz-expr", "--degrees", "0:4,1:1,2:1,3:1", "--alphabet", ALPHABET_SINGLE, "--seed", "2",
      "--count", "50", "--style", "infix"], "f1284044e03783f73342e8071510f21b"),
]


@pytest.mark.parametrize(
    "argv, md5", _PINNED_MD5,
    ids=["sample_300000", "enumerate_756", "enumerate_756_json", "fuzz_batched", "fuzz_scalar",
         "enumerate_756_sexpr", "enumerate_756_dot", "forest_json", "forest_dot", "wide_prefix",
         "chunks_sexpr", "chunks_json", "chunks_dot", "column_stats", "column_sample", "byte_swap",
         "wide_degree", "row_stats", "wide_degree_sexpr", "wide_degree_dot", "fuzz_infix_2000",
         "fuzz_chunk", "fuzz_chunk_infix", "fuzz_runs_infix", "fuzz_label_rejected",
         "fuzz_shuffle_rejected", "fuzz_sliver_rows", "fuzz_sliver_columns", "fuzz_one_symbol"],
)
def test_pinned_output_md5(capsys, argv, md5):
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert hashlib.md5(out.encode()).hexdigest() == md5


@pytest.mark.parametrize("style", ["prefix", "infix"])
@pytest.mark.parametrize("seed", ["7", _FIRST_LABEL_REJECTED, _SECOND_SHUFFLE_REJECTED],
                         ids=["seed_7", "label_rejected", "shuffle_rejected"])
@pytest.mark.parametrize(
    "spec, count",
    [
        ("0:4,1:1,2:1,3:1", 3),  # 18 shuffle words, too few for a batch
        ("0:4,1:1,2:1,3:1", 6),  # 36: one batch of 6 rows
        ("0:4,1:1,2:1,3:1", 700),  # rows by the column kernel
        ("0:9,1:3,2:4,3:2", 63),  # the row loop's widest chunk
        ("0:9,1:3,2:4,3:2", 64),  # the column kernel's narrowest
        ("0:9,1:3,2:4,3:2", 5000),  # 2 chunks, the second of 1145 rows
        ("0:1", 40),  # one-node trees: no shuffle word, one label each
        ("0:37,1:5,2:20,3:5,4:2", 2),  # 69 nodes: a batched single row
        ("0:2601,1:400,2:1000,3:800", 1),  # 4801 nodes, which the writer cuts into runs
        ("0:300,1:4,300:1", 3),  # a degree above 255: a chunk of lists
    ],
)
def test_batched_expressions_equal_one_tree_at_a_time(tmp_path, monkeypatch, capsys, spec, count, seed, style):
    alphabet_path = tmp_path / "alphabet.json"
    table = json.loads(Path(ALPHABET_SINGLE).read_text())
    alphabet_path.write_text(json.dumps({**table, "4": ["p", "q", "r"], "300": ["wide", "w"]}))
    source = _fuzz_equals_the_chain(monkeypatch, capsys, spec, str(alphabet_path), seed, count, style)
    if spec == "0:9,1:3,2:4,3:2":  # the trees the rejected words were placed for
        assert source.rewinds == (seed != "7")


@pytest.mark.parametrize("style", ["prefix", "infix"])
@pytest.mark.parametrize("count", [63, 100], ids=["rows", "columns"])
def test_sliver_word_rewinds_the_batch_once(monkeypatch, capsys, count, style):
    source = _fuzz_equals_the_chain(monkeypatch, capsys, "0:9,1:3,2:4,3:2", ALPHABET, _LEAF_SLIVER, count, style)
    assert (source.rewinds, source.words_consumed) == (1, 35 * count)


def _fuzz_equals_the_chain(monkeypatch, capsys, spec, alphabet_path, seed, count, style):
    # fuzz-expr's output and words against the reference, one tree then its labels on one
    # stream; returns the RecordingSource the command drew from
    sources = []
    monkeypatch.setattr(cli, "_make_source", lambda s: sources.append(RecordingSource(s)) or sources[-1])
    code, out, err = run(["fuzz-expr", "--degrees", spec, "--alphabet", alphabet_path, "--seed", seed,
                          "--count", str(count), "--style", style], capsys)
    assert (code, err) == (0, "")
    multiset, alphabet, source = parse_degree_spec(spec), cli.load_alphabet(alphabet_path), RandomSource(int(seed))
    expected = [render_expression(sample_tree(multiset, source), alphabet, source, style) for _ in range(count)]
    assert out.split("\n") == [*expected, ""]  # lines, which pytest compares faster than long text
    assert sources[0].words_consumed == source.words_consumed
    return sources[0]


# Calls that end in each exit path, run between the golden cases
_INTERLEAVED = [
    (["frobnicate"], 1),
    (["--help"], 0),
    (["sample", "--degrees", "0", "--format", "xml", "--seed", "1"], 1),
    (["count", "--degrees", "0,0"], 2),
    (["sample", "--degrees", "0:10000001"], 3),
]
_UNSEEDED = ["sample", "--degrees", "0:4,1:1,2:1,3:1", "--count", "3"]


class TestRepeatedMain:
    def test_every_call_behaves_like_a_fresh_one(self, capsys):
        steps = list(zip(_GOLDEN_CASES, _INTERLEAVED * 2))
        passes = []
        for _ in range(2):
            results = []
            for (argv, _), (between, _) in steps:
                results += [run(argv, capsys), run(between, capsys)]
                code, out, err = run(_UNSEEDED, capsys)
                assert code == 0 and len(out.splitlines()) == 3
                assert re.fullmatch(r"seed=\d+\n", err), err
                assert run([*_UNSEEDED, "--seed", err[5:-1]], capsys) == (0, out, "")
            passes.append(results)
        calls = [call for (argv, _), (between, _) in steps for call in (argv, between)]
        for argv, first, again in zip(calls, *passes):
            same = first == again  # a flag, not the texts: pytest's diff of long texts can take minutes
            assert same, argv
        for ((_, name), (between, exit_code)), golden, other in zip(steps, passes[0][::2], passes[0][1::2]):
            assert (golden[0], golden[2]) == (0, ""), name
            check_golden(name, golden[1])
            assert other[0] == exit_code, between

    def test_build_parser_returns_a_new_parser(self, capsys):
        assert cli.build_parser() is not cli.build_parser()
        expected = (0, "charge=1 constructible=true\n", "")
        argv = ["check", "--degrees", "0,0,2"]
        assert run(argv, capsys) == expected
        parser = cli.build_parser()
        parser.set_defaults(handler=lambda args: 99)
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for sub in commands.choices.values():
            sub.set_defaults(handler=lambda args: 99)
        assert run(argv, capsys) == expected


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "degtree", "check", "--degrees", "0,0,2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "charge=1 constructible=true\n"


_NUMPY_PROBE = """
import json, sys
import degtree
loaded = ["numpy" in sys.modules]
from degtree.cli import main
loaded.append("numpy" in sys.modules)
code = main(sys.argv[1:])
loaded.append("numpy" in sys.modules)
print(json.dumps([code, loaded, "secrets" in sys.modules]))
"""


@pytest.mark.parametrize(
    "argv, code, uses_numpy",
    [
        (["check", "--degrees", "0:4,1:1,2:1,3:1"], 0, False),
        (["enumerate", "--degrees", "0:5,1:2,2:2,3:1"], 0, False),
        (["enumerate", "--degrees", "0:5,1:2,2:2,3:1", "--format", "json"], 0, False),
        (["enumerate", "--degrees", "0:5,1:2,2:2,3:1", "--format", "dot"], 0, False),
        (["enumerate", "--degrees", "0:5,1:2,2:2,3:1", "--format", "sexpr"], 0, False),
        # 3 trees of 7 nodes draw 18 shuffle words, too few for a batch
        (["fuzz-expr", "--degrees", "0:4,1:1,2:1,3:1", "--alphabet", ALPHABET, "--seed", "1",
          "--count", "3", "--style", "infix"], 0, False),
        # 7 nodes draw 6 words, too few for a batch
        (["sample", "--degrees", "0:4,1:1,2:1,3:1", "--seed", "1"], 0, False),
        (["--help"], 0, False),
        (["sample", "--degrees", "zero"], 1, False),
        (["count", "--degrees", "0,0"], 2, False),
        # 33 nodes draw 32 words, one batch
        (["sample", "--degrees", "0:17,2:16", "--seed", "1"], 0, True),
        (["count", "--degrees", "0:4,2:3"], 0, True),
        # 3 trees of 10 nodes draw 27 words, too few for a batch; 100 trees are one batch
        (["stats", "--degrees", "0:5,1:2,2:2,3:1", "--samples", "3", "--seed", "1"], 0, False),
        (["stats", "--degrees", "0:5,1:2,2:2,3:1", "--samples", "100", "--seed", "1"], 0, True),
        # the only case that draws a seed from entropy
        (["sample", "--degrees", "0:4,1:1,2:1,3:1"], 0, False),
    ],
    ids=["check", "enumerate", "enumerate_json", "enumerate_dot", "enumerate_sexpr", "small_fuzz_expr",
         "small_sample", "help", "usage_error", "infeasible", "batched_sample", "count",
         "small_stats", "batched_stats", "unseeded_sample"],
)
def test_numpy_is_loaded_only_by_batches_and_count(argv, code, uses_numpy):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    result = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    # secrets is loaded only to draw a seed when none is given
    unseeded = argv[0] == "sample" and code == 0 and "--seed" not in argv
    assert report == [code, [False, False, uses_numpy], unseeded]


_DECIMAL_PROBE = """
import json, sys
from degtree.cli import main
loaded = ["decimal" in sys.modules]
code = main(sys.argv[1:])
loaded.append("decimal" in sys.modules)
print(json.dumps([code, loaded]))
"""


@pytest.mark.parametrize(
    "argv, code, uses_decimal",
    [
        (["check", "--degrees", "0:4,1:1,2:1,3:1"], 0, False),
        (["sample", "--degrees", "0:4,1:1,2:1,3:1", "--seed", "1"], 0, False),
        (["sample", "--degrees", "0:9,1:3,2:4,3:2", "--seed", "1", "--count", "100"], 0, False),
        (["stats", "--degrees", "0:4,1:1,2:1,3:1", "--samples", "100", "--seed", "1"], 0, False),
        (["count", "--degrees", "0,0"], 2, False),
        (["count", "--degrees", "0:4,2:3"], 0, True),
        # a charge of 8001 digits, past the int-to-str digit limit where there is one
        (["check", "--degrees", "9" * 4000 + ":" + "9" * 4000], 2,
         0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 8001),
    ],
    ids=["check", "small_sample", "column_sample", "stats", "infeasible_count", "count", "long_charge"],
)
def test_decimal_is_loaded_only_by_count_and_long_numbers(argv, code, uses_decimal):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    result = subprocess.run(
        [sys.executable, "-c", _DECIMAL_PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == [code, [False, uses_decimal]]


_MODULE_PROBE = """
import sys
watched = {"dataclasses", "inspect", "typing", "json"}
loaded = [sorted(watched & set(sys.modules))]
from degtree.cli import main
loaded.append(sorted(watched & set(sys.modules)))
code = main(sys.argv[1:]) if sys.argv[1:] else 0
loaded.append(sorted(watched & set(sys.modules)))
import json
print(json.dumps([code, loaded]))
"""


@pytest.mark.parametrize(
    "argv, uses_json",
    [
        ([], False),
        (["check", "--degrees", "0:4,1:1,2:1,3:1"], False),
        (["sample", "--degrees", "0:4,1:1,2:1,3:1", "--seed", "1"], False),
        (["enumerate", "--degrees", "0:5,1:2,2:2,3:1"], False),
        (["enumerate", "--degrees", "0:5,1:2,2:2,3:1", "--format", "json"], False),
        # the alphabet file is JSON
        (["fuzz-expr", "--degrees", "0:4,1:1,2:1,3:1", "--alphabet", ALPHABET, "--seed", "1",
          "--count", "3", "--style", "infix"], True),
        (["stats", "--degrees", "0:5,1:2,2:2,3:1", "--samples", "3", "--seed", "1"], True),
    ],
    ids=["import", "check", "small_sample", "enumerate", "enumerate_json", "small_fuzz_expr", "small_stats"],
)
def test_start_up_loads_no_dataclasses_inspect_or_typing(argv, uses_json):
    # -S, since site (through .pth files) may load typing and json itself;
    # PYTHONPATH still applies
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    result = subprocess.run(
        [sys.executable, "-S", "-c", _MODULE_PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == [0, [[], [], ["json"] if uses_json else []]]


@pytest.mark.parametrize(
    "argv, lines_read",
    [
        # about 800 kB of expressions, far more than a pipe holds, so
        # writes go on after the reader has closed the pipe
        (["fuzz-expr", "--degrees", "0:501,2:500", "--alphabet", ALPHABET,
          "--seed", "1", "--count", "400"], 1),
        # one line, which buffered stdout writes only when it is flushed
        (["check", "--degrees", "0,0,2"], 0),
        # a billion trees, which end in seconds only if they are drawn and
        # written as a stream
        (["sample", "--degrees", "0:2,2:1", "--seed", "1", "--count", "1000000000"], 1),
        (["sample", "--degrees", "0:2,2:1", "--seed", "1", "--count", "1000000000",
          "--format", "sexpr"], 1),
    ],
    ids=["long_output", "buffered_output", "streamed_prefix", "streamed_sexpr"],
)
def test_closed_stdout_exits_without_traceback(argv, lines_read):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with subprocess.Popen(
        [sys.executable, "-m", "degtree", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    ) as process:
        for _ in range(lines_read):
            assert process.stdout.readline()
        process.stdout.close()
        try:
            stderr = process.communicate(timeout=60)[1]
        except subprocess.TimeoutExpired:
            process.kill()
            raise
    assert process.returncode == 1
    assert stderr == ""
