"""Command-line front-end for sampling, counting, checking, and fuzzing.

Exit codes: 0 success, 1 usage or input parsing errors, 2 infeasible
degree constraints, 3 enumeration size bound exceeded.
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys
from typing import Sequence

from .codec import OperatorAlphabet, render_expression, to_dot, to_json, to_sexpr
from .degrees import DegreeMultiset
from .errors import (
    ChargeNotOneError,
    EnumerationTooLargeError,
    MissingArityError,
    NotConstructibleError,
)
from .oracle import count_trees, enumerate_trees
from .rng import RandomSource
from .sampling import sample_tree
from .stats import uniformity_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_TOO_LARGE = 3

_FORMATS = ("prefix", "sexpr", "dot", "json")


class DegreeSpecError(ValueError):
    """Unparseable --degrees text."""


class AlphabetError(ValueError):
    """Unusable --alphabet file."""


def parse_degree_spec(text: str) -> DegreeMultiset:
    """Parse ``0,0,1,2`` (list form) or ``0:2,1:1,2:1`` (multiset form).

    Multiset entries for a repeated degree accumulate.  Both forms of the
    same multiset behave identically downstream because sampling sorts the
    expansion before shuffling.
    """
    pieces = [piece.strip() for piece in text.split(",")]
    if not text.strip() or any(not piece for piece in pieces):
        raise DegreeSpecError(f"empty entry in degree spec {text!r}")
    counts: dict[int, int] = {}
    if any(":" in piece for piece in pieces):
        for piece in pieces:
            degree_text, sep, mult_text = piece.partition(":")
            if not sep:
                raise DegreeSpecError(
                    f"cannot mix list and degree:multiplicity entries in {text!r}"
                )
            degree = _parse_int(degree_text, text)
            multiplicity = _parse_int(mult_text, text)
            counts[degree] = counts.get(degree, 0) + multiplicity
    else:
        for piece in pieces:
            degree = _parse_int(piece, text)
            counts[degree] = counts.get(degree, 0) + 1
    try:
        return DegreeMultiset(counts)
    except ValueError as exc:
        raise DegreeSpecError(f"bad degree spec {text!r}: {exc}") from exc


def _parse_int(piece: str, spec: str) -> int:
    try:
        return int(piece.strip())
    except ValueError:
        raise DegreeSpecError(f"non-integer entry {piece!r} in degree spec {spec!r}") from None


def load_alphabet(path: str) -> OperatorAlphabet:
    """Load a JSON file mapping arity (string key) to a list of symbols."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise AlphabetError(f"cannot read alphabet file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise AlphabetError(f"alphabet file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise AlphabetError(f"alphabet file {path!r} must hold a JSON object")
    table: dict[int, list[str]] = {}
    for key, value in raw.items():
        try:
            arity = int(key)
        except ValueError:
            raise AlphabetError(f"alphabet arity key {key!r} is not an integer") from None
        if not isinstance(value, list):
            raise AlphabetError(f"alphabet entry for arity {key} must be a list")
        table[arity] = value
    try:
        return OperatorAlphabet(table)
    except ValueError as exc:
        raise AlphabetError(f"bad alphabet file {path!r}: {exc}") from exc


def _positive(text: str) -> int:
    """argparse ``type=`` accepting a positive integer."""
    try:
        if (value := int(text)) >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _make_source(seed: int | None) -> RandomSource:
    # With no --seed the run still has to be replayable, so the
    # entropy-drawn seed is announced on stderr.
    source = RandomSource(seed)
    if seed is None:
        print(f"seed={source.seed}", file=sys.stderr)
    return source


def _format_tree(code: Sequence[int], fmt: str) -> str:
    if fmt == "prefix":
        return " ".join(map(str, code))
    # built per call, so wrappers later set on these module names apply
    return {"sexpr": to_sexpr, "json": to_json, "dot": to_dot}[fmt](code)


def _emit_trees(codes, fmt: str) -> None:
    rendered = [_format_tree(code, fmt) for code in codes]
    if fmt == "dot":
        # dot records are multi-line; separate them with a blank line
        sys.stdout.write("\n".join(rendered))
    else:
        sys.stdout.write("\n".join(rendered) + "\n")


def _cmd_check(args: argparse.Namespace) -> int:
    multiset = parse_degree_spec(args.degrees)
    total_charge = multiset.charge
    constructible = total_charge == 1
    print(f"charge={total_charge} constructible={'true' if constructible else 'false'}")
    return EXIT_OK if constructible else EXIT_INFEASIBLE


def _cmd_sample(args: argparse.Namespace) -> int:
    multiset = parse_degree_spec(args.degrees)
    source = _make_source(args.seed)
    codes = [sample_tree(multiset, source) for _ in range(args.count)]
    _emit_trees(codes, args.format)
    return EXIT_OK


def _cmd_count(args: argparse.Namespace) -> int:
    multiset = parse_degree_spec(args.degrees)
    # str(int) stops at 4300 digits unless a process-wide limit is raised
    print(decimal.Decimal(count_trees(multiset)))
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    multiset = parse_degree_spec(args.degrees)
    total_charge = multiset.charge
    if total_charge != 1:
        raise NotConstructibleError(total_charge)
    codes = sorted(enumerate_trees(multiset))
    _emit_trees(codes, args.format)
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    multiset = parse_degree_spec(args.degrees)
    source = _make_source(args.seed)
    report = uniformity_report(multiset, args.samples, source)
    print(report.to_json())
    return EXIT_OK


def _cmd_fuzz_expr(args: argparse.Namespace) -> int:
    multiset = parse_degree_spec(args.degrees)
    alphabet = load_alphabet(args.alphabet)
    # every tree over the multiset uses every degree in it, so coverage
    # can be rejected before any output
    for degree in multiset.counts:
        alphabet.symbols_for(degree)
    source = _make_source(args.seed)
    for _ in range(args.count):
        code = sample_tree(multiset, source)
        print(render_expression(code, alphabet, source, style=args.style))
    return EXIT_OK


_EXIT_CODES = {
    ValueError: EXIT_USAGE,
    MissingArityError: EXIT_USAGE,
    NotConstructibleError: EXIT_INFEASIBLE,
    ChargeNotOneError: EXIT_INFEASIBLE,
    EnumerationTooLargeError: EXIT_TOO_LARGE,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this CLI reserves 2 for
    # infeasible degrees, so usage errors are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="degtree",
        description="Uniformly random ordered trees with prescribed outdegrees.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument(
            "--degrees",
            required=True,
            metavar="SPEC",
            help="degree list '0,0,1,2' or multiset '0:2,1:1,2:1'",
        )
        sub.set_defaults(handler=handler)
        return sub

    add("check", _cmd_check, "report charge and feasibility")

    sample = add("sample", _cmd_sample, "draw uniformly random trees")
    sample.add_argument("--seed", type=int, default=None, help="64-bit seed (default: entropy, echoed on stderr)")
    sample.add_argument("--count", type=_positive, default=1, metavar="N", help="number of trees (default 1)")
    sample.add_argument("--format", choices=_FORMATS, default="prefix")

    add("count", _cmd_count, "print the exact number of matching trees")

    enumerate_cmd = add("enumerate", _cmd_enumerate, "list every matching tree (small multisets)")
    enumerate_cmd.add_argument("--format", choices=_FORMATS, default="prefix")

    stats = add("stats", _cmd_stats, "sample repeatedly and report observed frequencies")
    stats.add_argument("--samples", type=_positive, required=True, metavar="N")
    stats.add_argument("--seed", type=int, default=None, help="64-bit seed (default: entropy, echoed on stderr)")

    fuzz = add("fuzz-expr", _cmd_fuzz_expr, "render random trees as operator expressions")
    fuzz.add_argument("--alphabet", required=True, metavar="FILE", help="JSON map from arity to symbol list")
    fuzz.add_argument("--seed", type=int, default=None, help="64-bit seed (default: entropy, echoed on stderr)")
    fuzz.add_argument("--count", type=_positive, default=1, metavar="N")
    fuzz.add_argument("--style", choices=("prefix", "infix"), default="prefix")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"degtree: error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
