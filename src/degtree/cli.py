"""Command-line front-end for sampling, counting, checking, and fuzzing.

Exit codes: 0 success, 1 usage or input parsing errors, 2 infeasible
degree constraints, 3 size bound exceeded: a multiset of more than
10 000 000 nodes for ``sample``, ``count``, ``stats`` and ``fuzz-expr``
(refused before anything is allocated or drawn), or more than the
enumeration bound for ``enumerate`` and ``stats``.  A reader that
closes stdout early (``degtree ... | head -1``) ends the run with exit
code 1 and no traceback.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Sequence
from itertools import chain

from .codec import OperatorAlphabet, _blocks
from .degrees import DegreeMultiset
from .errors import (
    ChargeNotOneError,
    EnumerationTooLargeError,
    MissingArityError,
    NotConstructibleError,
    _int_text,
)
from . import oracle
from .rng import RandomSource
# sample_tree unused here; bench test_names_rebound_by_import_are_traced wraps cli.sample_tree
from .sampling import _tree_chunks, sample_tree
from .stats import uniformity_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_TOO_LARGE = 3

_FORMATS = ("prefix", "sexpr", "dot", "json")

# Most nodes a multiset may have in sample, count, stats and fuzz-expr.  A
# 1e7-node prefix sample takes about 1.8 s and 190 MB on a 2-core box; far
# larger specs would only fail with a MemoryError, after a long allocation
# or none.
_MAX_NODES = 10_000_000


class DegreeSpecError(ValueError):
    """Unparseable --degrees text."""


class AlphabetError(ValueError):
    """Unusable --alphabet file."""


class _TooManyNodesError(Exception):
    """A multiset beyond the node bound."""


def parse_degree_spec(text: str) -> DegreeMultiset:
    """Parse ``0,0,1,2`` (list form) or ``0:2,1:1,2:1`` (multiset form).

    Each degree and multiplicity is an optional sign and ASCII digits
    ``0-9``; spaces around an entry or its ``:`` are ignored.  Multiset
    entries for a repeated degree accumulate; each entry's
    multiplicity must be at least 1.  Both forms of the
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
                raise DegreeSpecError(f"cannot mix list and degree:multiplicity entries in {text!r}")
            degree = _parse_int(degree_text.strip(), text)
            multiplicity = _parse_int(mult_text.strip(), text)
            if multiplicity < 1:
                raise DegreeSpecError(
                    f"multiplicity of degree {degree} must be positive, got {multiplicity} in {text!r}"
                )
            counts[degree] = counts.get(degree, 0) + multiplicity
    else:
        for piece in pieces:
            degree = _parse_int(piece, text)
            counts[degree] = counts.get(degree, 0) + 1
    try:
        return DegreeMultiset(counts)
    except ValueError as exc:
        raise DegreeSpecError(f"bad degree spec {text!r}: {exc}") from exc


def _integer(text: str) -> int | None:
    """The integer ``text`` spells as an optional sign and ASCII digits
    ``0-9``, or None for any other text, such as other scripts' digits,
    underscores or spaces.  Past Python's int-to-str digit limit (3.11 and
    later) ``int`` raises ValueError.
    """
    digits = text[1:] if text[:1] in ("+", "-") else text
    return int(text) if digits.isascii() and digits.isdigit() else None


def _parse_int(piece: str, spec: str) -> int:
    try:
        value = _integer(piece)
    except ValueError:
        digits, limit = len(piece.lstrip("+-")), sys.get_int_max_str_digits()
        raise DegreeSpecError(f"{digits}-digit entry in degree spec exceeds Python's {limit}-digit limit") from None
    if value is None:
        raise DegreeSpecError(f"non-integer entry {piece!r} in degree spec {spec!r}")
    return value


def load_alphabet(path: str) -> OperatorAlphabet:
    """Load a JSON file mapping arity (string key) to a list of symbols."""
    import json  # loaded only by fuzz-expr

    try:
        with open(path, encoding="utf-8") as handle:
            # objects as tuples of pairs, so a repeated key is kept, not dropped
            raw = json.load(handle, object_pairs_hook=tuple)
    except (OSError, ValueError, RecursionError) as exc:
        # unreadable, not UTF-8, not JSON, a number past the digit limit, or nested too deeply
        raise AlphabetError(f"cannot read alphabet file {path!r} as JSON: {exc}") from exc
    if not isinstance(raw, tuple):
        raise AlphabetError(f"alphabet file {path!r} must hold a JSON object")
    table: dict[int, list[str]] = {}
    for key, value in raw:
        try:
            arity = _integer(key.strip())
        except ValueError:
            raise AlphabetError(f"alphabet arity key of {len(key)} characters exceeds Python's digit limit") from None
        if arity is None:
            raise AlphabetError(f"alphabet arity key {key!r} is not an integer")
        if arity in table:  # "2" twice, or "0" and "00", " 0 " or "-0"
            raise AlphabetError(f"alphabet file {path!r} gives arity {arity} more than once")
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
        if (value := _integer(text) or 0) >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _seed(text: str) -> int:
    """argparse ``type=`` accepting an integer; RandomSource checks its range."""
    try:
        if (value := _integer(text)) is not None:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _make_source(seed: int | None) -> RandomSource:
    # With no --seed the run still has to be replayable, so the
    # entropy-drawn seed is announced on stderr.
    source = RandomSource(seed)
    if seed is None:
        print(f"seed={source.seed}", file=sys.stderr)
    return source


def _bounded_multiset(text: str) -> DegreeMultiset:
    # parse_degree_spec plus the node bound of every command whose work
    # grows with the node count
    multiset = parse_degree_spec(text)
    if multiset.total_nodes > _MAX_NODES:
        raise _TooManyNodesError(
            f"{_int_text(multiset.total_nodes)} nodes exceeds the node bound of {_MAX_NODES}"
        )
    return multiset


def _write_trees(chunks, fmt: str, multiset: DegreeMultiset, alphabet: OperatorAlphabet | None = None) -> None:
    # The writer for sample, enumerate and fuzz-expr, of chunks as
    # sampling._tree_chunks yields them: each block is written once built.
    if fmt == "prefix" and alphabet is None and max(multiset.counts) < 10:
        fmt = "digits"
    write, size = sys.stdout.write, multiset.total_nodes
    for text in _blocks(chunks, size, fmt, alphabet=alphabet):
        write(text)


def _cmd_check(args: argparse.Namespace) -> int:
    multiset = parse_degree_spec(args.degrees)
    total_charge = multiset.charge
    constructible = total_charge == 1
    print(f"charge={_int_text(total_charge)} constructible={'true' if constructible else 'false'}")
    return EXIT_OK if constructible else EXIT_INFEASIBLE


def _cmd_sample(args: argparse.Namespace) -> int:
    multiset = _bounded_multiset(args.degrees)
    source = _make_source(args.seed)
    _write_trees(_tree_chunks(multiset, source, args.count), args.format, multiset)
    return EXIT_OK


def _cmd_count(args: argparse.Namespace) -> int:
    multiset = _bounded_multiset(args.degrees)
    print(oracle._count_decimal(multiset))
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    multiset = parse_degree_spec(args.degrees)
    # enumerate_trees gives [] here, after its size check; this exits 2 first
    if multiset.charge != 1:
        raise NotConstructibleError(multiset.charge)
    _write_trees([bytes(chain.from_iterable(oracle.enumerate_trees(multiset)))], args.format, multiset)
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    multiset = _bounded_multiset(args.degrees)
    source = _make_source(args.seed)
    report = uniformity_report(multiset, args.samples, source)
    print(report.to_json())
    return EXIT_OK


def _cmd_fuzz_expr(args: argparse.Namespace) -> int:
    multiset = _bounded_multiset(args.degrees)
    alphabet = load_alphabet(args.alphabet)
    # every tree over the multiset uses every degree in it, so coverage
    # can be rejected before any output
    labels = alphabet._labels(multiset.counts)
    source = _make_source(args.seed)
    _write_trees(_tree_chunks(multiset, source, args.count, labels), args.style, multiset, alphabet)
    return EXIT_OK


_EXIT_CODES = {
    ValueError: EXIT_USAGE,
    MissingArityError: EXIT_USAGE,
    NotConstructibleError: EXIT_INFEASIBLE,
    ChargeNotOneError: EXIT_INFEASIBLE,
    EnumerationTooLargeError: EXIT_TOO_LARGE,
    _TooManyNodesError: EXIT_TOO_LARGE,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this CLI reserves 2 for
    # infeasible degrees, so usage errors are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the ``degtree`` command line on each call."""
    parser = _Parser(prog="degtree", description="Uniformly random ordered trees with prescribed outdegrees.")
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    # Each handler is bound here, when the parser is built: main() builds
    # it once per process, so rebinding a cli._cmd_* name after the first
    # main() call does not change which handler runs.
    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument(
            "--degrees", required=True, metavar="SPEC", help="degree list '0,0,1,2' or multiset '0:2,1:1,2:1'"
        )
        sub.set_defaults(handler=handler)
        return sub

    add("check", _cmd_check, "report charge and feasibility")

    sample = add("sample", _cmd_sample, "draw uniformly random trees")
    sample.add_argument("--seed", type=_seed, default=None, help="64-bit seed (default: entropy, echoed on stderr)")
    sample.add_argument("--count", type=_positive, default=1, metavar="N", help="number of trees (default 1)")
    sample.add_argument("--format", choices=_FORMATS, default="prefix")

    add("count", _cmd_count, "print the exact number of matching trees")

    enumerate_cmd = add("enumerate", _cmd_enumerate, "list every matching tree (small multisets)")
    enumerate_cmd.add_argument("--format", choices=_FORMATS, default="prefix")

    stats = add("stats", _cmd_stats, "sample repeatedly and report observed frequencies")
    stats.add_argument("--samples", type=_positive, required=True, metavar="N")
    stats.add_argument("--seed", type=_seed, default=None, help="64-bit seed (default: entropy, echoed on stderr)")

    fuzz = add("fuzz-expr", _cmd_fuzz_expr, "render random trees as operator expressions")
    fuzz.add_argument("--alphabet", required=True, metavar="FILE", help="JSON map from arity to symbol list")
    fuzz.add_argument("--seed", type=_seed, default=None, help="64-bit seed (default: entropy, echoed on stderr)")
    fuzz.add_argument("--count", type=_positive, default=1, metavar="N")
    fuzz.add_argument("--style", choices=("prefix", "infix"), default="prefix")

    return parser


# main()'s parser, built on its first call rather than at import (which
# would add about 3 ms to every import) and shared by every later call:
# parse_args returns a new Namespace and leaves the parser unchanged.
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one ``degtree`` command line and return its exit code.

    The parser is built on the first call and reused by every later call
    in the process.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status = args.handler(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return status
    except tuple(_EXIT_CODES) as exc:
        print(f"degtree: error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    except BrokenPipeError:
        # the reader closed stdout; pointing it at devnull keeps the
        # interpreter's final flush of the unwritten buffer silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
