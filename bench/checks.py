"""Output checks that do not trust the code under test.

Every check pulls the degree codes out of a command's stdout, verifies
them with the benchmark's own running-charge test and multiset count, then
re-renders the whole output with the benchmark's own renderers and
requires the text to match byte for byte.  Counts are compared with an
independent ``math.comb`` formula, enumerations with that count, and the
``stats`` chi-square is recomputed from the printed frequencies.  Nothing
here imports ``degtree``.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

# Python refuses to turn an int of more than this many digits into text.
INT_DIGIT_LIMIT = sys.int_info.default_max_str_digits

_DIGIT_LIMIT_MESSAGE = "Exceeds the limit"


@dataclass(frozen=True)
class Verdict:
    """Result of checking one command.

    ``known_defect`` marks the documented failure of counts longer than
    ``INT_DIGIT_LIMIT`` digits: it is still a failure, but not a wrong
    output.  ``trees``/``nodes`` count correctly printed trees.
    """

    ok: bool
    reason: str = ""
    trees: int = 0
    nodes: int = 0
    known_defect: bool = False


class CheckFailed(Exception):
    pass


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


# -- codes -----------------------------------------------------------------


def check_code(code: list[int], counts: dict[int, int]) -> None:
    """Raise unless ``code`` is a well-formed preorder code over ``counts``."""
    _require(len(code) > 0, "empty code")
    running = 0
    last = len(code) - 1
    for i, degree in enumerate(code):
        running += 1 - degree
        _require(running <= 0 or i == last, f"prefix charge reaches 1 at position {i}")
    _require(running == 1, f"total charge {running}")
    _require(dict(Counter(code)) == counts, "degree multiset differs from the request")


def reference_count(counts: dict[int, int]) -> int:
    """Number of trees over ``counts``: multinomial(n; m_d) / n."""
    n = sum(counts.values())
    orderings = 1
    remaining = n
    for multiplicity in counts.values():
        orderings *= math.comb(remaining, multiplicity)
        remaining -= multiplicity
    count, remainder = divmod(orderings, n)
    _require(remainder == 0, "reference multinomial not divisible by n")
    return count


def count_digits_estimate(counts: dict[int, int]) -> float:
    """log10 of ``reference_count(counts)``, from log-gamma."""
    n = sum(counts.values())
    log_orderings = math.lgamma(n + 1) - sum(math.lgamma(m + 1) for m in counts.values())
    return (log_orderings - math.log(n)) / math.log(10)


@contextmanager
def unlimited_int_text():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# -- renderers -------------------------------------------------------------


def render_prefix(code: list[int]) -> str:
    return " ".join(map(str, code))


def render_sexpr(code: list[int]) -> str:
    out = []
    remaining = []  # children still to come, per open node
    for degree in code:
        if remaining:
            out.append(" ")
            remaining[-1] -= 1
        if degree:
            out.append(f"({degree}")
            remaining.append(degree)
        else:
            out.append("0")
            while remaining and remaining[-1] == 0:
                remaining.pop()
                out.append(")")
    return "".join(out)


def render_json(code: list[int]) -> str:
    out = []
    remaining = []
    arity = []
    for degree in code:
        if remaining:
            if remaining[-1] < arity[-1]:
                out.append(",")
            remaining[-1] -= 1
        out.append('{"degree":%d,"children":[' % degree)
        if degree:
            remaining.append(degree)
            arity.append(degree)
        else:
            out.append("]}")
            while remaining and remaining[-1] == 0:
                remaining.pop()
                arity.pop()
                out.append("]}")
    return "".join(out)


def parents(code: list[int]) -> list[int]:
    """Preorder parent index of every node (-1 for the root)."""
    out = []
    open_nodes = []  # [node index, children still to come]
    for index, degree in enumerate(code):
        if open_nodes:
            out.append(open_nodes[-1][0])
            open_nodes[-1][1] -= 1
            if open_nodes[-1][1] == 0:
                open_nodes.pop()
        else:
            out.append(-1)
        if degree:
            open_nodes.append([index, degree])
    return out


def render_dot(code: list[int]) -> str:
    labels = [f'  {i} [label="{d}"];' for i, d in enumerate(code)]
    edges = [f"  {p} -> {i};" for i, p in enumerate(parents(code)) if p >= 0]
    return "digraph tree {\n" + "\n".join(labels + edges) + "\n}\n"


_RENDER = {"prefix": render_prefix, "sexpr": render_sexpr, "json": render_json, "dot": render_dot}
_CODE_PATTERN = {
    "sexpr": re.compile(r"\d+"),
    "json": re.compile(r'"degree":(\d+)'),
    "dot": re.compile(r'\[label="(\d+)"\]'),
}


def _split_trees(text: str, fmt: str) -> list[str]:
    if not text:
        return []
    if fmt == "dot":
        return ["digraph" + part for part in text.split("digraph")[1:]]
    _require(text.endswith("\n"), "output does not end with a newline")
    return text[:-1].split("\n")


def _extract_code(tree_text: str, fmt: str) -> list[int]:
    if fmt == "prefix":
        return [int(token) for token in tree_text.split(" ")]
    return [int(token) for token in _CODE_PATTERN[fmt].findall(tree_text)]


def _joined(rendered: list[str], fmt: str) -> str:
    if not rendered:
        return ""
    return "\n".join(rendered) if fmt == "dot" else "\n".join(rendered) + "\n"


def check_trees(text: str, fmt: str, counts: dict[int, int]) -> list[tuple[int, ...]]:
    """Codes of the trees in ``text``, each checked, the text re-rendered."""
    codes = [_extract_code(part, fmt) for part in _split_trees(text, fmt)]
    for code in codes:
        check_code(code, counts)
    _require(_joined([_RENDER[fmt](code) for code in codes], fmt) == text, "text differs from its re-rendering")
    return [tuple(code) for code in codes]


# -- expressions -----------------------------------------------------------


def _tokenize_infix(text: str) -> list[str]:
    return re.findall(r"[(),]|[^\s(),]+", text)


def _parse_infix(tokens: list[str], i: int):
    """(symbol, children) node starting at token ``i``, and the next index."""
    token = tokens[i]
    if token == "(":
        left, i = _parse_infix(tokens, i + 1)
        op = tokens[i]
        right, i = _parse_infix(tokens, i + 1)
        _require(tokens[i] == ")", "unclosed binary expression")
        return (op, [left, right]), i + 1
    if i + 1 < len(tokens) and tokens[i + 1] == "(":
        args = []
        i += 2
        while True:
            arg, i = _parse_infix(tokens, i)
            args.append(arg)
            if tokens[i] == ",":
                i += 1
                continue
            _require(tokens[i] == ")", "unclosed call")
            return (token, args), i + 1
    return (token, []), i + 1


def _render_infix(node) -> str:
    symbol, children = node
    if not children:
        return symbol
    parts = [_render_infix(child) for child in children]
    if len(parts) == 1:
        return f"{symbol}({parts[0]})"
    if len(parts) == 2:
        return f"({parts[0]} {symbol} {parts[1]})"
    return "{}({})".format(symbol, ", ".join(parts))


def check_expressions(text: str, style: str, counts: dict[int, int], alphabet: dict[int, list[str]]) -> int:
    """Number of expressions in ``text``, each checked against ``counts``."""
    arity_of = {symbol: arity for arity, symbols in alphabet.items() for symbol in symbols}
    lines = _split_trees(text, "prefix")
    for line in lines:
        if style == "prefix":
            symbols = line.split(" ")
            unknown = [symbol for symbol in symbols if symbol not in arity_of]
            _require(not unknown, f"symbols {unknown[:3]!r} not in the alphabet")
            check_code([arity_of[symbol] for symbol in symbols], counts)
        else:
            tokens = _tokenize_infix(line)
            root, end = _parse_infix(tokens, 0)
            _require(end == len(tokens), "trailing tokens")
            code = []
            stack = [root]
            while stack:
                symbol, children = stack.pop()
                _require(arity_of.get(symbol) == len(children), f"symbol {symbol!r} at arity {len(children)}")
                code.append(len(children))
                stack.extend(reversed(children))
            check_code(code, counts)
            _require(_render_infix(root) == line, "text differs from its re-rendering")
    return len(lines)


# -- per-command verdicts --------------------------------------------------


def _verdict(command, exit_code: int, out: str, err: str, alphabet) -> Verdict:
    kind = command.kind
    if kind == "check":
        charge = sum((1 - d) * m for d, m in command.counts.items())
        expected_exit = 0 if charge == 1 else 2
        _require(exit_code == expected_exit, f"exit code {exit_code}, expected {expected_exit}")
        expected = f"charge={charge} constructible={'true' if charge == 1 else 'false'}\n"
        _require(out == expected, "wrong check line")
        return Verdict(True)
    if kind == "count":
        if count_digits_estimate(command.counts) >= INT_DIGIT_LIMIT + 1 and exit_code == 1 and not out:
            _require(_DIGIT_LIMIT_MESSAGE in err, f"exit 1 without the digit-limit message: {err.strip()!r}")
            return Verdict(False, "count exceeds the int-to-string digit limit", known_defect=True)
        _require(exit_code == 0, f"exit code {exit_code}: {err.strip()!r}")
        with unlimited_int_text():
            expected = f"{reference_count(command.counts)}\n"
        _require(out == expected, "count differs from the reference formula")
        return Verdict(True)
    _require(exit_code == 0, f"exit code {exit_code}: {err.strip()!r}")
    if kind == "sample":
        codes = check_trees(out, command.fmt, command.counts)
        _require(len(codes) == command.trees, f"{len(codes)} trees, expected {command.trees}")
        return Verdict(True, trees=len(codes), nodes=len(codes) * command.n)
    if kind == "fuzz":
        trees = check_expressions(out, command.fmt, command.counts, alphabet)
        _require(trees == command.trees, f"{trees} expressions, expected {command.trees}")
        return Verdict(True, trees=trees, nodes=trees * command.n)
    if kind == "enumerate":
        codes = check_trees(out, command.fmt, command.counts)
        _require(len(set(codes)) == len(codes), "duplicate trees")
        _require(codes == sorted(codes), "trees not in lexicographic order")
        _require(len(codes) == reference_count(command.counts), "tree count differs from the reference")
        return Verdict(True, trees=len(codes), nodes=len(codes) * command.n)
    if kind == "stats":
        report = json.loads(out)
        _require(json.dumps(report) + "\n" == out, "stats line is not canonical JSON")
        _require(report["seed"] == command.seed and report["samples"] == command.samples, "seed or samples echoed wrong")
        outcomes = [tuple(code) for code in report["outcomes"]]
        for code in outcomes:
            check_code(list(code), command.counts)
        _require(outcomes == sorted(set(outcomes)), "outcomes not distinct and sorted")
        _require(len(outcomes) == reference_count(command.counts), "outcome space differs from the reference count")
        observed = report["counts"]
        _require(len(observed) == len(outcomes) and sum(observed) == command.samples, "counts do not add up")
        expected = command.samples / len(observed)
        chi_square = sum((o - expected) ** 2 for o in observed) / expected
        _require(math.isclose(chi_square, report["chi_square"], rel_tol=1e-9, abs_tol=1e-12), "chi-square differs")
        _require(report["degrees_of_freedom"] == len(observed) - 1, "wrong degrees of freedom")
        return Verdict(True)
    raise ValueError(f"unknown command kind {kind!r}")


def verdict(command, exit_code: int, out: str, err: str, alphabet) -> Verdict:
    """Check one command's exit code and output; never raises on bad output."""
    try:
        return _verdict(command, exit_code, out, err, alphabet)
    except (CheckFailed, ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
        return Verdict(False, f"{type(exc).__name__}: {exc}")
