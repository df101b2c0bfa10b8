"""Prefix codes to explicit trees and back, plus text renderings.

A preorder outdegree code maps to a unique ordered tree: reading left to
right, a symbol of value ``d`` opens a node that owns the next ``d``
complete subtrees.  ``decode_prefix`` and the renderers read a code with
one O(n) stack pass into flat lists of parents and closed-subtree counts,
then link nodes or join text from them; nothing recurses, so unary chains
of millions of nodes are fine, and all raise alike on a malformed code.
The renderers are one block writer, which the CLI also feeds the
sampler's chunks, flat runs of whole codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import getitem, index, mul, ne
from typing import Mapping, Sequence

from .errors import MissingArityError, TrailingSymbolsError, TruncatedCodeError
from .rng import _draw_chunk


@dataclass
class TreeNode:
    """Ordered tree node: an outdegree and exactly that many children."""

    outdegree: int
    children: list["TreeNode"] = field(default_factory=list)


class OperatorAlphabet:
    """Display symbols per arity for rendering trees as expressions.

    Maps an outdegree to the non-empty list of operator or terminal
    spellings available at that arity, e.g. ``{0: ["x", "y", "1"],
    2: ["+", "*"]}``.
    """

    def __init__(self, symbols: Mapping[int, Sequence[str]]):
        table: dict[int, tuple[str, ...]] = {}
        for arity, choices in symbols.items():
            if arity < 0:
                raise ValueError(f"arity must be non-negative, got {arity}")
            choices = tuple(choices)
            if not choices:
                raise ValueError(f"arity {arity} has an empty symbol list")
            if not all(isinstance(s, str) for s in choices):
                raise ValueError(f"arity {arity} has non-string symbols")
            table[int(arity)] = choices
        self._table = table
        # each symbol's infix text: what opens its node, and what parts its children
        self._opens = {a: ("(",) * len(row) if a == 2 else tuple([s + "(" for s in row]) if a else row
                       for a, row in table.items()}
        self._joins = {a: tuple([f" {s} " for s in row]) if a == 2 else (", ",) * len(row)
                       for a, row in table.items()}

    def symbols_for(self, arity: int) -> tuple[str, ...]:
        """Candidate spellings for ``arity``; raises MissingArityError if none."""
        try:
            return self._table[arity]
        except KeyError:
            raise MissingArityError(arity) from None

    @property
    def arities(self) -> set[int]:
        return set(self._table)


class _Pieces(dict):
    # The text of each outdegree or closing count, kept for the process while
    # it is short (not every closing run up to the deepest).  It is made from
    # operator.index(key): True or a numpy integer reads like an int.
    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        piece = self.make(index(key))
        if len(piece) <= 64:
            self[key] = piece
        return piece


_SEXPR_PIECES = _Pieces(lambda d: f"({d}" if d else "0")
_SEXPR_CLOSE = _Pieces(")".__mul__)
_JSON_PIECES = _Pieces(lambda d: '{"degree":%d,"children":[%s' % (d, "" if d else "]}"))
_JSON_CLOSE = _Pieces("]}".__mul__)
# what follows a node in JSON: its first child, or after a leaf a later sibling
_JSON_AFTER = _Pieces(lambda d: "" if d else ",")
_PREFIX_PIECES = _Pieces(str)
_DOT_LABELS = _Pieces(' [label="{}"];'.format)
# Byte d of a code with every degree below 10 becomes the ASCII digit d.
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
# Most nodes in a block: whole trees, which dot names from a table, or a
# chunk of a larger tree.  A block holds about 80 bytes a node, and the
# sexpr text of a tree is about 3 bytes a node.
_BLOCK = 1 << 12
# Most nodes of whole trees in a block of prefix digits; a larger tree is
# one block, since its text is 2 bytes a node, a quarter of its code's list.
_DIGIT_BLOCK = 1 << 18


def _runs(code: Sequence[int], cap: int):
    # (start, run) for each run of cap symbols of code, which is its own run if it fits
    return [(0, code)] if len(code) <= cap else ((s, code[s : s + cap]) for s in range(0, len(code), cap))


def _structure(code: Sequence[int], size: int = 0, block: int = 0):
    """Yield each node's parent position (-1 at a root) and count of internal
    nodes whose last subtree ends at it, for each run of ``block`` symbols
    (default: all).  The code is a forest of ``size``-node trees (default:
    one tree).  Raises what :func:`decode_prefix` documents, at the first
    symbol that breaks the grammar or at the end, before yielding its run.
    """
    n = len(code)
    if not n:
        raise TruncatedCodeError("empty code: a tree needs at least one node")
    size = size or n
    # The innermost open node and the subtrees it misses, over a stack of the
    # same for its open ancestors, a virtual parent of the root and a guard.
    top, missing, tops, misses = -1, 1, [-1], [2]  # the guard misses two: it never closes
    for start, run in _runs(code, block or n):
        parents, closed = [], []
        for position, degree in enumerate(map(index, run), start):
            parents.append(top)
            if degree > 0:
                closed.append(0)
                tops.append(top)
                misses.append(missing)
                top, missing = position, degree
            elif degree:
                raise ValueError(f"outdegree at position {position} is negative")
            else:
                # a leaf completes one subtree of each ancestor it closes
                count = 0
                while missing == 1:
                    count += 1
                    top, missing = tops.pop(), misses.pop()
                missing -= 1
                if top < 0:  # a tree is complete; a negative next symbol raises above
                    count -= 1  # the virtual parent is no node
                    if (position + 1) % size and index(code[position + 1]) >= 0:
                        raise TrailingSymbolsError(position + 1)
                    tops.append(-1)  # the guard again, for the next tree
                    misses.append(2)
                closed.append(count)
        if top >= 0 and start + len(run) == n:
            # Nodes yet to start a child: the innermost open one, and each
            # other one missing more than the subtree in progress under it.
            unstarted = 1 + sum(1 for m in misses[2:] if m > 1)
            raise TruncatedCodeError(f"code ended with {unstarted} node(s) still missing children")
        yield parents, closed


def decode_prefix(code: Sequence[int]) -> TreeNode:
    """Decode a preorder outdegree code into its unique tree.

    Consumes the entire sequence; decoding succeeds exactly on well-formed codes.

    Raises:
        ValueError: a negative outdegree.
        TruncatedCodeError: the code ended (or was empty) while nodes
            still waited for children.
        TrailingSymbolsError: a complete tree was closed before the end;
            carries the position of the first extra symbol.
    """
    parents = next(_structure(code))[0]
    nodes = [TreeNode(degree) for degree in map(index, code)]
    for node, parent in zip(nodes[1:], parents[1:]):
        nodes[parent].children.append(node)
    return nodes[0]


def encode_prefix(tree: TreeNode) -> list[int]:
    """Preorder outdegree listing of ``tree``; inverse of decode_prefix."""
    out: list[int] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        out.append(node.outdegree)
        stack.extend(reversed(node.children))
    return out


def _blocks(chunks, size: int, fmt: str, end: str = "\n"):
    """Yield the text of ``chunks``, each a flat run of whole ``size``-node
    codes (``bytes`` for ``"digits"``), in ``fmt`` (a CLI format, or
    ``"digits"``: codes with every degree below 10, as prefix lines), a
    block at a time.  A chunk is cut into runs of as many whole trees as
    fill a block, and a larger tree into runs of ``_BLOCK`` nodes (digits
    are never cut).  Each tree's text ends in ``end``, but a blank line
    separates dot trees and a newline ends digit lines.  A block fills one
    list with a fixed number of pieces per node by slice assignment and
    joins it once.
    """
    header = "digraph tree {\n  "
    # whole trees a run (a pass per code doubled the time of 3e5 three-node
    # trees as digits); an empty code is one run, which _structure refuses
    per = size * max((_DIGIT_BLOCK if fmt == "digits" else _BLOCK) // (size or 1), 1)
    for codes in (codes for chunk in chunks for _, codes in _runs(chunk, per)):
        if fmt == "digits":  # each digit, then a space or a newline, is a byte
            out = bytearray(b" ") * (2 * len(codes))
            out[::2] = codes.translate(_DIGITS)
            out[2 * size - 1 :: 2 * size] = b"\n" * (len(codes) // size)
            yield out.decode("ascii")  # str, not bytes: output may be any text stream
        elif fmt == "dot" and len(codes) <= _BLOCK:
            yield _dot_trees(codes, size, header)
        elif fmt == "dot":  # runs of the tree's node lines, then of its edge lines
            for start, run in _runs(codes, _BLOCK):
                yield header * (not start) + "".join(_dot_lines(run, start, str))
            for (parents, _), (start, run) in zip(_structure(codes, size, _BLOCK), _runs(codes, _BLOCK)):
                pieces = _dot_lines(run, start, str, parents)
                del pieces[: 4 * (not start)]  # the root has no edge
                if start + _BLOCK >= len(codes):
                    pieces[-1] = ";\n}\n"
                yield "".join(pieces)
        else:
            structure = repeat((None, None)) if fmt == "prefix" else _structure(codes, size, _BLOCK)
            for (_, closed), (start, run) in zip(structure, _runs(codes, _BLOCK)):
                yield _stream_text(run, closed, start, size, fmt, end)
        header = "\ndigraph tree {\n  "


# Per stream format, the table of each piece of a node: of its outdegree,
# of its closing count, or a space (None); a tree's end replaces the last.
_STREAMS = {
    "prefix": (_PREFIX_PIECES, None),
    "sexpr": (_SEXPR_PIECES, _SEXPR_CLOSE, None),
    "json": (_JSON_PIECES, _JSON_CLOSE, _JSON_AFTER),
}


def _stream_text(run, closed, start: int, size: int, fmt: str, end: str) -> str:
    # The text of a run of nodes from position start in a stream of size-node codes.
    first = (size - 1 - start) % size  # the first node of the run that ends a tree
    ends = len(range(first, len(run), size))
    tables = _STREAMS[fmt]
    width = len(tables)
    pieces = [" "] * (width * len(run))
    for slot, table, values in zip(range(width), tables, (run, closed, run)):
        if table is not None:
            pieces[slot::width] = map(table.__getitem__, values)
    pieces[width * (first + 1) - 1 :: width * size] = [end] * ends
    return "".join(pieces)


def _dot_trees(forest, size: int, header: str) -> str:
    # The dot text of a forest of size-node codes, the first tree opened by header.
    parents = next(_structure(forest, size))[0]
    name = (list(map(str, range(size))) * (len(forest) // size)).__getitem__
    nodes, edges = _dot_lines(forest, 0, name), _dot_lines(forest, 0, name, parents)
    pieces = []
    for first in range(0, len(forest), size):
        pieces.append(header)
        pieces += nodes[3 * first : 3 * (first + size)]
        pieces += edges[4 * first + 4 : 4 * (first + size)]  # a root has no edge
        pieces[-1] = pieces[-1][:-3] + "\n}\n"
        header = "\ndigraph tree {\n  "
    return "".join(pieces)


def _dot_lines(run, start: int, name, parents=None) -> list[str]:
    # The pieces of the node lines of a run of nodes from position start, or
    # given their parents, of their edge lines; each line ends in "\n  ".
    ids = map(name, range(start, start + len(run)))  # name(position): a node's name
    if parents is None:
        pieces = ["\n  "] * (3 * len(run))
        pieces[::3] = ids
        pieces[1::3] = map(_DOT_LABELS.__getitem__, run)
    else:
        pieces = ["", " -> ", "", ";\n  "] * len(run)
        pieces[::4] = map(name, parents)
        pieces[2::4] = ids
    return pieces


def to_sexpr(code: Sequence[int]) -> str:
    """Parenthesised preorder: leaves as ``0``, a degree-d node as ``(d c1 ... cd)``."""
    return "".join(_blocks([code], len(code), "sexpr", ""))


def to_json(code: Sequence[int]) -> str:
    """Compact JSON nesting ``{"degree": d, "children": [...]}``; parses back
    (for example with ``json.loads``) to a structure mirroring the tree."""
    return "".join(_blocks([code], len(code), "json", ""))


def to_dot(code: Sequence[int]) -> str:
    """Graphviz digraph: nodes numbered in preorder, labelled by outdegree.

    All node lines come first (preorder order), then one edge line per
    parent-child pair in visiting order.  Byte-stable for a given code.
    """
    return "".join(_blocks([code], len(code), "dot"))


def render_expression(
    code: Sequence[int], alphabet: OperatorAlphabet, source, style: str = "prefix"
) -> str:
    """Render the tree of ``code`` as an expression, drawing each symbol uniformly.

    Symbols are assigned in preorder via ``source.next_below``; a
    :class:`RandomSource` draws them in one batch of the same words, by
    the draw kernel in ``rng`` that also draws the shuffles.  The source
    must not be one that is mid-way through producing the tree itself,
    otherwise labelling would correlate with shape.  Styles:

    * ``"prefix"``: space-separated Polish notation, ``op a1 ... ak``.
    * ``"infix"``: fully parenthesised; binary nodes as ``(a op b)``,
      unary as ``op(a)``, arity >= 3 as calls ``op(a1, a2, a3)``, leaves
      as bare symbols.

    Raises, each before any symbol is drawn:
        ValueError: unknown style, or a negative outdegree.
        TruncatedCodeError, TrailingSymbolsError: ``code`` is malformed.
        MissingArityError: an outdegree of the code has no alphabet entry.
    """
    if style not in ("prefix", "infix"):
        raise ValueError(f"unknown style {style!r}")
    parents, closed = next(_structure(code))
    for arity in sorted(set(code)):
        alphabet.symbols_for(arity)
    sizes = list(map(len, map(alphabet._table.__getitem__, code)))
    draws = list(next(_draw_chunk(source, sizes, 1)[1]))  # a list: infix reads it twice

    def pick(table):  # the entry each node drew from its arity's row
        return map(getitem, map(table.__getitem__, code), draws)

    if style == "prefix":
        return " ".join(pick(alphabet._table))
    # each node opens after its parent's separator, if it has an earlier
    # sibling, and closes the nodes whose last subtree ends at it
    joins = list(pick(alphabet._joins))
    pieces = [""] * (3 * len(code))
    pieces[::3] = map(mul, map(joins.__getitem__, parents), map(ne, parents, range(-1, len(code) - 1)))
    pieces[1::3] = pick(alphabet._opens)
    pieces[2::3] = map(_SEXPR_CLOSE.__getitem__, closed)
    return "".join(pieces)
