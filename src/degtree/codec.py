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

from collections.abc import Mapping, Sequence
from operator import getitem, index, mul, ne

from .errors import MissingArityError, TrailingSymbolsError, TruncatedCodeError, _Record
from .rng import _draw_chunk

_NEW_LIST = object()  # TreeNode's default: a new list per node (None stays None)


class TreeNode(_Record):
    """Ordered tree node: an outdegree and exactly that many children."""

    __match_args__ = ("outdegree", "children")

    def __init__(self, outdegree: int, children: list[TreeNode] | None = _NEW_LIST):
        self.outdegree = outdegree
        self.children = [] if children is _NEW_LIST else children


class OperatorAlphabet:
    """Display symbols per arity for rendering trees as expressions.

    Maps an outdegree to the non-empty list of operator or terminal
    spellings available at that arity, e.g. ``{0: ["x", "y", "1"],
    2: ["+", "*"]}``.
    """

    def __init__(self, symbols: Mapping[int, Sequence[str]]):
        # Each symbol has an id: its position in the arities' rows laid end
        # to end.  Per arity, the range of its ids; per id, the symbol, and
        # its infix text: what opens its node, and what parts its children
        # ("" for a leaf, which has none, and whose join a root reads).
        self._ids: dict[int, range] = {}
        self._symbols, self._opens, self._joins = [], [], []
        for arity, row in symbols.items():
            if arity < 0:
                raise ValueError(f"arity must be non-negative, got {arity}")
            row = tuple(row)
            if not row:
                raise ValueError(f"arity {arity} has an empty symbol list")
            if not all(isinstance(s, str) for s in row):
                raise ValueError(f"arity {arity} has non-string symbols")
            a = int(arity)
            self._ids[a] = range(len(self._symbols), len(self._symbols) + len(row))
            self._symbols += row
            self._opens += ("(",) * len(row) if a == 2 else [s + "(" for s in row] if a else row
            self._joins += [f" {s} " for s in row] if a == 2 else (", " * (a > 0),) * len(row)

    def _labels(self, degrees) -> dict[int, range]:
        # Each of degrees' range of symbol ids; raises for the smallest without symbols.
        if missing := set(degrees).difference(self._ids):
            raise MissingArityError(min(missing))
        return {degree: self._ids[degree] for degree in degrees}

    def symbols_for(self, arity: int) -> tuple[str, ...]:
        """Candidate spellings for ``arity``; raises MissingArityError if none."""
        return tuple(map(self._symbols.__getitem__, self._labels([arity])[arity]))

    @property
    def arities(self) -> set[int]:
        return set(self._ids)


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
# one block, its text twice its code's bytes.  Blocks of 2^12 nodes made
# `sample --count` 3-10% slower on trees of 3 and 10 nodes.
_DIGIT_BLOCK = 1 << 18


def _runs(code: Sequence[int], cap: int, *rest):
    # (start, run, *rest) for each run of cap symbols of code, which is its own run if it fits
    return [(0, code, *rest)] if len(code) <= cap else ((s, code[s : s + cap], *rest) for s in range(0, len(code), cap))


def _structure(code: Sequence[int], size: int = 0, block: int = 0):
    """Yield ``(start, run, parents, closed)`` for each run of ``block``
    symbols (default: all) from position ``start``: each node's parent (-1 at
    a root) and count of internal nodes whose last subtree ends at it.  The
    code is a forest of ``size``-node trees (default: one tree).  Raises
    what :func:`decode_prefix` documents, at the first symbol that breaks
    the grammar or at the end, before yielding its run.
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
        yield start, run, parents, closed


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
    parents = next(_structure(code))[2]
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


def _blocks(chunks, size: int, fmt: str, end: str = "\n", alphabet=None):
    """Yield the text of ``chunks``, each a flat run of whole ``size``-node
    codes (``bytes`` for ``"digits"``), in ``fmt`` (a CLI format, or
    ``"digits"``: codes with every degree below 10, as prefix lines), a
    block at a time.  Given an ``alphabet``, ``fmt`` is an expression
    style, ``"prefix"`` or ``"infix"``, and each chunk is a pair: the codes
    and a list of the id of each node's symbol (see ``OperatorAlphabet``).
    A chunk is cut into runs of as many whole trees as fill a block, and a
    larger tree into runs of ``_BLOCK`` nodes (digits are never cut).  Each
    tree's text ends in ``end``, but a blank line separates dot trees and a
    newline ends digit lines.  A block fills one list with a fixed number
    of pieces per node by slice assignment and joins it once.
    """
    header = "digraph tree {\n  "
    # whole trees a run (a pass per code doubled the time of 3e5 three-node
    # trees as digits); an empty code is one run, which _structure refuses
    per = size * max((_DIGIT_BLOCK if fmt == "digits" else _BLOCK) // (size or 1), 1)
    for chunk in chunks:
        chunk, marks = chunk if alphabet else (chunk, None)
        for first, codes in _runs(chunk, per):
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
                for start, run, parents, _ in _structure(codes, size, _BLOCK):
                    pieces = _dot_lines(run, start, str, parents)
                    del pieces[: 4 * (not start)]  # the root has no edge
                    if start + _BLOCK >= len(codes):
                        pieces[-1] = ";\n}\n"
                    yield "".join(pieces)
            else:
                labels = alphabet and marks[first : first + len(codes)]
                structure = _runs(codes, _BLOCK, None, None) if fmt == "prefix" else _structure(codes, size, _BLOCK)
                for start, run, parents, closed in structure:
                    if alphabet:
                        slots = _expression_slots(alphabet, fmt, labels, parents, closed, start, run)
                    else:
                        tables = zip(_STREAMS[fmt], (run, closed, run))
                        slots = [None if t is None else map(t.__getitem__, v) for t, v in tables]
                    yield _stream_text(slots, len(run), start, size, end)
            header = "\ndigraph tree {\n  "


# Per stream format, the table of each piece of a node: of its outdegree,
# of its closing count, or a space (None); a tree's end replaces the last.
_STREAMS = {
    "prefix": (_PREFIX_PIECES, None),
    "sexpr": (_SEXPR_PIECES, _SEXPR_CLOSE, None),
    "json": (_JSON_PIECES, _JSON_CLOSE, _JSON_AFTER),
}


def _expression_slots(alphabet, style, labels, parents, closed, start, run):
    # The pieces of a run of expression nodes from position start in a run
    # of codes whose symbol ids are labels, as _stream_text takes them.
    # Prefix: each node's symbol, then a space.  Infix: what parts a node
    # from an earlier sibling (its parent's join), what opens it, the nodes
    # whose last subtree ends at it, then nothing.
    ids = labels[start : start + len(run)]
    if style == "prefix":
        return [map(alphabet._symbols.__getitem__, ids), None]
    # A root's parent, -1, names the last node of the codes, a leaf, whose join is "".
    joins = map(alphabet._joins.__getitem__, map(labels.__getitem__, parents))
    parted = map(ne, parents, range(start - 1, start + len(run) - 1))  # not a first child
    closes = map(_SEXPR_CLOSE.__getitem__, closed)
    return [map(mul, joins, parted), map(alphabet._opens.__getitem__, ids), closes, ("",) * len(run)]


def _stream_text(slots, length: int, start: int, size: int, end: str) -> str:
    # The text of a run of length nodes from position start in a stream of
    # size-node codes, from the pieces of each slot of a node (None: a space).
    first = (size - 1 - start) % size  # the first node of the run that ends a tree
    ends = len(range(first, length, size))
    width = len(slots)
    pieces = [" "] * (width * length)
    for slot, values in enumerate(slots):
        if values is not None:
            pieces[slot::width] = values
    pieces[width * (first + 1) - 1 :: width * size] = [end] * ends
    return "".join(pieces)


def _dot_trees(forest, size: int, header: str) -> str:
    # The dot text of a forest of size-node codes, the first tree opened by header.
    parents = next(_structure(forest, size))[2]
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
    for _ in _structure(code, 0, _BLOCK):
        pass
    ranges = list(map(alphabet._labels(set(code)).__getitem__, code))
    draws = next(_draw_chunk(source, list(map(len, ranges)), 1)[1])
    return "".join(_blocks([(code, list(map(getitem, ranges, draws)))], len(code), style, "", alphabet))
