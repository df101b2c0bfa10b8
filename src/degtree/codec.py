"""Prefix codes to explicit trees and back, plus text renderings.

A preorder outdegree code maps to a unique ordered tree: reading left to
right, a symbol of value ``d`` opens a node that owns the next ``d``
complete subtrees.  ``decode_prefix`` and the renderers read a code with
one O(n) stack pass into flat lists of parents and closed-subtree counts,
then link nodes or join text from them; nothing recurses, so unary chains
of millions of nodes are fine, and all raise alike on a malformed code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, getitem, index, mul, ne
from typing import Mapping, Sequence

from .errors import MissingArityError, TrailingSymbolsError, TruncatedCodeError
from .rng import _draw_rows


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
    # The text of each outdegree, kept for the process.  It is made from
    # operator.index(degree): True or a numpy integer reads like an int.
    def __init__(self, make):
        self.make = make

    def __missing__(self, degree):
        piece = self[degree] = self.make(index(degree))
        return piece


_SEXPR_PIECES = _Pieces(lambda d: f"({d}" if d else "0")
# a comma before every node; to_json drops those after "[" and at the root
_JSON_PIECES = _Pieces(lambda d: ',{"degree":%d,"children":[%s' % (d, "" if d else "]}"))
_DOT_LABELS = _Pieces(' [label="{}"];'.format)


def _structure(code: Sequence[int]) -> tuple[list[int], list[int]]:
    """Each node's parent position (-1 at the root) and count of internal
    nodes whose last subtree ends at it.  Raises what :func:`decode_prefix`
    documents, at the first symbol that breaks the grammar or at the end.
    """
    n = len(code)
    parents, closed = [-1] * n, [0] * n
    # The innermost open node and the subtrees it misses, over a stack of the
    # same for its open ancestors, a virtual parent of the root and a guard.
    top, missing, tops, misses = -1, 1, [-1], [2]  # the guard misses two: it never closes
    for position, degree in enumerate(map(index, code)):
        parents[position] = top
        if degree > 0:
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
            closed[position] = count
            if top < 0:  # the tree is complete; a negative next symbol raises above
                closed[position] -= 1  # the virtual parent is no node
                if position + 1 < n and index(code[position + 1]) >= 0:
                    raise TrailingSymbolsError(position + 1)
    if not n:
        raise TruncatedCodeError("empty code: a tree needs at least one node")
    if top >= 0:
        # Nodes yet to start a child: the innermost open one, and each
        # other one missing more than the subtree in progress under it.
        unstarted = 1 + sum(1 for m in misses[2:] if m > 1)
        raise TruncatedCodeError(f"code ended with {unstarted} node(s) still missing children")
    return parents, closed


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
    parents = _structure(code)[0]
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


def to_sexpr(code: Sequence[int]) -> str:
    """Parenthesised preorder: leaves as ``0``, a degree-d node as ``(d c1 ... cd)``."""
    closed = _structure(code)[1]
    return " ".join(map(add, map(_SEXPR_PIECES.__getitem__, code), map(")".__mul__, closed)))


def to_json(code: Sequence[int]) -> str:
    """Compact JSON nesting ``{"degree": d, "children": [...]}``; parses back
    (for example with ``json.loads``) to a structure mirroring the tree."""
    closed = _structure(code)[1]
    text = "".join(map(add, map(_JSON_PIECES.__getitem__, code), map("]}".__mul__, closed)))
    return text.replace("[,", "[")[1:]


def to_dot(code: Sequence[int]) -> str:
    """Graphviz digraph: nodes numbered in preorder, labelled by outdegree.

    All node lines come first (preorder order), then one edge line per
    parent-child pair in visiting order.  Byte-stable for a given code.
    """
    parents = _structure(code)[0]
    ids = list(map(str, range(len(code))))
    nodes = "\n  ".join(map(add, ids, map(_DOT_LABELS.__getitem__, code)))
    edges = "".join(map("\n  {} -> {};".format, map(ids.__getitem__, parents[1:]), ids[1:]))
    return "digraph tree {\n  " + nodes + edges + "\n}\n"


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
    parents, closed = _structure(code)
    for arity in sorted(set(code)):
        alphabet.symbols_for(arity)
    sizes = list(map(len, map(alphabet._table.__getitem__, code)))
    draws = list(next(_draw_rows(source, sizes, 1)))  # a list: infix reads it twice

    def pick(table):  # the entry each node drew from its arity's row
        return map(getitem, map(table.__getitem__, code), draws)

    if style == "prefix":
        return " ".join(pick(alphabet._table))
    # each node opens after its parent's separator, if it has an earlier sibling
    joins = list(pick(alphabet._joins))
    before = map(mul, map(joins.__getitem__, parents), map(ne, parents, range(-1, len(code) - 1)))
    return "".join(map(add, map(add, before, pick(alphabet._opens)), map(")".__mul__, closed)))
