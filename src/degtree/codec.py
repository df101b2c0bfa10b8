"""Prefix codes to explicit trees and back, plus text renderings.

A preorder outdegree code maps to a unique ordered tree: reading left to
right, a symbol of value ``d`` opens a node that owns the next ``d``
complete subtrees.  The renderers and ``decode_prefix`` all read a code
in one O(n) preorder pass with a stack of pending child counts, so each
raises what ``decode_prefix`` raises on a malformed code, and nothing
recurses: unary chains of millions of nodes are fine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index
from typing import Iterator, Mapping, Sequence

from .errors import MissingArityError, TrailingSymbolsError, TruncatedCodeError


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

    def symbols_for(self, arity: int) -> tuple[str, ...]:
        """Candidate spellings for ``arity``; raises MissingArityError if none."""
        try:
            return self._table[arity]
        except KeyError:
            raise MissingArityError(arity) from None

    @property
    def arities(self) -> set[int]:
        return set(self._table)


def _preorder(code: Sequence[int]) -> Iterator[tuple[int, int, int, int]]:
    """Walk a prefix code, yielding ``(position, degree, parent, closed)``.

    ``parent`` is the position of the node's parent (-1 for the root), so
    a node has an earlier sibling exactly when ``position > parent + 1``.
    ``closed`` counts the internal nodes whose last subtree ends at this
    node (0 except at leaves).  Raises what :func:`decode_prefix` documents,
    at the first symbol that breaks the grammar or at the end of the code.
    """
    # [position, subtrees still missing] of each node whose subtree is open
    stack: list[list[int]] = []
    position = -1
    for position, degree in enumerate(code):
        degree = index(degree)
        if degree < 0:
            raise ValueError(f"outdegree at position {position} is negative")
        if position and not stack:
            raise TrailingSymbolsError(position)
        parent = stack[-1][0] if stack else -1
        closed = 0
        if degree:
            stack.append([position, degree])
        else:
            # a leaf completes one subtree of each ancestor it closes
            while stack:
                stack[-1][1] -= 1
                if stack[-1][1]:
                    break
                stack.pop()
                closed += 1
        yield position, degree, parent, closed
    if position < 0:
        raise TruncatedCodeError("empty code: a tree needs at least one node")
    if stack:
        # Nodes yet to start a child: the innermost open one, and each
        # other one missing more than the subtree in progress under it.
        unstarted = 1 + sum(1 for _, missing in stack[:-1] if missing > 1)
        raise TruncatedCodeError(f"code ended with {unstarted} node(s) still missing children")


def decode_prefix(code: Sequence[int]) -> TreeNode:
    """Decode a preorder outdegree code into its unique tree.

    Consumes the entire sequence; decoding succeeds exactly on well-formed
    codes.  Iterative, so arbitrarily deep chains are fine.

    Raises:
        ValueError: a negative outdegree.
        TruncatedCodeError: the code ended (or was empty) while nodes
            still waited for children.
        TrailingSymbolsError: a complete tree was closed before the end;
            carries the position of the first extra symbol.
    """
    nodes: list[TreeNode] = []
    for _, degree, parent, _ in _preorder(code):
        node = TreeNode(degree)
        if parent >= 0:
            nodes[parent].children.append(node)
        nodes.append(node)
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
    return " ".join(
        f"({degree}" if degree else "0" + ")" * closed
        for _, degree, _, closed in _preorder(code)
    )


def to_json(code: Sequence[int]) -> str:
    """Compact JSON nesting ``{"degree": d, "children": [...]}``.

    Parses back (for example with ``json.loads``) to a structure mirroring
    the tree exactly.
    """
    pieces: list[str] = []
    for position, degree, parent, closed in _preorder(code):
        if position > parent + 1:
            pieces.append(",")
        if degree:
            pieces.append('{"degree":%d,"children":[' % degree)
        else:
            pieces.append('{"degree":0,"children":[]}' + "]}" * closed)
    return "".join(pieces)


def to_dot(code: Sequence[int]) -> str:
    """Graphviz digraph: nodes numbered in preorder, labelled by outdegree.

    All node lines come first (preorder order), then one edge line per
    parent-child pair in visiting order.  Byte-stable for a given code.
    """
    labels: list[str] = []
    edges: list[str] = []
    for position, degree, parent, _ in _preorder(code):
        labels.append(f'  {position} [label="{degree}"];')
        if parent >= 0:
            edges.append(f"  {parent} -> {position};")
    return "digraph tree {\n" + "\n".join(labels + edges) + "\n}\n"


def render_expression(
    code: Sequence[int],
    alphabet: OperatorAlphabet,
    source,
    style: str = "prefix",
) -> str:
    """Render the tree of ``code`` as an expression, drawing each symbol uniformly.

    Symbols are assigned in preorder via ``source.next_below``; the source
    must not be one that is mid-way through producing the tree itself,
    otherwise labelling would correlate with shape.  Styles:

    * ``"prefix"``: space-separated Polish notation, ``op a1 ... ak``.
    * ``"infix"``: fully parenthesised; binary nodes as ``(a op b)``,
      unary as ``op(a)``, arity >= 3 as calls ``op(a1, a2, a3)``, leaves
      as bare symbols.

    Raises, each before any symbol is drawn:
        ValueError: unknown style, or a negative outdegree.
        TruncatedCodeError, TrailingSymbolsError: ``code`` is malformed.
        MissingArityError: some outdegree in the code has no alphabet
            entry.
    """
    if style not in ("prefix", "infix"):
        raise ValueError(f"unknown style {style!r}")
    nodes = list(_preorder(code))
    for arity in sorted(set(code)):
        alphabet.symbols_for(arity)
    labels = [s[source.next_below(len(s))] for s in map(alphabet.symbols_for, code)]
    if style == "prefix":
        return " ".join(labels)
    pieces: list[str] = []
    for position, degree, parent, closed in nodes:
        if position > parent + 1:
            pieces.append(f" {labels[parent]} " if code[parent] == 2 else ", ")
        if degree == 0:
            pieces.append(labels[position] + ")" * closed)
        elif degree == 2:
            pieces.append("(")
        else:
            pieces.append(labels[position] + "(")
    return "".join(pieces)
