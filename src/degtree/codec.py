"""Prefix codes to explicit trees and back, plus text renderings.

A preorder outdegree code maps to a unique ordered tree: reading left to
right, a symbol of value ``d`` opens a node that owns the next ``d``
complete subtrees.  ``decode_prefix`` and the renderers read a code into
flat lists of parents and of one key a node, its degree or at a leaf
minus the count of nodes it closes, then link nodes or join text from
them.  A buffer run of 2^8 to 2^14 symbols, of trees of more
than 32 nodes, is read by one numpy pass: a sort of its nodes by their
start level, the prefix charge the sampler's rotation reads.  Everything
else takes an O(n) stack loop, the reference, which also raises for
every malformed code.  Nothing recurses, so unary chains of millions of
nodes are fine.  The renderers are one block writer, which the CLI also
feeds the sampler's chunks, flat runs of whole codes, and ``stats`` its
outcomes.  It picks the writer from each chunk: prefix codes in bytes
below 10 as one digit byte a node; every other format and chunk but dot
as one piece a node, looked up by its key in a table of pieces.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping, Sequence
from operator import index

from . import rng
from .errors import MissingArityError, TrailingSymbolsError, TruncatedCodeError, _Record
from .rng import _BATCH_WORDS, _draw_ids

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
        self._symbols, opens, self._joins = [], [], []
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
            opens += ("(",) * len(row) if a == 2 else [s + "(" for s in row] if a else row
            self._joins += [f" {s} " for s in row] if a == 2 else (", " * (a > 0),) * len(row)
        # Each style's table of pieces, kept across renders.  Prefix: by a
        # node's symbol id, its symbol, then a space.  Infix: by the symbol id
        # of the next node's parent, its own symbol id and its key; what opens
        # it, and at a leaf, the nodes it closes and the join of the next
        # node's parent: the node after a leaf follows an earlier sibling, or
        # starts a tree.
        joins = self._joins
        self._pieces = {
            "prefix": [symbol + " " for symbol in self._symbols],
            "infix": _Pieces(lambda k: opens[k[1]] if k[2] > 0 else opens[k[1]] + ")" * -k[2] + joins[k[0]]),
        }

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
    # The text of each key, kept while it is short (not every closing run up
    # to the deepest).
    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        piece = self.make(key)
        if len(piece) <= 64:
            self[key] = piece
        return piece


# Each node's piece, by _structure's key: an internal node opens, a leaf
# closes what it ends, and each ends in the separator a tree's end replaces.
_SEXPR_PIECES = _Pieces(lambda k: f"({k} " if k > 0 else "0" + ")" * -k + " ")
_JSON_PIECES = _Pieces(
    lambda k: '{"degree":%d,"children":[' % k if k > 0 else '{"degree":0,"children":[]}' + "]}" * -k + ","
)
# By a code's items, read by operator.index: True or a numpy integer reads like an int
_PREFIX_PIECES = _Pieces(lambda d: f"{index(d)} ")
_DOT_LABELS = _Pieces(lambda d: f' [label="{index(d)}"];\n  ')
_TABLES = {"prefix": _PREFIX_PIECES, "sexpr": _SEXPR_PIECES, "json": _JSON_PIECES}
# Byte d of a code becomes the ASCII digit d, or "x" if d is 10 or more.
_DIGITS = b"0123456789".ljust(256, b"x")
# Most nodes in a block: whole trees, or a chunk of a larger tree.  A block
# holds about 80 bytes a node, and the sexpr text of a tree is about 3
# bytes a node.
_BLOCK = 1 << 12
# Most nodes of a tree that dot writes whole, naming its nodes from tables
# made once per call, and of a run of whole trees whose structure numpy
# reads at once; a larger tree's lines go in chunks of _BLOCK nodes, its
# structure by the loop.  Runs of whole trees stay at _BLOCK nodes: runs of
# 2^14 nodes raised the peak RSS of a render mix by about 1 MB.  At most
# 2^16: the numpy kernel keeps a run's levels in uint16.
_WHOLE_NODES = 1 << 14
# Fewest nodes of a run whose structure numpy reads: a 256-node tree took
# about as long by numpy as by the loop.
_KERNEL_NODES = 1 << 8
# The codes numpy reads, by the buffer protocol, if their items are integers
_BUFFERS = (bytes, bytearray, array, memoryview)
_INT_FORMATS = frozenset("bBhHiIlLqQ")


def _runs(code: Sequence[int], cap: int, *rest):
    # (start, run, *rest) for each run of cap symbols of code, which is its own run if it fits
    return [(0, code, *rest)] if len(code) <= cap else ((s, code[s : s + cap], *rest) for s in range(0, len(code), cap))


def _structure(code: Sequence[int], size: int = 0, block: int = 0, reads_parents: bool = True, reads_keys: bool = True):
    """Yield ``(start, run, parents, keys)`` for each run of ``block``
    symbols (default: all) from position ``start``: each node's parent (-1 at
    a root) and key, its degree, or at a leaf minus the count of internal
    nodes whose last subtree ends at it.  A key loses nothing: an internal
    node closes nothing at itself, and a leaf has degree 0.  The code is a
    forest of ``size``-node trees (default: one tree).  Raises what
    :func:`decode_prefix` documents, at the first symbol that breaks the
    grammar or at the end, before yielding its run.

    A buffer of ``_KERNEL_NODES`` to ``_WHOLE_NODES`` symbols, of trees of
    more than ``rng._BATCH_WORDS`` nodes (whose shuffles were batched, so
    numpy is loaded), is read whole by :func:`_whole_structure`, which
    gives ``None`` for a list not asked for.  Everything else, and any code
    the kernel finds malformed, takes the loop below, one stack step a
    node, which is the reference and the one source of errors.
    """
    n = len(code)
    if not n:
        raise TruncatedCodeError("empty code: a tree needs at least one node")
    size = size or n
    if _BATCH_WORDS < size and _KERNEL_NODES <= n <= _WHOLE_NODES and isinstance(code, _BUFFERS):
        whole = _whole_structure(code, size, reads_parents, reads_keys)
        if whole is not None:
            for start, run in _runs(code, block or n):
                yield start, run, *(None if a is None else a[start : start + len(run)].tolist() for a in whole)
            return
    # The innermost open node and the subtrees it misses, over a stack of the
    # same for its open ancestors, a virtual parent of the root and a guard.
    top, missing, tops, misses = -1, 1, [-1], [2]  # the guard misses two: it never closes
    for start, run in _runs(code, block or n):
        parents, keys = [], []
        for position, degree in enumerate(map(index, run), start):
            parents.append(top)
            if degree > 0:
                keys.append(degree)
                tops.append(top)
                misses.append(missing)
                top, missing = position, degree
            elif degree:
                raise ValueError(f"outdegree at position {position} is negative")
            else:
                # a leaf completes one subtree of each ancestor it closes
                count = 0
                while missing == 1:
                    count -= 1
                    top, missing = tops.pop(), misses.pop()
                missing -= 1
                if top < 0:  # a tree is complete; a negative next symbol raises above
                    count += 1  # the virtual parent is no node
                    if (position + 1) % size and index(code[position + 1]) >= 0:
                        raise TrailingSymbolsError(position + 1)
                    tops.append(-1)  # the guard again, for the next tree
                    misses.append(2)
                keys.append(count)
        if top >= 0 and start + len(run) == n:
            # Nodes yet to start a child: the innermost open one, and each
            # other one missing more than the subtree in progress under it.
            unstarted = 1 + sum(1 for m in misses[2:] if m > 1)
            raise TruncatedCodeError(f"code ended with {unstarted} node(s) still missing children")
        yield start, run, parents, keys


def _whole_structure(code, size: int, reads_parents: bool, reads_keys: bool):
    # _structure's parents and keys of a buffer of whole size-node trees, as
    # int32 arrays (None where not asked for), or None if a tree is
    # malformed.  A node's level is the count of slots open before it,
    # one more than its tree's prefix charge before it.  An internal node
    # of level a closes at the first later leaf of level a, so in the stable
    # sort of the nodes by (tree, level) each leaf closes the internal nodes
    # just before it.  A node after an internal node is its first child, and
    # a node after a leaf is the next sibling of the outermost node that
    # leaf closes, or of the leaf; chains of siblings are followed by
    # pointer jumping.
    import numpy as np

    view = memoryview(code)
    if view.ndim != 1 or view.format not in _INT_FORMATS:
        return None
    degrees = np.asarray(view)
    n, top = len(degrees), int(degrees.max())
    if n % size or top >= size or (view.format.islower() and degrees.min() < 0):
        return None  # a degree no tree of size nodes holds
    rows = np.subtract(degrees, 1, dtype=np.int32).reshape(-1, size)
    np.add.accumulate(rows, axis=1, out=rows)  # slots open after each node, less one
    # A tree is whole if a slot stays open up to its last node, which closes
    # them all; as a count drops by at most one a node, the last counts are
    # then each -1 if they sum to -1 a tree.
    if rows[:, :-1].min(initial=0) < 0 or rows[:, -1].sum() != -len(rows):
        return None
    # each node's level less one, plus size times its tree: below n, at most
    # _WHOLE_NODES, so uint16, which sorts by radix
    levels = np.empty(rows.shape, dtype=np.uint16)
    levels[:, 1:] = rows[:, :-1]
    levels[:, 0] = 0
    del rows
    levels += np.arange(0, n, size, dtype=levels.dtype)[:, None]
    order = levels.reshape(-1).argsort(kind="stable").astype(np.int32)
    del levels
    ranks = np.flatnonzero(degrees[order] == 0)  # of the leaves, in sorted order
    leaves = order[ranks]
    parents = keys = None
    if reads_keys:  # at a leaf, less the internal nodes sorted between it and the leaf before
        keys = degrees.astype(np.int32)
        keys[leaves[0]] = -ranks[0]
        keys[leaves[1:]] = ranks[:-1] - ranks[1:] + 1
    if reads_parents:
        # each node after a leaf links to its previous sibling, the first
        # node sorted after the leaf before, and a first child to itself; a
        # root (after a tree's last leaf) links to the root before it
        links = np.arange(n + 1, dtype=np.int32)
        ranks[1:] = ranks[:-1] + 1
        ranks[0] = 0
        links[leaves + 1] = order[ranks]
        for _ in range(max(top - 2, 0).bit_length()):  # 2^rounds links cover a degree-d node's d - 1
            links = links[links]
        # the parent of a first child is the node before it
        parents = np.arange(-1, n - 1, dtype=np.int32)[links[:n]]
        parents[::size] = -1
    return parents, keys


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
    parents = next(_structure(code, reads_keys=False))[2]
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


def _blocks(chunks, size: int, fmt: str, alphabet=None):
    """Yield the text of ``chunks``, each a flat run of whole ``size``-node
    codes, in ``fmt``, a CLI format, a block at a time.  Given an
    ``alphabet``, ``fmt`` is an expression style, ``"prefix"`` or
    ``"infix"``, and each chunk is a pair: the codes and a list of the id of
    each node's symbol (see ``OperatorAlphabet``).  A ``bytes`` chunk of
    prefix lines with every degree below 10 is written as digits, a byte
    each; any other chunk, a list among them, from a table of pieces.  A
    chunk is cut into runs of as many whole trees as fill a block of
    ``_BLOCK`` nodes, or of digits ``rng._BLOCK_WORDS``, the block of a long
    tree's draws and rotation, and a larger tree into runs of a block, but
    dot writes a tree of up to ``_WHOLE_NODES`` nodes whole.  Each tree's
    text ends in a newline, and a blank line separates dot trees.
    A block is one list of pieces, joined once: one piece a node, looked up
    by its key (see :func:`_structure`), but four a node for dot, whose
    names and arrows change with position.
    """
    header = "digraph tree {\n  "
    if fmt == "dot" and size <= _WHOLE_NODES:  # each position's name, arrow and edge tail, for one tree
        names = list(map(str, range(size)))
        arrows, tails = [name + " -> " for name in names], [name + ";\n  " for name in names]
    table = alphabet._pieces[fmt] if alphabet else _TABLES.get(fmt)
    joins = fmt == "infix" and alphabet._joins
    for chunk in chunks:
        chunk, marks = chunk if alphabet else (chunk, None)
        digits = fmt == "prefix" and not alphabet and isinstance(chunk, bytes)
        if digits:  # the chunk's digits, read once: any "x" sends it to the table
            text = chunk.translate(_DIGITS)
            digits = b"x" not in text
        # digit text is twice its code's bytes; blocks of 2^12 nodes made
        # `sample --count` 3-10% slower on trees of 3 and 10 nodes
        block = rng._BLOCK_WORDS if digits else _BLOCK
        # whole trees a run (a pass per code doubled the time of 3e5 three-node
        # trees as digits), or digits of a larger tree; an empty code is one
        # run, which _structure refuses
        per = block if digits and size > block else size * max(block // (size or 1), 1)
        for first, codes in _runs(text if digits else chunk, per):
            if digits:  # each digit, then a space or a newline, is a byte
                out = bytearray(b" ") * (2 * len(codes))
                out[::2] = codes
                ends = range(2 * ((size - 1 - first) % size) + 1, len(out), 2 * size)  # a tree's last node
                out[ends.start :: ends.step] = b"\n" * len(ends)
                yield out.decode("ascii")  # str, not bytes: output may be any text stream
            elif fmt == "dot" and size <= _WHOLE_NODES:
                n = len(codes)
                if len(names) < n:  # repeated for the trees of the longest run yet
                    names, arrows, tails = (table[:size] * (n // size) for table in (names, arrows, tails))
                parents = next(_structure(codes, size, reads_keys=False))[2]
                nodes = _dot_lines(names[:n], map(_DOT_LABELS.__getitem__, codes), n)
                edges = _dot_lines(map(arrows.__getitem__, parents), tails[:n], n)
                pieces = []
                for start in range(0, n, size):
                    pieces.append(header)
                    pieces += nodes[2 * start : 2 * (start + size)]
                    pieces += edges[2 * start + 2 : 2 * (start + size)]  # a root has no edge
                    pieces[-1] = pieces[-1][:-2] + "}\n"
                    header = "\ndigraph tree {\n  "
                yield "".join(pieces)
            elif fmt == "dot":  # runs of the tree's node lines, then of its edge lines
                for start, run in _runs(codes, _BLOCK):
                    ids = map(str, range(start, start + len(run)))
                    yield header * (not start) + "".join(_dot_lines(ids, map(_DOT_LABELS.__getitem__, run), len(run)))
                for start, run, parents, _ in _structure(codes, size, _BLOCK):
                    arrows = [f"{p} -> " for p in parents]
                    pieces = _dot_lines(arrows, [f"{i};\n  " for i in range(start, start + len(run))], len(run))
                    del pieces[: 2 * (not start)]  # the root has no edge
                    if start + _BLOCK >= len(codes):
                        pieces[-1] = pieces[-1][:-2] + "}\n"
                    yield "".join(pieces)
            else:
                labels = alphabet and marks[first : first + len(codes)]
                if fmt == "prefix":
                    structure = _runs(codes, _BLOCK, None, None)
                else:  # infix reads both lists, sexpr and json only keys
                    structure = _structure(codes, size, _BLOCK, reads_parents=alphabet is not None)
                yield from _stream_text(structure, table, size, labels, joins)
            header = "\ndigraph tree {\n  "


def _stream_text(structure, table, size: int, labels=None, joins=None):
    # The text of each run that structure yields, from position start in a
    # stream of size-node codes: one piece a node from table, by its item
    # (prefix), its key (sexpr, json), or given the symbol ids of the codes
    # (labels), by its id (a prefix expression) or, given the symbols' joins,
    # its infix key.  A tree's last piece ends in a newline in place of its
    # separator; infix pieces have none.
    for start, run, parents, keys in structure:
        ids = labels and labels[start : start + len(run)]
        if joins:
            # The run's last node takes the parent -1, which names the last
            # node of the codes, a leaf, whose join is "": the next run's
            # first piece starts with the join it needs.
            keys = zip(map(labels.__getitem__, parents[1:] + [-1]), ids, keys)
        pieces = list(map(table.__getitem__, keys or ids or run))
        if joins and parents[0] != start - 1:  # the first node follows an earlier sibling
            pieces[0] = joins[labels[parents[0]]] + pieces[0]
        first = (size - 1 - start) % size  # the first node of the run that ends a tree
        cut = 0 if joins else 1
        pieces[first::size] = [piece[: len(piece) - cut] + "\n" for piece in pieces[first::size]]
        yield "".join(pieces)


def _dot_lines(firsts, seconds, length: int) -> list[str]:
    # The pieces of length dot lines, two a line: a node's name and its
    # label, or an edge's arrow and its tail; each line ends in "\n  ".
    pieces = [""] * (2 * length)
    pieces[::2] = firsts
    pieces[1::2] = seconds
    return pieces


def to_sexpr(code: Sequence[int]) -> str:
    """Parenthesised preorder: leaves as ``0``, a degree-d node as ``(d c1 ... cd)``."""
    return "".join(_blocks([code], len(code), "sexpr"))[:-1]


def to_json(code: Sequence[int]) -> str:
    """Compact JSON nesting ``{"degree": d, "children": [...]}``; parses back
    (for example with ``json.loads``) to a structure mirroring the tree."""
    return "".join(_blocks([code], len(code), "json"))[:-1]


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
    :class:`RandomSource` draws them in one batch of the same words (in
    blocks past 2**18 nodes), by the draw kernel in ``rng`` that also draws
    the shuffles.  The source must not be one that is mid-way through
    producing the tree itself, otherwise labelling would correlate with
    shape.  Styles:

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
    # the code is checked before any symbol is drawn; infix is written from the runs read here
    infix = style == "infix"
    runs = [run if infix else (*run[:2], None, None) for run in _structure(code, 0, _BLOCK, infix, infix)]
    labels = _draw_ids(source, list(map(alphabet._labels(set(code)).__getitem__, code)))
    return "".join(_stream_text(runs, alphabet._pieces[style], len(code), labels, infix and alphabet._joins))[:-1]
