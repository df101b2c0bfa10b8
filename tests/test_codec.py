import inspect
import io
import itertools
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    RecordingSource,
    ScalarOnly,
    all_sequences,
    brute_well_formed,
    constructible_multiset_strategy,
    unmix,
)
from degtree import (
    DegreeMultiset,
    MalformedCodeError,
    MissingArityError,
    OperatorAlphabet,
    RandomSource,
    TrailingSymbolsError,
    TreeNode,
    TruncatedCodeError,
    decode_prefix,
    encode_prefix,
    is_well_formed,
    render_expression,
    sample_tree,
    sample_trees,
    to_dot,
    to_json,
    to_sexpr,
)
from degtree import cli, codec
from degtree.rng import _GOLDEN


def leaf():
    return TreeNode(0)


def figure_tree():
    # degree-3 root with a unary node, a binary node, and a leaf
    return TreeNode(3, [TreeNode(1, [leaf()]), TreeNode(2, [leaf(), leaf()]), leaf()])


FIGURE_CODE = [3, 1, 0, 2, 0, 0, 0]


class CountingSource:
    """next_below stub that counts its draws."""

    def __init__(self):
        self.calls = 0

    def next_below(self, bound):
        self.calls += 1
        return 0


def render_undrawn(code):
    """render_expression that fails the test if it draws a symbol."""
    source = CountingSource()
    try:
        return render_expression(code, OperatorAlphabet({d: ["s"] for d in range(5)}), source)
    finally:
        assert source.calls == 0, "symbols drawn before the code was rejected"


# Every reader of a prefix code rejects a malformed one the same way.
READERS = pytest.mark.parametrize(
    "read",
    [decode_prefix, to_sexpr, to_json, to_dot, render_undrawn],
    ids=["decode_prefix", "to_sexpr", "to_json", "to_dot", "render_expression"],
)


class TestDecode:
    def test_leaf(self):
        assert decode_prefix([0]) == leaf()

    def test_mixed_arity_tree(self):
        assert decode_prefix(FIGURE_CODE) == figure_tree()

    @READERS
    def test_truncated(self, read):
        with pytest.raises(TruncatedCodeError):
            read([2, 0])
        with pytest.raises(TruncatedCodeError, match="2 node"):
            read([2, 2, 0])
        with pytest.raises(TruncatedCodeError, match="1 node"):
            read([2, 0, 1])
        with pytest.raises(TruncatedCodeError, match="empty"):
            read([])
        with pytest.raises(TruncatedCodeError):
            read([3, 0, 0])

    @READERS
    def test_trailing_symbols(self, read):
        with pytest.raises(TrailingSymbolsError) as info:
            read([0, 0])
        assert info.value.position == 1
        with pytest.raises(TrailingSymbolsError) as info:
            read([2, 0, 0, 1, 0])
        assert info.value.position == 3

    @READERS
    def test_negative_degree(self, read):
        with pytest.raises(ValueError, match="position 1"):
            read([2, -1, 0])

    def test_agrees_with_charge_criterion_exhaustively(self):
        # full sweep, malformed inputs included: decoding succeeds exactly
        # on the sequences the prefix-charge criterion accepts
        for seq in all_sequences(9, 4):
            try:
                decode_prefix(seq)
                decoded = True
            except (TruncatedCodeError, TrailingSymbolsError):
                decoded = False
            assert decoded == is_well_formed(seq), seq

    def test_agrees_with_recursive_parser(self):
        for seq in all_sequences(7, 4):
            try:
                decode_prefix(seq)
                decoded = True
            except (TruncatedCodeError, TrailingSymbolsError):
                decoded = False
            assert decoded == brute_well_formed(seq), seq


class TestTreeNode:
    # a plain class; the expected values are what it gave as a dataclass

    def test_repr(self):
        assert repr(figure_tree()) == (
            "TreeNode(outdegree=3, children=[TreeNode(outdegree=1, children=[TreeNode(outdegree=0, children=[])]), "
            "TreeNode(outdegree=2, children=[TreeNode(outdegree=0, children=[]), TreeNode(outdegree=0, children=[])]), "
            "TreeNode(outdegree=0, children=[])])"
        )
        assert repr(TreeNode(0, None)) == "TreeNode(outdegree=0, children=None)"

    def test_equality(self):
        assert figure_tree() == figure_tree()
        assert not figure_tree() != figure_tree()
        assert TreeNode(1, [leaf()]) != TreeNode(1, [TreeNode(1)])
        assert not TreeNode(0) == TreeNode(1)
        assert TreeNode(0) != (0, [])
        assert TreeNode(0).__eq__((0, [])) is NotImplemented
        assert TreeNode(0) != type("Node", (TreeNode,), {})(0)  # only the same class

    def test_unhashable(self):
        assert TreeNode.__hash__ is None
        with pytest.raises(TypeError):
            hash(leaf())

    def test_children(self):
        first, second = TreeNode(0), TreeNode(0)
        assert first.children == [] and first.children is not second.children
        assert TreeNode(0, None).children is None
        children = [leaf()]
        assert TreeNode(1, children).children is children

    def test_keywords_and_match(self):
        node = TreeNode(outdegree=1, children=[leaf()])
        assert node == TreeNode(1, [leaf()])
        match node:
            case TreeNode(degree, [child]):
                assert (degree, child) == (1, leaf())
            case _:
                pytest.fail(f"{node!r} did not match")


class TestEncode:
    def test_examples(self):
        assert encode_prefix(leaf()) == [0]
        assert encode_prefix(figure_tree()) == [3, 1, 0, 2, 0, 0, 0]
        nested = TreeNode(2, [leaf(), TreeNode(2, [leaf(), leaf()])])
        assert encode_prefix(nested) == [2, 0, 2, 0, 0]

    def test_round_trip_exhaustive(self, well_formed_family):
        for seq in well_formed_family:
            assert encode_prefix(decode_prefix(seq)) == list(seq)

    def test_decode_inverts_encode(self):
        tree = figure_tree()
        assert decode_prefix(encode_prefix(tree)) == tree

    def test_node_count_matches_length(self, well_formed_family):
        for seq in well_formed_family[::13]:
            code = encode_prefix(decode_prefix(seq))
            assert len(code) == len(seq)
            assert len(code) - sum(code) == 1


def test_deep_chain_needs_no_recursion():
    code = [1] * 200000 + [0]
    tree = decode_prefix(code)
    assert encode_prefix(tree) == code


def test_renders_handle_deep_chains():
    code = [1] * 50000 + [0]
    assert to_sexpr(code).startswith("(1 (1 ")
    assert to_dot(code).endswith("}\n")
    assert to_json(code).count('"degree":1') == 50000
    alphabet = OperatorAlphabet({0: ["x"], 1: ["f"]})
    rendered = render_expression(code, alphabet, RandomSource(1), style="infix")
    assert rendered == "f(" * 50000 + "x" + ")" * 50000


@pytest.mark.parametrize(
    "render",
    [to_sexpr, to_json, to_dot,
     lambda code: render_expression(code, OperatorAlphabet({0: ["x"], 1: ["f"]}), RandomSource(1),
                                    style="infix")],
    ids=["to_sexpr", "to_json", "to_dot", "render_expression"],
)
def test_deep_chain_renders_in_linear_memory(render):
    # A closing run built from a table of ")" * c for every c up to the
    # deepest one holds about n**2 / 2 bytes (200 MB here) while its output
    # is under 1 MB; what the render holds must stay a fixed multiple of it.
    code = [1] * 20000 + [0]
    render(code[-33:])  # imports and memoised pieces are not the render's
    tracemalloc.start()
    try:
        text = render(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * len(text), (peak, len(text))


def test_items_that_are_not_plain_ints_render_as_ints():
    # in a fresh interpreter, so that True is the first item any renderer
    # sees with the value 1
    script = """
import numpy as np
from degtree import OperatorAlphabet, RandomSource, render_expression, to_dot, to_json, to_sexpr
assert to_sexpr([True, False]) == "(1 0)"
assert '  0 [label="1"];' in to_dot([True, False])
assert to_json([True, False]) == to_json([1, 0])
code = [3, 1, 0, 2, 0, 0, 0]
wide = np.array(code, dtype=np.int64)
for render in (to_sexpr, to_json, to_dot):
    assert render(wide) == render(code), render
alphabet = OperatorAlphabet({d: [f"s{d}", f"t{d}"] for d in range(4)})
for style in ("prefix", "infix"):
    assert render_expression(wide, alphabet, RandomSource(3), style) == render_expression(
        code, alphabet, RandomSource(3), style)
assert to_sexpr([1, 0]) == "(1 0)"
assert '  0 [label="1"];' in to_dot([1, 0])
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n" + script],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


def _written(chunks, fmt, multiset, block):
    # What the CLI writes for chunks of trees, with blocks of at most block nodes
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "_BLOCK", block)
        patch.setattr(codec, "_DIGIT_BLOCK", block)
        patch.setattr(sys, "stdout", out)
        cli._write_trees(chunks, fmt, multiset)
    return out.getvalue()


# Each tree as the CLI writes it alone, from the public one-tree renders
_ONE_TREE = {
    "prefix": lambda code: " ".join(map(str, code)) + "\n",
    "sexpr": lambda code: to_sexpr(code) + "\n",
    "json": lambda code: to_json(code) + "\n",
    "dot": to_dot,
}


class TestBlockWriter:
    @given(
        multiset=constructible_multiset_strategy(40, 12),
        count=st.integers(1, 12),
        seed=st.integers(0, 2**64 - 1),
        block=st.integers(1, 120),
        fmt=st.sampled_from(sorted(_ONE_TREE)),
        cut=st.integers(0, 12),
    )
    @example(DegreeMultiset({0: 1}), 5, 0, 3, "dot", 2)
    @example(DegreeMultiset({0: 1}), 5, 0, 3, "json", 2)
    def test_blocks_equal_the_one_tree_renders(self, multiset, count, seed, block, fmt, cut):
        # degrees up to 12: prefix with every degree below 10 has a writer of
        # its own, which takes bytes.  The trees come as two flat chunks, cut
        # after any tree, as bytes then a list and the other way round.
        trees = list(sample_trees(multiset, RandomSource(seed), count))
        separator = "\n" if fmt == "dot" else ""  # a blank line between dot trees
        expected = separator.join(map(_ONE_TREE[fmt], trees))
        flat = [degree for tree in trees for degree in tree]
        cut = multiset.total_nodes * (1 + cut % count)
        kinds = [bytes] if fmt == "prefix" and max(multiset.counts) < 10 else [bytes, list]
        for first, second in itertools.product(kinds, repeat=2):
            chunks = [first(flat[:cut]), second(flat[cut:])] if cut < len(flat) else [first(flat)]
            assert _written(chunks, fmt, multiset, block) == expected, (first, second)

    @given(code=st.lists(st.integers(-1, 4), max_size=14), block=st.integers(1, 20))
    def test_malformed_codes_raise_as_decode_prefix_does(self, code, block):
        def outcome(read):
            try:
                read(code)
            except (ValueError, MalformedCodeError) as exc:
                return type(exc), str(exc), getattr(exc, "position", None)
            return None

        expected = outcome(decode_prefix)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codec, "_BLOCK", block)  # longer codes are read in chunks
            for render in (to_sexpr, to_json, to_dot):
                assert outcome(render) == expected, render

    def test_public_renders_take_one_code(self):
        for read in (decode_prefix, to_sexpr, to_json, to_dot):
            assert list(inspect.signature(read).parameters) == ["code"], read

    @pytest.mark.parametrize("fmt", ["sexpr", "json", "dot"])
    def test_large_tree_is_written_in_blocks(self, fmt, monkeypatch):
        # The writer holds less than the tree's text at any time.  The sampler
        # hands main() a tree drawn beforehand, as its one chunk of bytes, so
        # the peak is the writer's.
        spec = "0:80001,1:60000,2:40000,3:20000"
        tree = sample_tree(cli.parse_degree_spec(spec), RandomSource(2))
        assert len(tree) == 200001
        text_size = len(_ONE_TREE[fmt](tree))
        chunk = bytes(tree)

        class Discard:
            write = staticmethod(len)

            def flush(self):
                pass

        monkeypatch.setattr(cli, "_tree_chunks", lambda multiset, source, count: iter([chunk]))
        monkeypatch.setattr(sys, "stdout", Discard())
        argv = ["sample", "--degrees", spec, "--seed", "2", "--format", fmt]
        assert cli.main(argv) == 0  # imports and memoised pieces are not the writer's
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < text_size, (peak, text_size)


class TestSexpr:
    def test_examples(self):
        assert to_sexpr([0]) == "0"
        assert to_sexpr([2, 0, 0]) == "(2 0 0)"
        assert to_sexpr(FIGURE_CODE) == "(3 (1 0) (2 0 0) 0)"


class TestDot:
    def test_leaf(self):
        assert to_dot([0]) == 'digraph tree {\n  0 [label="0"];\n}\n'

    def test_binary(self):
        assert to_dot([2, 0, 0]) == (
            "digraph tree {\n"
            '  0 [label="2"];\n'
            '  1 [label="0"];\n'
            '  2 [label="0"];\n'
            "  0 -> 1;\n"
            "  0 -> 2;\n"
            "}\n"
        )

    def test_unary_chain_numbers_in_preorder(self):
        assert to_dot([1, 1, 0]) == (
            "digraph tree {\n"
            '  0 [label="1"];\n'
            '  1 [label="1"];\n'
            '  2 [label="0"];\n'
            "  0 -> 1;\n"
            "  1 -> 2;\n"
            "}\n"
        )


class TestJson:
    def test_examples(self):
        assert to_json([0]) == '{"degree":0,"children":[]}'
        assert to_json([2, 0, 0]) == (
            '{"degree":2,"children":[{"degree":0,"children":[]},'
            '{"degree":0,"children":[]}]}'
        )

    def rebuild(self, payload):
        return TreeNode(
            payload["degree"], [self.rebuild(child) for child in payload["children"]]
        )

    def test_round_trips_through_a_json_parser(self, well_formed_family):
        for seq in well_formed_family[::11]:
            assert self.rebuild(json.loads(to_json(seq))) == decode_prefix(seq)


ARITH = OperatorAlphabet(
    {0: ["x", "y", "z", "w"], 1: ["neg", "abs"], 2: ["+", "-", "*", "/"], 3: ["sel"], 4: ["quad"]}
)
ARITY_OF = {s: a for a in ARITH.arities for s in ARITH.symbols_for(a)}


def parse_infix(text, arity_of=ARITY_OF):
    """Recursive-descent reader of the fully parenthesised infix form.

    Returns the preorder degree sequence of the parsed expression.
    """
    pos = 0

    def read_symbol():
        nonlocal pos
        start = pos
        while pos < len(text) and text[pos] not in " (),":
            pos += 1
        assert pos > start, f"no symbol at {start} in {text!r}"
        return text[start:pos]

    def expect(token):
        nonlocal pos
        assert text[pos : pos + len(token)] == token, (text, pos, token)
        pos += len(token)

    def expression():
        nonlocal pos
        if text[pos] == "(":
            expect("(")
            left = expression()
            expect(" ")
            op = read_symbol()
            assert arity_of[op] == 2
            expect(" ")
            right = expression()
            expect(")")
            return [2] + left + right
        symbol = read_symbol()
        arity = arity_of[symbol]
        if arity == 0:
            return [0]
        expect("(")
        operands = [expression()]
        while len(operands) < arity:
            expect(", ")
            operands.append(expression())
        expect(")")
        return [arity] + [d for operand in operands for d in operand]

    degrees = expression()
    assert pos == len(text), f"trailing text at {pos} in {text!r}"
    return degrees


class TestRenderExpression:
    def test_forced_choices(self):
        source = RandomSource(0)
        x_only = OperatorAlphabet({0: ["x"]})
        assert render_expression([0], x_only, source) == "x"
        plus = OperatorAlphabet({0: ["x"], 2: ["+"]})
        assert render_expression([2, 0, 0], plus, source, style="infix") == "(x + x)"
        assert render_expression([2, 0, 0], plus, source, style="prefix") == "+ x x"

    def test_unary_and_wide_calls(self):
        source = RandomSource(0)
        alphabet = OperatorAlphabet({0: ["v"], 1: ["neg"], 3: ["f"]})
        assert render_expression([1, 0], alphabet, source, style="infix") == "neg(v)"
        assert (
            render_expression([3, 0, 0, 0], alphabet, source, style="infix")
            == "f(v, v, v)"
        )

    def test_symbols_drawn_in_preorder(self):
        class Scripted:
            def __init__(self, draws):
                self.draws = list(draws)

            def next_below(self, bound):
                value = self.draws.pop(0)
                assert value < bound
                return value

        alphabet = OperatorAlphabet({0: ["x", "y"], 2: ["+", "*"]})
        rendered = render_expression([2, 0, 0], alphabet, Scripted([0, 1, 0]), style="infix")
        assert rendered == "(y + x)"

    def test_missing_arity_checked_before_drawing(self):
        # the second code misses arities 3 and 5: the smaller one is named
        for symbols, code, arity in [
            ({0: ["x"]}, [2, 0, 0], 2),
            ({0: ["x"], 2: ["+"]}, [5, 3, 2, 0, 0, 0, 0, 0, 0, 0, 0], 3),
        ]:
            source = CountingSource()
            with pytest.raises(MissingArityError) as info:
                render_expression(code, OperatorAlphabet(symbols), source)
            assert info.value.arity == arity
            assert source.calls == 0

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            render_expression([0], OperatorAlphabet({0: ["x"]}), RandomSource(1), style="postfix")

    def test_infix_reparses_to_the_same_degrees(self, well_formed_family):
        source = RandomSource(2718)
        for seq in well_formed_family[::7]:
            rendered = render_expression(seq, ARITH, source, style="infix")
            assert parse_infix(rendered) == list(seq), rendered


class TestBatchedLabels:
    # five symbols at every arity: next_below(5) rejects the word 2**64 - 1,
    # since 2**64 % 5 == 1
    FIVE = OperatorAlphabet({d: [f"s{d}{k}" for k in range(5)] for d in range(4)})
    # 33 nodes, so 33 labels: enough for one next_words batch
    CODE = sample_tree(DegreeMultiset({0: 15, 1: 8, 2: 6, 3: 4}), RandomSource(8))

    @pytest.mark.parametrize("style", ["prefix", "infix"])
    def test_batched_labels_equal_the_scalar_chain(self, style):
        fast, slow = RecordingSource(2024), ScalarOnly(2024)
        rendered = render_expression(self.CODE, self.FIVE, fast, style)
        assert rendered == render_expression(self.CODE, self.FIVE, slow, style)
        assert fast.words_consumed == slow._source.words_consumed == len(self.CODE)
        assert (fast.batches, fast.rewinds) == ([len(self.CODE)], 0)

    @pytest.mark.parametrize("style", ["prefix", "infix"])
    def test_rejected_word_rewinds_to_the_scalar_chain(self, style):
        seed = (unmix(2**64 - 1) - _GOLDEN) % 2**64
        assert RandomSource(seed).next_word() == 2**64 - 1
        fast, slow = RecordingSource(seed), ScalarOnly(seed)
        rendered = render_expression(self.CODE, self.FIVE, fast, style)
        assert rendered == render_expression(self.CODE, self.FIVE, slow, style)
        # the rejected word costs the chain one more word than it has labels
        assert fast.words_consumed == slow._source.words_consumed == len(self.CODE) + 1
        assert (fast.batches, fast.rewinds) == ([len(self.CODE)], 1)
        assert fast.next_word() == slow._source.next_word()

    @pytest.mark.parametrize("style", ["prefix", "infix"])
    def test_sliver_word_rewinds_to_the_scalar_chain(self, style):
        # next_below(4) takes the last node's word, 2**64 - 1, as that node is a leaf
        # and 2**64 % 4 == 0; the batch is redrawn all the same, as 2**64 - 1 is within
        # the largest symbol count of 2**64
        four = OperatorAlphabet({0: list("wxyz"), 1: ["-", "~", "!"], 2: list("+-*/"), 3: ["f", "g"]})
        assert self.CODE[-1] == 0
        seed = (unmix(2**64 - 1) - len(self.CODE) * _GOLDEN) % 2**64
        fast, slow = RecordingSource(seed), ScalarOnly(seed)
        rendered = render_expression(self.CODE, four, fast, style)
        assert rendered == render_expression(self.CODE, four, slow, style)
        assert fast.words_consumed == slow._source.words_consumed == len(self.CODE)
        assert (fast.batches, fast.rewinds) == ([len(self.CODE)], 1)


class TestOperatorAlphabet:
    def test_validation(self):
        with pytest.raises(ValueError):
            OperatorAlphabet({0: []})
        with pytest.raises(ValueError):
            OperatorAlphabet({-1: ["x"]})
        with pytest.raises(ValueError):
            OperatorAlphabet({0: ["x", 3]})

    def test_lookup(self):
        alphabet = OperatorAlphabet({0: ["x", "y"], 2: ("+",)})
        assert alphabet.symbols_for(0) == ("x", "y")
        assert alphabet.symbols_for(2) == ("+",)
        assert alphabet.arities == {0, 2}
        with pytest.raises(MissingArityError):
            alphabet.symbols_for(5)
