import importlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import support
from native import missing_build_tool, requires_build_tools
from srlkit.errors import (
    EmptyInput,
    HeightOverflow,
    TerminalOutOfRange,
    TrailingGarbage,
    UnbalancedParens,
)
from srlkit.treebank import SpanTree, parse_tree, pretty, select_node

CAT_SITS = "(S (NP (DT The) (NN cat)) (VP (VBZ sits)))"
CAT_MAT = "(S (NP (DT The) (NN cat)) (VP (VBZ sits) (PP (IN on) (NP (DT the) (NN mat)))))"
PRO_EAT = "(S (NP-SBJ (-NONE- *PRO*-1)) (VP (VB eat) (NP (NN fish))))"

# nodes in preorder: S, NP, DT, NN, VP, VBZ
CAT_SITS_SPANS = SpanTree(
    tokens=("The", "cat", "sits"),
    pos=("DT", "NN", "VBZ"),
    parent=(-1, 0, 1, 1, 0, 4),
    start=(0, 0, 0, 1, 2, 2),
    end=(3, 2, 1, 2, 3, 3),
    leaf=(2, 3, 5),
)


def _text(tree, node):
    """The tokens under a node, traces included, joined with spaces."""
    return " ".join(tree.tokens[tree.start[node]:tree.end[node]])


class TestParseTree:
    def test_basic(self):
        tree = parse_tree(CAT_SITS)
        assert isinstance(tree, SpanTree)
        assert tree == CAT_SITS_SPANS

    def test_preterminal_root(self):
        assert parse_tree("(X a)") == SpanTree(("a",), ("X",), (-1,), (0,), (1,), (0,))

    def test_unbalanced(self):
        with pytest.raises(UnbalancedParens):
            parse_tree("((")

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_tree("")
        with pytest.raises(EmptyInput):
            parse_tree("  \n\n  ")

    def test_trailing_garbage(self):
        with pytest.raises(TrailingGarbage):
            parse_tree("(X a) stray")
        with pytest.raises(TrailingGarbage):
            parse_tree("(X a) (Y b)")

    def test_surrounding_blank_lines_ignored(self):
        assert parse_tree("\n\n  (X a)\n\n") == parse_tree("(X a)")

    def test_wrapper_unwrapped(self):
        tree = parse_tree("( (S (NP (X a)) (VP (V b))) )")
        assert tree == parse_tree("(S (NP (X a)) (VP (V b)))")
        assert tree.parent[0] == -1

    def test_wrapper_multiple_children_rejected(self):
        with pytest.raises(UnbalancedParens):
            parse_tree("( (S (X a)) (S (Y b)) )")

    def test_wrapper_below_root_rejected(self):
        with pytest.raises(UnbalancedParens):
            parse_tree("(S (NP (X a)) ((Y b)))")

    def test_empty_node_rejected(self):
        with pytest.raises(UnbalancedParens):
            parse_tree("(X)")

    def test_mixed_token_and_subtree_rejected(self):
        with pytest.raises(UnbalancedParens):
            parse_tree("(X a (Y b))")
        with pytest.raises(UnbalancedParens):
            parse_tree("(X (Y b) a)")

    def test_multiline_tree(self):
        flat = parse_tree(CAT_MAT)
        pretty = parse_tree(
            "(S (NP (DT The) (NN cat))\n   (VP (VBZ sits)\n       (PP (IN on)\n           (NP (DT the) (NN mat)))))"
        )
        assert flat == pretty


def test_parse_tree_returns_span_tree_on_both_backends():
    script = (
        "from srlkit import backend, treebank; "
        "print(backend(), type(treebank.parse_tree('(X a)')).__name__)"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "SRLKIT_PURE": "1", "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "pure SpanTree\n"
    assert isinstance(parse_tree("(X a)"), SpanTree)  # the backend this run chose


class TestLeaves:
    def test_examples(self):
        assert parse_tree(CAT_SITS).tokens == ("The", "cat", "sits")
        assert parse_tree("(X a)").tokens == ("a",)
        assert parse_tree(PRO_EAT).tokens == ("*PRO*-1", "eat", "fish")
        assert parse_tree(PRO_EAT).pos == ("-NONE-", "VB", "NN")

    def test_terminal_count(self):
        assert len(parse_tree(CAT_SITS).leaf) == 3
        assert len(parse_tree("(X a)").leaf) == 1
        assert len(parse_tree(PRO_EAT).leaf) == 3


class TestSelect:
    def test_examples(self):
        tree = parse_tree(CAT_MAT)
        assert _text(tree, select_node(tree, 0, 1)) == "The cat"
        node = select_node(tree, 2, 0)
        assert node == tree.leaf[2] and tree.pos[2] == "VBZ"
        assert _text(tree, select_node(tree, 3, 2)) == "sits on the mat"

    def test_terminal_out_of_range(self):
        tree = parse_tree(CAT_SITS)
        with pytest.raises(TerminalOutOfRange, match=r"^terminal 3 out of range \(tree has 3 terminals\)$"):
            select_node(tree, 3, 0)
        with pytest.raises(TerminalOutOfRange, match=r"^negative terminal index -1$"):
            select_node(tree, -1, 0)

    def test_height_overflow(self):
        tree = parse_tree(CAT_SITS)
        assert select_node(tree, 0, 2) == 0  # the root itself
        with pytest.raises(HeightOverflow, match=r"^height 3 from terminal 0 passes the root$"):
            select_node(tree, 0, 3)
        with pytest.raises(HeightOverflow):
            select_node(parse_tree("(X a)"), 0, 1)
        with pytest.raises(HeightOverflow, match=r"^negative height -1$"):
            select_node(tree, 0, -1)


class TestSubtreeText:
    def test_examples(self):
        tree = parse_tree(CAT_MAT)
        assert _text(tree, select_node(tree, 0, 1)) == "The cat"
        assert _text(tree, select_node(tree, 2, 0)) == "sits"
        trace_np = parse_tree("(NP-SBJ (-NONE- *PRO*-1))")
        assert _text(trace_np, 0) == "*PRO*-1"


class TestPretty:
    @pytest.mark.parametrize(
        "text, expected",
        [
            (CAT_SITS, "(S\n  (NP\n    (DT The)\n    (NN cat))\n  (VP\n    (VBZ sits)))"),
            ("( (S (NP (X a)) (VP (V b))) )", "(S\n  (NP\n    (X a))\n  (VP\n    (V b)))"),
            ("(X a)", "(X a)"),
            ("( (X a) )", "(X a)"),
        ],
        ids=["nested", "wrapped", "lone-preterminal", "wrapped-lone-preterminal"],
    )
    def test_examples(self, text, expected):
        assert pretty(text) == expected

    @pytest.mark.parametrize("bad", ["(X a", "", "(X a) (Y b)", "(S ((Y b)))"])
    def test_malformed_text_raises_as_parse_tree(self, bad):
        assert _outcome(pretty, bad) == _outcome(parse_tree, bad)


@given(st.integers(0, 10**9))
def test_pretty_matches_object_oracle(seed):
    tree = support.random_tree(random.Random(seed))
    expected = support.pretty(tree)
    text = support.render(tree)
    for form in (text, f"( {text} )", expected):
        assert pretty(form) == expected


@given(st.integers(0, 10**9))
def test_render_parse_roundtrip(seed):
    tree = support.random_tree(random.Random(seed))
    assert support.parse_node(support.render(tree)) == tree
    assert parse_tree(support.render(tree)) == support.flatten(tree)


@given(st.integers(0, 10**9))
def test_select_height_zero_is_ith_leaf(seed):
    tree = parse_tree(support.render(support.random_tree(random.Random(seed))))
    for i in range(len(tree.tokens)):
        node = select_node(tree, i, 0)
        assert node == tree.leaf[i]
        assert (tree.start[node], tree.end[node]) == (i, i + 1)


@given(st.integers(0, 10**9))
def test_select_matches_bruteforce_oracle(seed):
    rng = random.Random(seed)
    tree = support.random_tree(rng)
    number = {id(node): k for k, node in enumerate(support.preorder(tree))}
    spans = parse_tree(support.render(tree))
    order, parents = support.build_parent_map(tree)
    for i in range(len(order)):
        h = 0
        while True:
            try:
                expected = support.oracle_select_prebuilt(order, parents, i, h)
            except LookupError:
                with pytest.raises(HeightOverflow):
                    select_node(spans, i, h)
                break
            assert select_node(spans, i, h) == number[id(expected)]
            h += 1


@given(st.integers(0, 10**9))
def test_subtree_text_is_joined_leaves(seed):
    tree = support.random_tree(random.Random(seed))
    spans = parse_tree(support.render(tree))
    for k, node in enumerate(support.preorder(tree)):
        assert spans.tokens[spans.start[k]:spans.end[k]] == tuple(support.leaves(node))


@given(st.integers(0, 10**9))
def test_terminal_count_equals_leaf_count(seed):
    tree = support.random_tree(random.Random(seed))
    spans = parse_tree(support.render(tree))
    assert len(spans.leaf) == len(spans.tokens) == support.oracle_leaf_count(tree)


def _leaf_range(order, parents, node):
    """[start, end) of the preterminals under `node`, from the oracle's
    parent map."""
    under = []
    for k, pre in enumerate(order):
        up = pre
        while up is not node and id(up) in parents:
            up = parents[id(up)]
        if up is node:
            under.append(k)
    assert under == list(range(under[0], under[-1] + 1))
    return under[0], under[-1] + 1


def _outcome(fn, *args):
    try:
        return "returned", fn(*args)
    except Exception as exc:
        return "raised", type(exc), str(exc)


def _select_error(terminal, height, terminals):
    """The error select_node documents for a pointer the oracle rejects."""
    if height < 0:
        return "raised", HeightOverflow, f"negative height {height}"
    if terminal < 0:
        return "raised", TerminalOutOfRange, f"negative terminal index {terminal}"
    if terminal >= terminals:
        return ("raised", TerminalOutOfRange,
                f"terminal {terminal} out of range (tree has {terminals} terminals)")
    return "raised", HeightOverflow, f"height {height} from terminal {terminal} passes the root"


@pytest.mark.parametrize(
    "kernel", ["_pure", pytest.param("_speedups", marks=requires_build_tools)]
)
@given(st.integers(0, 10**9))
def test_select_node_matches_bruteforce_oracle(kernel, seed):
    select_node = importlib.import_module(f"srlkit.{kernel}").select_node
    tree = support.random_tree(random.Random(seed))
    order, parents = support.build_parent_map(tree)
    spans = parse_tree(support.render(tree))
    assert spans == support.flatten(tree)
    for i in range(-1, len(order) + 1):
        for h in range(-1, len(order) + 2):
            try:
                if h < 0:  # the oracle climbs no step for a negative height
                    raise LookupError("negative height")
                expected = support.oracle_select_prebuilt(order, parents, i, h)
            except LookupError:
                assert _outcome(select_node, spans, i, h) == _select_error(i, h, len(order))
                continue
            node = select_node(spans, i, h)
            assert (spans.start[node], spans.end[node]) == _leaf_range(order, parents, expected)


def _mutate(rng, text):
    """The text with a few characters deleted, inserted or doubled."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(chars) + 1)
        op = rng.random()
        if op < 0.4 and k < len(chars):
            del chars[k]
        elif op < 0.8:
            chars.insert(k, rng.choice("() a\n"))
        elif k < len(chars):
            chars.insert(k, chars[k])
    return "".join(chars)


def _oracle_spans(text):
    return support.flatten(support.parse_node(text))


class TestBackendParity:
    """The pure scanner and, where it can be built, the compiled one must
    give the object-tree oracle's SpanTree, or its error type and message."""

    @staticmethod
    def _scanners():
        from srlkit import _pure

        scanners = [_oracle_spans, _pure.parse_spans]
        if missing_build_tool() is None:  # then a failed build fails here
            from srlkit import _speedups

            scanners.append(_speedups.parse_spans)
        return scanners

    def _same(self, text):
        oracle, *scanners = self._scanners()
        expected = _outcome(oracle, text)
        for scan in scanners:
            got = _outcome(scan, text)
            assert got == expected
            assert type(got[1]) is type(expected[1])
        return expected

    @given(st.integers(0, 10**9))
    def test_same_trees(self, seed):
        tree = support.random_tree(random.Random(seed))
        text = support.render(tree)
        for form in (text, "( " + text + " )", support.pretty(tree)):
            assert self._same(form) == ("returned", support.flatten(tree))

    @given(st.integers(0, 10**9))
    def test_same_on_mutated_trees(self, seed):
        rng = random.Random(seed)
        self._same(_mutate(rng, support.render(support.random_tree(rng, max_terminals=8))))

    @pytest.mark.parametrize(
        "bad",
        ["((", "", "   ", "(X a))", "(X)", "(X a (Y b))", "foo", "(X a) x",
         "( (S (X a)) (S (Y b)) )", "()", "( a)", "(X a b)",
         "(X a) (Y b)", ")", "(S ((Y b)))", "(X (Y b) a)", "( ( (X a) ) )"],
    )
    def test_same_errors(self, bad):
        assert self._same(bad)[0] == "raised"

    # wider str storage, a non-ASCII space that is part of a token, and a
    # lone surrogate that has no UTF-8 form
    @pytest.mark.parametrize("text", ["(X é)", "(X \u3000a)", "(S (X \U0001F600) (Y \ud800))"])
    def test_same_trees_any_character(self, text):
        assert self._same(text)[0] == "returned"

    def test_fixture_corpus_trees(self, corpus_tree_texts):
        for texts in corpus_tree_texts.values():
            for text in texts:
                assert self._same(text) == ("returned", parse_tree(text))
