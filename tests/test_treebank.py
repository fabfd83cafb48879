import random

import pytest
from hypothesis import given, strategies as st

import support
from native import requires_build_tools
from srlkit import treebank
from srlkit.errors import (
    EmptyInput,
    HeightOverflow,
    TerminalOutOfRange,
    TrailingGarbage,
    UnbalancedParens,
)
from srlkit.treebank import (
    Internal,
    Preterminal,
    flatten,
    leaves,
    parse_spans,
    parse_tree,
    render,
    select,
    select_node,
    subtree_text,
    terminal_count,
)

CAT_SITS = "(S (NP (DT The) (NN cat)) (VP (VBZ sits)))"
CAT_MAT = "(S (NP (DT The) (NN cat)) (VP (VBZ sits) (PP (IN on) (NP (DT the) (NN mat)))))"
PRO_EAT = "(S (NP-SBJ (-NONE- *PRO*-1)) (VP (VB eat) (NP (NN fish))))"


class TestParseTree:
    def test_basic(self):
        tree = parse_tree(CAT_SITS)
        assert isinstance(tree, Internal) and tree.label == "S"
        assert terminal_count(tree) == 3
        assert leaves(tree) == ["The", "cat", "sits"]

    def test_preterminal_root(self):
        tree = parse_tree("(X a)")
        assert tree == Preterminal("X", "a")
        assert leaves(tree) == ["a"]

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
        assert parse_tree("\n\n  (X a)\n\n") == Preterminal("X", "a")

    def test_wrapper_unwrapped(self):
        tree = parse_tree("( (S (NP (X a)) (VP (V b))) )")
        assert isinstance(tree, Internal) and tree.label == "S"

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


class TestLeaves:
    def test_examples(self):
        assert leaves(parse_tree(CAT_SITS)) == ["The", "cat", "sits"]
        assert leaves(parse_tree("(X a)")) == ["a"]
        assert leaves(parse_tree(PRO_EAT)) == ["*PRO*-1", "eat", "fish"]

    def test_terminal_count(self):
        assert terminal_count(parse_tree(CAT_SITS)) == 3
        assert terminal_count(parse_tree("(X a)")) == 1
        assert terminal_count(parse_tree(PRO_EAT)) == 3


class TestSelect:
    def test_examples(self):
        tree = parse_tree(CAT_MAT)
        assert leaves(select(tree, 0, 1)) == ["The", "cat"]
        node = select(tree, 2, 0)
        assert node == Preterminal("VBZ", "sits")
        assert leaves(select(tree, 3, 2)) == ["sits", "on", "the", "mat"]

    def test_terminal_out_of_range(self):
        tree = parse_tree(CAT_SITS)
        with pytest.raises(TerminalOutOfRange):
            select(tree, 3, 0)
        with pytest.raises(TerminalOutOfRange):
            select(tree, -1, 0)

    def test_height_overflow(self):
        tree = parse_tree(CAT_SITS)
        select(tree, 0, 2)  # the root itself
        with pytest.raises(HeightOverflow):
            select(tree, 0, 3)
        with pytest.raises(HeightOverflow):
            select(parse_tree("(X a)"), 0, 1)


class TestSubtreeText:
    def test_examples(self):
        tree = parse_tree(CAT_MAT)
        assert subtree_text(select(tree, 0, 1)) == "The cat"
        assert subtree_text(select(tree, 2, 0)) == "sits"
        trace_np = parse_tree("(NP-SBJ (-NONE- *PRO*-1))")
        assert subtree_text(trace_np) == "*PRO*-1"


@given(st.integers(0, 10**9))
def test_render_parse_roundtrip(seed):
    tree = support.random_tree(random.Random(seed))
    assert parse_tree(render(tree)) == tree


@given(st.integers(0, 10**9))
def test_select_height_zero_is_ith_leaf(seed):
    tree = support.random_tree(random.Random(seed))
    toks = leaves(tree)
    for i in range(len(toks)):
        got = leaves(select(tree, i, 0))
        assert got == [toks[i]]


@given(st.integers(0, 10**9))
def test_select_matches_bruteforce_oracle(seed):
    rng = random.Random(seed)
    tree = support.random_tree(rng)
    n = terminal_count(tree)
    for i in range(n):
        h = 0
        while True:
            try:
                expected = support.oracle_select(tree, i, h)
            except LookupError:
                with pytest.raises(HeightOverflow):
                    select(tree, i, h)
                break
            assert select(tree, i, h) is expected
            h += 1


@given(st.integers(0, 10**9))
def test_subtree_text_is_joined_leaves(seed):
    tree = support.random_tree(random.Random(seed))
    assert subtree_text(tree) == " ".join(leaves(tree))


@given(st.integers(0, 10**9))
def test_terminal_count_equals_leaf_count(seed):
    tree = support.random_tree(random.Random(seed))
    assert terminal_count(tree) == len(leaves(tree))
    assert terminal_count(tree) == support.oracle_leaf_count(tree)


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


def _error(fn, *args):
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


@given(st.integers(0, 10**9))
def test_select_node_matches_bruteforce_oracle(seed):
    tree = support.random_tree(random.Random(seed))
    order, parents = support.build_parent_map(tree)
    spans = parse_spans(render(tree))
    assert spans == flatten(tree)
    for i in range(-1, len(order) + 1):
        for h in range(-1, len(order) + 2):
            try:
                if h < 0:  # the oracle climbs no step for a negative height
                    raise LookupError("negative height")
                expected = support.oracle_select_prebuilt(order, parents, i, h)
            except LookupError:
                error = _error(select, tree, i, h)
                assert error is not None
                assert _error(select_node, spans, i, h) == error
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


@requires_build_tools
class TestBackendParity:
    """The compiled tree scanner must give the pure reference's SpanTree,
    or its error type and message."""

    @staticmethod
    def _both():
        from srlkit import _sexpr, _speedups

        return _sexpr.parse_spans, _speedups.parse_spans

    def _same(self, text):
        pure, fast = self._both()
        expected = _error(pure, text) or pure(text)
        got = _error(fast, text) or fast(text)
        assert got == expected
        assert type(got) is type(expected)

    @given(st.integers(0, 10**9))
    def test_same_trees(self, seed):
        pure, fast = self._both()
        text = render(support.random_tree(random.Random(seed)))
        assert fast(text) == pure(text)
        assert fast("( " + text + " )") == pure(text)

    @given(st.integers(0, 10**9))
    def test_same_on_mutated_trees(self, seed):
        rng = random.Random(seed)
        self._same(_mutate(rng, render(support.random_tree(rng, max_terminals=8))))

    @pytest.mark.parametrize(
        "bad",
        ["((", "", "   ", "(X a))", "(X)", "(X a (Y b))", "foo", "(X a) x",
         "( (S (X a)) (S (Y b)) )", "()", "( a)", "(X a b)",
         "(X a) (Y b)", ")", "(S ((Y b)))", "(X (Y b) a)", "( ( (X a) ) )"],
    )
    def test_same_errors(self, bad):
        pure, fast = self._both()
        assert _error(pure, bad) is not None
        assert _error(fast, bad) == _error(pure, bad)

    # wider str storage, a non-ASCII space that is part of a token, and a
    # lone surrogate that has no UTF-8 form
    @pytest.mark.parametrize("text", ["(X é)", "(X \u3000a)", "(S (X \U0001F600) (Y \ud800))"])
    def test_same_trees_any_character(self, text):
        pure, fast = self._both()
        assert fast(text) == pure(text)

    def test_fixture_corpus_trees(self, corpus_trees):
        pure, fast = self._both()
        for trees in corpus_trees.values():
            for tree in trees:
                text = render(tree)
                assert fast(text) == pure(text) == flatten(tree)
