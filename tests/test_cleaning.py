import pytest
from hypothesis import given, strategies as st

from srlkit import treebank
from srlkit.cleaning import (
    TraceMode,
    TracePolicy,
    is_trace_token,
    strip_traces,
)
from srlkit.errors import TreeMismatch

PATTERN = TracePolicy(mode=TraceMode.PATTERN_ONLY)
TREE = TracePolicy(mode=TraceMode.TREE_GUIDED)


class TestIsTraceToken:
    @pytest.mark.parametrize(
        "token", ["*PRO*-2", "*", "*T*-1", "*U*", "*?*", "*-1", "*ICH*-3", "*T*", "*EXP*-1"]
    )
    def test_traces(self, token):
        assert is_trace_token(token)

    @pytest.mark.parametrize(
        "token", ["cat", "0", "5", "a*b", "-1", "T*-1", "$", ".", "don't", "*x"]
    )
    def test_non_traces(self, token):
        assert not is_trace_token(token)


class TestStripTraces:
    def test_examples_pattern_mode(self):
        assert strip_traces(["*PRO*-1", "to", "eat"], PATTERN) == "to eat"
        assert strip_traces(["The", "cat"], PATTERN) == "The cat"
        assert strip_traces(["*T*-2"], PATTERN) == ""

    def test_tree_guided(self):
        tree = treebank.parse_tree("(S (NP-SBJ (-NONE- *PRO*-1)) (VP (VB eat) (NP (NN fish))))")
        assert strip_traces(tree.tokens, TREE, tree=tree) == "eat fish"

    def test_default_policy_follows_tree_presence(self):
        tree = treebank.parse_tree("(S (NP (-NONE- *)) (VP (VB go)))")
        assert strip_traces(tree.tokens, tree=tree) == "go"
        assert strip_traces(["*", "go"]) == "go"

    def test_tree_mismatch(self):
        tree = treebank.parse_tree("(S (X a) (Y b))")
        with pytest.raises(TreeMismatch):
            strip_traces(["a", "c"], TREE, tree=tree)
        with pytest.raises(TreeMismatch):
            strip_traces(["a"], TREE, tree=tree)

    def test_tree_required_for_tree_mode(self):
        with pytest.raises(TreeMismatch):
            strip_traces(["a"], TREE, tree=None)

    def test_null_complementizer_tree_guided_only(self):
        # "0" under -NONE- goes away tree-guided, but never by pattern:
        # a literal 0 is a legitimate numeral elsewhere.
        tree = treebank.parse_tree("(SBAR (-NONE- 0) (S (NP (NNS prices)) (VP (VBD fell))))")
        assert strip_traces(tree.tokens, TREE, tree=tree) == "prices fell"
        assert strip_traces(tree.tokens, PATTERN) == "0 prices fell"
        numeral = treebank.parse_tree("(NP (CD 0) (NNS cases))")
        assert strip_traces(numeral.tokens, TREE, tree=numeral) == "0 cases"


WORDS = st.sampled_from(["The", "cat", "sat", ".", ",", "$", "5", "a-b", "don't"])
TRACES = st.sampled_from(["*", "*T*-1", "*PRO*-2", "*-1", "*U*", "*?*"])
TOKEN_LISTS = st.lists(st.one_of(WORDS, TRACES), max_size=12)


@given(TOKEN_LISTS)
def test_idempotent(tokens):
    once = strip_traces(tokens, PATTERN)
    again = strip_traces(once.split(), PATTERN)
    assert once == again


@given(TOKEN_LISTS)
def test_whitespace_normalized(tokens):
    out = strip_traces(tokens, PATTERN)
    assert "  " not in out
    assert out == out.strip()


@given(TOKEN_LISTS)
def test_no_surviving_trace_tokens(tokens):
    out = strip_traces(tokens, PATTERN)
    assert not any(is_trace_token(tok) for tok in out.split())


def test_modes_agree_on_all_fixture_trees(corpus_trees):
    for trees in corpus_trees.values():
        for tree in trees:
            toks = tree.tokens
            assert strip_traces(toks, TREE, tree=tree) == strip_traces(toks, PATTERN)
