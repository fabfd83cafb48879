import pytest
from hypothesis import given, strategies as st

from srlkit import treebank
from srlkit.cleaning import TraceMode, is_trace_token, join_untraced

PATTERN = TraceMode.PATTERN_ONLY
TREE = TraceMode.TREE_GUIDED


def by_pattern(tokens):
    """Pattern-mode text of `tokens`; the POS tags, all a non-empty
    "XX" here, are not consulted."""
    return join_untraced(tokens, ["XX"] * len(tokens), PATTERN)


def by_tree(tree):
    return join_untraced(tree.tokens, tree.pos, TREE)


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
        assert by_pattern(["*PRO*-1", "to", "eat"]) == "to eat"
        assert by_pattern(["The", "cat"]) == "The cat"
        assert by_pattern(["*T*-2"]) == ""

    def test_tree_guided(self):
        tree = treebank.parse_tree("(S (NP-SBJ (-NONE- *PRO*-1)) (VP (VB eat) (NP (NN fish))))")
        assert by_tree(tree) == "eat fish"

    def test_null_complementizer_tree_guided_only(self):
        # "0" under -NONE- goes away tree-guided, but never by pattern:
        # a literal 0 is a legitimate numeral elsewhere.
        tree = treebank.parse_tree("(SBAR (-NONE- 0) (S (NP (NNS prices)) (VP (VBD fell))))")
        assert by_tree(tree) == "prices fell"
        assert join_untraced(tree.tokens, tree.pos, PATTERN) == "0 prices fell"
        numeral = treebank.parse_tree("(NP (CD 0) (NNS cases))")
        assert by_tree(numeral) == "0 cases"


WORDS = st.sampled_from(["The", "cat", "sat", ".", ",", "$", "5", "a-b", "don't"])
TRACES = st.sampled_from(["*", "*T*-1", "*PRO*-2", "*-1", "*U*", "*?*"])
TOKEN_LISTS = st.lists(st.one_of(WORDS, TRACES), max_size=12)


@given(TOKEN_LISTS)
def test_idempotent(tokens):
    once = by_pattern(tokens)
    again = by_pattern(once.split())
    assert once == again


@given(TOKEN_LISTS)
def test_whitespace_normalized(tokens):
    out = by_pattern(tokens)
    assert "  " not in out
    assert out == out.strip()


@given(TOKEN_LISTS)
def test_no_surviving_trace_tokens(tokens):
    out = by_pattern(tokens)
    assert not any(is_trace_token(tok) for tok in out.split())


def test_modes_agree_on_all_fixture_trees(corpus_trees):
    for trees in corpus_trees.values():
        for tree in trees:
            assert by_tree(tree) == join_untraced(tree.tokens, tree.pos, PATTERN)
