import pytest
from hypothesis import given, settings, strategies as st

import support
from native import requires_build_tools
from srlkit import _pure, treebank
from srlkit.cleaning import TraceMode, join_untraced
from srlkit.errors import MalformedOnf
from srlkit.onf import SentencePair, parse_onf, parse_trees_file
from srlkit.pipeline import discover_files

DELIM = "-" * 120


def section(plain, treebanked):
    return (
        f"{DELIM}\n"
        "Plain sentence:\n"
        "---------------\n"
        f"{plain}\n"
        "\n"
        "Treebanked sentence:\n"
        "--------------------\n"
        f"{treebanked}\n"
    )


class TestParseOnf:
    def test_single_block(self):
        text = section("John wants to eat .", "John wants *PRO*-1 to eat .")
        assert parse_onf(text) == [
            SentencePair("John wants to eat .", "John wants *PRO*-1 to eat .")
        ]

    def test_empty_file(self):
        assert parse_onf("") == []
        assert parse_onf("\n\n\n") == []

    def test_two_blocks_in_order(self):
        text = section("A b .", "A b .") + "\n" + section("C d .", "C d .")
        pairs = parse_onf(text)
        assert [p.plain for p in pairs] == ["A b .", "C d ."]

    def test_multiline_sentence_joined(self):
        text = section("The proposal was rejected\nby the committee .", "The proposal was rejected *-1\nby the committee .")
        (pair,) = parse_onf(text)
        assert pair.plain == "The proposal was rejected by the committee ."
        assert pair.treebanked == "The proposal was rejected *-1 by the committee ."

    def test_non_sentence_blocks_skipped(self):
        text = (
            section("A b .", "A b .")
            + "\nTree:\n-----\n(TOP (S (X A) (Y b) (. .)))\n"
            + "\nLeaves:\n-------\n    0  A\n    1  b\n"
            + "\nSpeaker information:\n--------------------\n  name: someone\n"
        )
        pairs = parse_onf(text)
        assert len(pairs) == 1

    def test_delimiter_without_text(self):
        bad = f"{DELIM}\nPlain sentence:\n---------------\n"
        with pytest.raises(MalformedOnf):
            parse_onf(bad)

    def test_plain_without_treebanked(self):
        bad = f"{DELIM}\nPlain sentence:\n---------------\nA b .\n"
        with pytest.raises(MalformedOnf):
            parse_onf(bad)

    def test_treebanked_without_plain(self):
        bad = "Treebanked sentence:\n--------------------\nA b .\n"
        with pytest.raises(MalformedOnf):
            parse_onf(bad)

    def test_trace_in_plain_rejected(self):
        bad = section("A *T*-1 b .", "A *T*-1 b .")
        with pytest.raises(MalformedOnf):
            parse_onf(bad)

    def test_no_empty_fields(self, golden_layout):
        triples, _ = discover_files(golden_layout)
        for triple in triples:
            for pair in parse_onf(triple.onf_path.read_text(encoding="utf-8")):
                assert pair.plain
                assert pair.treebanked


class TestParseTreesFile:
    def test_two_trees(self):
        assert parse_trees_file("(X a)\n\n(Y b)\n") == ["(X a)", "(Y b)"]

    def test_single_tree_no_trailing_newline(self):
        assert parse_trees_file("(X a)") == ["(X a)"]

    def test_double_blank_line(self):
        assert parse_trees_file("(X a)\n\n\n\n(Y b)") == ["(X a)", "(Y b)"]

    def test_multiline_chunks_kept_whole(self):
        text = "(X\n  a)\n\n(Y b)"
        chunks = parse_trees_file(text)
        assert len(chunks) == 2
        assert treebank.parse_tree(chunks[0]) == treebank.parse_tree("(X a)")


class TestFixtureAlignment:
    def test_sentence_and_tree_counts_match(self, golden_layout):
        triples, _ = discover_files(golden_layout)
        assert triples, "fixture corpus should not be empty"
        for triple in triples:
            pairs = parse_onf(triple.onf_path.read_text(encoding="utf-8"))
            chunks = parse_trees_file(triple.parse_path.read_text(encoding="utf-8"))
            assert len(pairs) == len(chunks), triple.file_id

    def test_plain_recoverable_from_tree(self, golden_layout, corpus_trees):
        triples, _ = discover_files(golden_layout)
        for triple in triples:
            pairs = parse_onf(triple.onf_path.read_text(encoding="utf-8"))
            for pair, tree in zip(pairs, corpus_trees[triple.file_id]):
                recovered = join_untraced(tree.tokens, tree.pos, TraceMode.TREE_GUIDED)
                assert recovered == pair.plain, triple.file_id

    def test_treebanked_matches_tree_leaves(self, golden_layout, corpus_trees):
        triples, _ = discover_files(golden_layout)
        for triple in triples:
            pairs = parse_onf(triple.onf_path.read_text(encoding="utf-8"))
            for pair, tree in zip(pairs, corpus_trees[triple.file_id]):
                assert pair.treebanked == " ".join(tree.tokens)


# --- parity with the reader that skips no block unread -----------------------

_WORDS = ["A", "b", ".", "café", "0", "--", "Plain", "sentence:"]
_TRACES = ["*T*-1", "*PRO*-2", "*U*"]
_HEADERS = [
    "Plain sentence:", "Treebanked sentence:", "  Plain sentence:", "Treebanked sentence:  ",
    "Plain sentence: x", "xTreebanked sentence:", "Tree:", "Leaves:",
]
_SPECIAL = {h.strip() for h in _HEADERS} | {""}


@st.composite
def _onf_documents(draw):
    """An `.onf` text of whole sections, then lines dropped, duplicated or
    inserted, mostly header, delimiter and blank lines."""
    words = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6).map(" ".join)
    traced = st.lists(st.sampled_from(_WORDS + _TRACES), min_size=1, max_size=6).map(" ".join)
    plains = st.one_of(words, words, words, traced)
    text = ""
    for plain, treebanked, extra in draw(
        st.lists(st.tuples(plains, traced, st.booleans()), max_size=4)
    ):
        text += section(plain, treebanked) + "\n"
        if extra:
            text += "Tree:\n-----\n(TOP (X a))\n\nLeaves:\n-------\n    0  a\n\n"
    lines = text.split("\n")
    for kind, at in draw(
        st.lists(st.tuples(st.sampled_from("dDcCbhj"), st.integers(0, 10_000)), max_size=5)
    ):
        special = [i for i, l in enumerate(lines) if l.strip() in _SPECIAL or l.startswith("-----")]
        pool = special if kind in "DC" and special else range(len(lines))
        i = pool[at % len(pool)] if pool else 0
        if kind in "dD" and lines:
            del lines[i]
        elif kind in "cC" and lines:
            lines.insert(i, lines[i])
        elif kind == "b":
            lines.insert(i, draw(st.sampled_from(["", "  ", "\t", DELIM, "-" * 10, "-" * 9])))
        elif kind == "h":
            lines.insert(i, draw(st.sampled_from(_HEADERS)))
        elif kind == "j" and i + 1 < len(lines):
            lines[i : i + 2] = [lines[i] + " " + lines[i + 1]]
    return "\n".join(lines)


def _onf_outcome(reader, text):
    try:
        return "returned", reader(text)
    except Exception as exc:
        return "raised", type(exc), str(exc)


# every str.splitlines break that is not "\n", spaces that break no line,
# and words stored two and four bytes a code point, traces among them
_BREAKS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_INSERTS = _BREAKS + [
    "\xa0", "\u3000", "\n", " ", "\n \n", " Ωμέγα ", " — ", " \U0001F600 ", " *T*-٣ ",
    " *-\U0001D7D8 ",
]


@st.composite
def _unicode_onf_documents(draw):
    """An `_onf_documents` text with some "\n" replaced by other line
    breaks and the `_INSERTS` put in anywhere, most often beside a "\n"."""
    text = draw(_onf_documents())
    if draw(st.booleans()):
        text = text.replace("\n", draw(st.sampled_from(["\r\n", "\n\x85", "\u2028\n"])))
    for kind, insert, at in draw(
        st.lists(
            st.tuples(st.sampled_from("rbi"), st.sampled_from(_INSERTS), st.integers(0, 10_000)),
            max_size=8,
        )
    ):
        breaks = [i for i, c in enumerate(text) if c == "\n"]
        if kind == "i" or not breaks:
            i = at % (len(text) + 1)
            text = text[:i] + insert + text[i:]
        elif kind == "b":
            i = breaks[at % len(breaks)] + at % 2
            text = text[:i] + insert + text[i:]
        else:
            i = breaks[at % len(breaks)]
            text = text[:i] + _BREAKS[at % len(_BREAKS)] + text[i + 1 :]
    return text


_DOCUMENTS = st.one_of(_onf_documents(), _unicode_onf_documents())


@settings(max_examples=300)
@given(_DOCUMENTS)
def test_prefiltered_reader_matches_unfiltered(text):
    assert _onf_outcome(_pure.parse_onf, text) == _onf_outcome(support.parse_onf_unfiltered, text)


def _compiled_parse_onf(text):
    from srlkit import _speedups

    return _speedups.parse_onf(text)


@requires_build_tools
@settings(max_examples=300)
@given(_DOCUMENTS)
def test_compiled_reader_matches_unfiltered(text):
    assert _onf_outcome(_compiled_parse_onf, text) == _onf_outcome(
        support.parse_onf_unfiltered, text
    )


@pytest.mark.parametrize(
    "reader",
    [
        pytest.param(_pure.parse_onf, id="pure"),
        pytest.param(_compiled_parse_onf, id="compiled", marks=requires_build_tools),
        pytest.param(support.parse_onf_unfiltered, id="oracle"),
    ],
)
@pytest.mark.parametrize(
    "token, trace",
    [
        ("*-٣", True),              # ARABIC-INDIC DIGIT THREE is a decimal digit
        ("*T*-1٣", True),
        ("*PRO*-\U0001D7D8", True),  # so is MATHEMATICAL DOUBLE-STRUCK DIGIT ZERO
        ("*-²", False),             # SUPERSCRIPT TWO is a digit but not a decimal
        ("*-①", False),
        ("*T*-²", False),
        ("*Ω*", True),
        ("*-", False),
        ("x*-1", False),
    ],
)
def test_trace_tokens_with_non_ascii_digits(reader, token, trace):
    text = section(f"A {token} b .", f"A {token} b .")
    if trace:
        with pytest.raises(MalformedOnf, match="trace token in plain sentence"):
            reader(text)
    else:
        assert reader(text) == [SentencePair(f"A {token} b .", f"A {token} b .")]


def _compiled_parse_trees_file(text):
    from srlkit import _speedups

    return _speedups.parse_trees_file(text)


@requires_build_tools
@settings(max_examples=300)
@given(st.text(alphabet="\n\r\x0b\x1c 　a(", max_size=40))
def test_compiled_tree_splitter_matches_regex(text):
    # a separator is a whitespace run holding two "\n"; "\r", "\x0b",
    # "\x1c" and "　" are whitespace that is not "\n"
    assert _compiled_parse_trees_file(text) == _pure.parse_trees_file(text)
