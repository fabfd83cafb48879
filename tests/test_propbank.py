import importlib

import pytest
from hypothesis import given, strategies as st

import support
from native import requires_build_tools
from srlkit import _pure
from srlkit._pure import parse_prop_line
from srlkit.errors import EmptyFragment, MalformedLine, MalformedPointer
from srlkit.propbank import (
    Proposition,
    RoleExpr,
    RoleLabel,
    parse_prop_file,
    sort_propositions,
)
from support import Connector, PointerExpr, TreePointer, parse_pointer, parse_pointer_expr


# TestParsePointer and TestParsePointerExpr pin the object parser of
# tests/support.py, the oracle that parse_prop_line is compared with


class TestParsePointer:
    def test_examples(self):
        assert parse_pointer("0:1") == TreePointer(0, 1)
        assert parse_pointer("0:0") == TreePointer(0, 0)
        with pytest.raises(MalformedPointer):
            parse_pointer("8:")

    @pytest.mark.parametrize("bad", [":1", "8", "a:b", "-1:2", "1:2:3", "01:2", "1:02", ""])
    def test_malformed(self, bad):
        with pytest.raises(MalformedPointer):
            parse_pointer(bad)

    def test_connector_rejected_in_plain_pointer(self):
        with pytest.raises(MalformedPointer):
            parse_pointer("0:1*2:1")

    @given(st.integers(0, 99999), st.integers(0, 99999))
    def test_format_roundtrip(self, t, h):
        text = f"{t}:{h}"
        assert parse_pointer(text).format() == text


class TestParsePointerExpr:
    def test_chain(self):
        expr = parse_pointer_expr("14:1*16:1*17:1")
        assert [p.terminal for p in expr.parts] == [14, 16, 17]
        assert expr.connectors == (Connector.CHAIN, Connector.CHAIN)

    def test_single(self):
        expr = parse_pointer_expr("0:1")
        assert expr == PointerExpr((TreePointer(0, 1),))
        assert expr.connectors == ()

    def test_split(self):
        expr = parse_pointer_expr("3:0,5:1")
        assert expr.parts == (TreePointer(3, 0), TreePointer(5, 1))
        assert expr.connectors == (Connector.SPLIT_COMMA,)
        assert expr.connectors[0].is_split

    def test_split_semicolon(self):
        expr = parse_pointer_expr("3:0;5:1")
        assert expr.connectors == (Connector.SPLIT_SEMICOLON,)
        assert expr.connectors[0].is_split

    @pytest.mark.parametrize("bad", ["3:0*", "*3:0", "3:0,,5:1", "3:0*;5:1"])
    def test_empty_fragment(self, bad):
        with pytest.raises(EmptyFragment):
            parse_pointer_expr(bad)

    def test_empty_fragment_is_malformed_pointer(self):
        assert issubclass(EmptyFragment, MalformedPointer)

    def test_empty_expression(self):
        with pytest.raises(MalformedPointer):
            parse_pointer_expr("")

    def test_parts_one_more_than_connectors(self):
        for text in ("0:0", "1:2*3:4", "1:2,3:4;5:6*7:8"):
            expr = parse_pointer_expr(text)
            assert len(expr.parts) == len(expr.connectors) + 1
            assert expr.parts

    @given(
        st.lists(st.tuples(st.integers(0, 500), st.integers(0, 20)), min_size=1, max_size=5),
        st.lists(st.sampled_from("*,;"), min_size=4, max_size=4),
    )
    def test_format_roundtrip(self, pairs, conns):
        text = f"{pairs[0][0]}:{pairs[0][1]}"
        for (t, h), conn in zip(pairs[1:], conns):
            text += f"{conn}{t}:{h}"
        assert parse_pointer_expr(text).format() == text


def _outcome(fn, text):
    try:
        return "returned", fn(text)
    except Exception as exc:
        return "raised", type(exc), str(exc)


@requires_build_tools
class TestScannerParity:
    """The compiled pointer scanner matches the pure one, error messages
    included: skip-log lines embed them."""

    @staticmethod
    def _assert_same(text):
        from srlkit import _speedups

        assert _outcome(_speedups.parse_expr_parts, text) == _outcome(
            _pure.parse_expr_parts, text
        )

    @given(st.text(alphabet="0123456789:*,;x -é"))
    def test_fuzzed(self, text):
        self._assert_same(text)

    @pytest.mark.parametrize(
        "text",
        ["", "3:0*", "01:2", "1:2:3", "1234567890123456789:0",
         "123456789012345678:0", "14:1*16:1*17:1", "3:0,5:1;7:2",
         # wider str storage, and a lone surrogate that has no UTF-8 form
         "1:\u3000", "\U0001F600*1:2", "1:2,\ud800"],
    )
    def test_cases(self, text):
        self._assert_same(text)


class TestPointerSweep:
    """The exhaustive round-trip on a small range; criterion 2 runs the full
    range on the compiled kernel only."""

    RANGE = (3, 2, 3)  # 12 single pointers, up to 3 parts

    def test_pure(self):
        singles = 4 * 3
        checked, mismatches, first_bad = _pure.roundtrip_exhaustive(*self.RANGE)
        assert checked == singles + 3 * singles**2 + 9 * singles**3
        assert (mismatches, first_bad) == (0, None)

    # the ranges pin the enumeration order, which decides first_bad, and
    # the edges: one single, no singles, one part
    @requires_build_tools
    @pytest.mark.parametrize("sweep", [RANGE, (0, 0, 3), (2, 1, 2), (-1, 2, 3), (5, 0, 1)])
    def test_compiled_matches_pure(self, sweep):
        from srlkit import _speedups

        assert _speedups.roundtrip_exhaustive(*sweep) == _pure.roundtrip_exhaustive(*sweep)

    @pytest.mark.parametrize(
        "module", ["_pure", pytest.param("_speedups", marks=requires_build_tools)]
    )
    @pytest.mark.parametrize("max_parts", [0, 4])
    def test_rejects_part_counts_outside_1_to_3(self, module, max_parts):
        impl = importlib.import_module(f"srlkit.{module}")
        with pytest.raises(ValueError, match=r"^exhaustive enumeration supports 1\.\.3 parts$"):
            impl.roundtrip_exhaustive(*self.RANGE[:2], max_parts)


PROP_LINE = "wsj/00/wsj_0001 0 8 gold say.01 v--a 0:2-ARG1 8:0-rel 9:1-ARG0"


class TestParsePropLine:
    def test_example(self):
        prop = parse_prop_line(PROP_LINE)
        assert prop.file_id == "wsj/00/wsj_0001"
        assert prop.tree_index == 0
        assert prop.predicate_terminal == 8
        assert prop.exprs(RoleLabel.ARG1) == [RoleExpr([(0, 2)], "0:2")]
        assert prop.exprs(RoleLabel.REL) == [RoleExpr([(8, 0)], "8:0")]
        assert prop.exprs(RoleLabel.ARG0) == [RoleExpr([(9, 1)], "9:1")]
        assert prop.raw_line == PROP_LINE

    def test_no_recognized_suffixes(self):
        prop = parse_prop_line("f 0 0 a b c")
        assert prop.roles == {}

    def test_chain_argument(self):
        prop = parse_prop_line("f 1 4 g p i 14:1*16:1*17:1-ARG0 4:0-rel")
        exprs = prop.exprs(RoleLabel.ARG0)
        assert len(exprs) == 1
        assert len(exprs[0].parts) == 3
        assert exprs == [RoleExpr([(14, 1), (16, 1), (17, 1)], "14:1*16:1*17:1")]

    def test_other_suffixes_ignored(self):
        prop = parse_prop_line("f 0 2 gold say-v say.01 ----- 0:1-ARGM-TMP 2:0-rel 3:1-ARG2")
        assert prop.exprs(RoleLabel.REL) == [RoleExpr([(2, 0)], "2:0")]
        assert prop.exprs(RoleLabel.ARG0) == []
        assert prop.exprs(RoleLabel.ARG1) == []

    def test_case_insensitive_suffix(self):
        prop = parse_prop_line("f 0 2 x 2:0-REL 0:1-arg0 3:1-Arg1")
        assert prop.exprs(RoleLabel.REL) == [RoleExpr([(2, 0)], "2:0")]
        assert prop.exprs(RoleLabel.ARG0) == [RoleExpr([(0, 1)], "0:1")]
        assert prop.exprs(RoleLabel.ARG1) == [RoleExpr([(3, 1)], "3:1")]

    def test_multiple_exprs_under_one_label(self):
        prop = parse_prop_line("f 0 1 x 1:0-rel 2:1-ARG1 4:1-ARG1")
        assert prop.exprs(RoleLabel.ARG1) == [
            RoleExpr([(2, 1)], "2:1"),
            RoleExpr([(4, 1)], "4:1"),
        ]

    @pytest.mark.parametrize("bad", ["", "f", "f 0", "f x 0 a", "f 0 y a", "f -1 0 a"])
    def test_malformed_line(self, bad):
        with pytest.raises(MalformedLine):
            parse_prop_line(bad)

    # int() takes a sign, digit separators and non-ASCII digits; an index
    # field takes ASCII decimal digits only
    @pytest.mark.parametrize("field", ["+2", "1_0", "٣", "２"])
    @pytest.mark.parametrize("position", [1, 2])
    def test_index_not_ascii_decimal(self, field, position):
        fields = ["f", "0", "2", "x", "2:0-rel"]
        fields[position] = field
        with pytest.raises(MalformedLine, match=r"^non-integer index in "):
            parse_prop_line(" ".join(fields))

    def test_negative_index_message(self):
        with pytest.raises(MalformedLine, match=r"^negative index in 'f 0 -1 x 2:0-rel'$"):
            parse_prop_line("f 0 -1 x 2:0-rel")

    def test_malformed_pointer_propagates_with_context(self):
        with pytest.raises(MalformedPointer) as exc:
            parse_prop_line("f 0 1 x 9:-ARG0")
        assert "9:-ARG0" in str(exc.value)


class TestSortPropositions:
    @staticmethod
    def _prop(tree_index, terminal, line_no=0):
        return Proposition("f", tree_index, terminal, {}, line_no=line_no)

    def test_example(self):
        props = [self._prop(1, 3), self._prop(0, 9), self._prop(0, 2)]
        out = sort_propositions(props)
        assert [(p.tree_index, p.predicate_terminal) for p in out] == [(0, 2), (0, 9), (1, 3)]

    def test_empty(self):
        assert sort_propositions([]) == []

    def test_stability(self):
        a = self._prop(0, 2, line_no=1)
        b = self._prop(0, 2, line_no=2)
        assert sort_propositions([a, b]) == [a, b]
        assert sort_propositions([b, a]) == [b, a]

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30))
    def test_idempotent_permutation(self, keys):
        props = [self._prop(t, p, line_no=i) for i, (t, p) in enumerate(keys)]
        once = sort_propositions(props)
        assert sort_propositions(once) == once
        assert sorted(id(p) for p in once) == sorted(id(p) for p in props)


def test_parse_prop_file_line_numbers():
    text = "f 0 1 x 1:0-rel\n\nf 1 2 x 2:0-rel\n"
    props = parse_prop_file(text)
    assert [p.line_no for p in props] == [1, 3]


# --- parity with the object parser of tests/support.py ----------------------

_SUFFIXES = ["ARG0", "ARG1", "rel", "REL", "arg0", "Arg1", "ARGM-TMP", "ARG2", "ARG1-PRD", "rEl", ""]
_METADATA = ["gold", "say.01", "v--a", "-----", "say-v", "ARG0", "rel", "-rel", "-ARG1", "x-",
             "1:0-x-rel", "2:0--ARG0", "--rel", "3:1-ARG1-"]
_EDIT_CHARS = "0123456789:*,;-xArgEL \t٣"


@st.composite
def _pointer_text(draw):
    parts = draw(
        st.lists(st.tuples(st.integers(0, 60), st.integers(0, 6)), min_size=1, max_size=3)
    )
    text = f"{parts[0][0]}:{parts[0][1]}"
    for t, h in parts[1:]:
        text += draw(st.sampled_from("*,;")) + f"{t}:{h}"
    return text


@st.composite
def _prop_lines(draw):
    """A `.prop` line, well formed or not, with a few character edits."""
    good = st.integers(0, 50).map(str)
    index = st.one_of(good, good, good, st.sampled_from(
        ["-1", "+2", "1_0", "x", "٣", "07", "", "-0", "007", "-", "1٣", "２"]))
    role = st.builds(lambda e, s: f"{e}-{s}", _pointer_text(), st.sampled_from(_SUFFIXES))
    fields = [draw(st.sampled_from(["wsj/00/wsj_0001", "f", "nw/x"])), draw(index), draw(index)]
    fields += draw(st.lists(st.one_of(role, st.sampled_from(_METADATA)), max_size=8))
    chars = list(" ".join(fields))
    for kind, at, char in draw(
        st.lists(st.tuples(st.sampled_from("idr"), st.integers(0, 500), st.sampled_from(_EDIT_CHARS)),
                 max_size=3)
    ):
        at %= len(chars) + 1
        if kind == "i":
            chars.insert(at, char)
        elif at < len(chars):
            if kind == "d":
                del chars[at]
            else:
                chars[at] = char
    return "".join(chars)


def _prop_outcome(parse, line, expr_view):
    try:
        p = parse(line, line_no=7)
    except Exception as exc:
        return "raised", type(exc), str(exc)
    roles = [(label, [expr_view(e) for e in exprs]) for label, exprs in p.roles.items()]
    return "returned", p.file_id, p.tree_index, p.predicate_terminal, p.line_no, p.raw_line, roles


@given(_prop_lines())
def test_parse_prop_line_matches_object_oracle(line):
    got = _prop_outcome(parse_prop_line, line, lambda e: (e.parts, e.text))
    expected = _prop_outcome(
        support.parse_prop_line,
        line,
        lambda e: ([(p.terminal, p.height) for p in e.parts], str(e)),
    )
    assert got == expected


# --- the file readers: compiled, pure and the oracle ------------------------

_LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028", "\u2029"]
_SPACES = [" ", "\t", "\u3000", "\xa0", "\x1f", "\u2003"]


@st.composite
def _prop_files(draw):
    """`.prop` text: lines as `_prop_lines` makes them, blank ones among
    them, fields set apart by some Unicode whitespace and lines ended by
    any of str.splitlines's line breaks."""
    text = ""
    for line in draw(st.lists(st.one_of(_prop_lines(), st.sampled_from(["", " ", "\t\u3000"])),
                              max_size=6)):
        text += line.replace(" ", draw(st.sampled_from(_SPACES)))
        text += draw(st.sampled_from(_LINE_BREAKS))
    return text[: len(text) - draw(st.integers(0, 1))]


def _compiled_parse_prop_file(text):
    from srlkit import _speedups

    return _speedups.parse_prop_file(text)


def _file_outcome(parse, text, expr_view=lambda e: (e.parts, e.text)):
    try:
        props = parse(text)
    except Exception as exc:
        return "raised", type(exc), str(exc)
    return "returned", [
        (p.file_id, p.tree_index, p.predicate_terminal, p.line_no, p.raw_line,
         [(label, [expr_view(e) for e in exprs]) for label, exprs in p.roles.items()])
        for p in props
    ]


def _oracle_file_outcome(text):
    return _file_outcome(
        support.parse_prop_file, text, lambda e: ([(p.terminal, p.height) for p in e.parts], str(e))
    )


@given(_prop_files())
def test_pure_file_reader_matches_oracle(text):
    assert _file_outcome(_pure.parse_prop_file, text) == _oracle_file_outcome(text)


@requires_build_tools
@given(_prop_files())
def test_compiled_file_reader_matches_pure_and_oracle(text):
    compiled = _file_outcome(_compiled_parse_prop_file, text)
    assert compiled == _file_outcome(_pure.parse_prop_file, text)
    assert compiled == _oracle_file_outcome(text)


_READERS = [
    pytest.param(_pure.parse_prop_file, id="pure"),
    pytest.param(_compiled_parse_prop_file, id="compiled", marks=requires_build_tools),
    pytest.param(support.parse_prop_file, id="oracle"),
]


@pytest.mark.parametrize("reader", _READERS)
def test_reader_builds_propositions(reader):
    props = reader("f 0 1 x 1:0-rel 2:1*3:0-Arg0\x85\u2028f 2 3 y\r\n")
    assert [(type(p), p.line_no, p.raw_line) for p in props] == [
        (Proposition, 1, "f 0 1 x 1:0-rel 2:1*3:0-Arg0"), (Proposition, 3, "f 2 3 y")
    ]
    if reader is not support.parse_prop_file:
        assert props[0].roles == {
            RoleLabel.REL: [RoleExpr([(1, 0)], "1:0")],
            RoleLabel.ARG0: [RoleExpr([(2, 1), (3, 0)], "2:1*3:0")],
        }
        assert all(type(e) is RoleExpr for exprs in props[0].roles.values() for e in exprs)


_LIMIT = "Exceeds the limit (4300 digits) for integer string conversion"


@pytest.mark.parametrize("reader", _READERS)
@pytest.mark.parametrize(
    "text, error",
    [
        (f"f 0 {'1' * 4300} x", None),  # an index field has no length cap of its own
        (f"f 0 {'0' * 4300}7 x", _LIMIT),  # int()'s limit counts leading zeros too
        (f"f -{'1' * 5000} 1 x", _LIMIT),
        (f"f {'1' * 5000} ٣ x", _LIMIT),  # the first index field fails first
        (f"f ٣ {'1' * 5000} x", "invalid literal"),
        ("f 0 1 x\nf 0 -1 x\nf 0 y", "negative index in 'f 0 -1 x'"),
        ("f 0 1 1::2-ARG1 3:0*-REL", "field '1::2-ARG1': bad pointer"),
        ("f 0 1 7:0-ARG1 3:0*-REL", "field '3:0*-REL': empty pointer fragment in '3:0*'"),
    ],
)
def test_reader_errors(reader, text, error):
    if error is None:
        assert [p.predicate_terminal for p in reader(text)] == [int("1" * 4300)]
    else:
        with pytest.raises((MalformedLine, MalformedPointer)) as exc:
            reader(text)
        assert error in str(exc.value)
        expected = MalformedPointer if error.startswith("field") else MalformedLine
        assert type(exc.value) is expected
