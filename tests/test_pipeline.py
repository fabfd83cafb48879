import csv
import importlib
import io
import os
import pickle
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import support
from native import requires_build_tools
from srlkit import _pure, treebank
from srlkit._pure import parse_prop_line
from srlkit.cleaning import TraceMode, TracePolicy
from srlkit.errors import (
    AlignmentError,
    DecodeError,
    EmptyCorpus,
    ExtractionError,
    MissingRoot,
    SrlKitError,
    TerminalOutOfRange,
)
from srlkit.onf import SentencePair, parse_trees_file
from srlkit.pipeline import (
    CorpusLayout,
    ORL_HEADER,
    ROLE_ORDER,
    SRL_HEADER,
    OrlRecord,
    Provenance,
    SrlRecord,
    alignment_fault,
    build_records,
    csv_lines,
    discover_files,
    export_csv,
    extract_corpus,
    filter_records,
    list_faults,
    map_to_orl,
    read_corpus,
    read_file,
    read_text,
    resolve_role,
)
from srlkit.propbank import Proposition, RoleExpr, RoleLabel, sort_propositions
from srlkit.stats import read_dataset_csv


def role_expr(text):
    """The expression parse_prop_line reads from a role field `<text>-ARG0`."""
    (expr,) = parse_prop_line(f"f 0 0 {text}-ARG0").exprs(RoleLabel.ARG0)
    return expr


def layout_for(fixtures_dir, name) -> CorpusLayout:
    return CorpusLayout(
        prop_root=fixtures_dir / name / "prop",
        onf_root=fixtures_dir / name / "onf",
        parse_root=fixtures_dir / name / "parse",
    )


def validate_walk(layout) -> list:
    """What `validate` walks: each file read and checked, and every fault
    of every proposition of each file that could be read."""
    triples, skips = discover_files(layout)
    faults = [*skips]
    for _, parts, fault in read_corpus(triples):
        faults.append(fault)
        if parts is not None:
            faults.extend(list_faults(parts[0], parts[2]))
    return faults


# stems of generated listings: an empty one, ".prop" itself, "a-b",
# which sorts before "a" by file name but after it by stem, and hidden
# and case variants; each file's extension may differ in case
LISTING_STEMS = ["", ".prop", "a", "a-b", ".a", "A", "a.PROP"]
LISTING_EXTS = [".prop", ".onf", ".parse", ".PROP", ".Onf"]
# (section, stem, extension) files; half the stems have their three
# files, the rest any of the extensions
LISTINGS = st.dictionaries(
    st.tuples(st.sampled_from(["00", "07"]), st.sampled_from(LISTING_STEMS)),
    st.one_of(st.just({".prop", ".onf", ".parse"}), st.sets(st.sampled_from(LISTING_EXTS))),
).map(lambda files: {(section, stem, ext) for (section, stem), exts in files.items() for ext in exts})


def reference_discovery(listing):
    """The ids and skips `discover_files` gives for a generated listing:
    in each section, every `.prop` file with a non-empty stem, by name."""
    ids, skips = [], []
    for section in sorted({section for section, _, _ in listing}):
        names = sorted(stem + ext for s, stem, ext in listing if s == section and ext == ".prop" and stem)
        for name in names:
            stem = name[:-len(".prop")]
            missing = [ext for ext in (".onf", ".parse") if (section, stem, ext) not in listing]
            if missing:
                skips.append((f"{section}/{stem}", f"missing companion file(s): {' '.join(missing)}"))
            else:
                ids.append(f"{section}/{stem}")
    return ids, skips


class TestDiscoverFiles:
    def test_golden_corpus(self, golden_layout):
        triples, skips = discover_files(golden_layout)
        assert [t.file_id for t in triples] == [
            "00/wsj_0001",
            "00/wsj_0002",
            "01/wsj_0101",
            "01/wsj_0102",
            "02/wsj_0201",
            "24/wsj_2401",
        ]
        assert skips == []

    def test_partial_corpus_skips_incomplete(self, fixtures_dir):
        triples, skips = discover_files(layout_for(fixtures_dir, "partial"))
        assert [t.file_id for t in triples] == ["00/wsj_0010", "01/wsj_0110", "02/wsj_0210"]
        assert len(skips) == 1
        assert skips[0][0] == "00/wsj_0011"
        assert ".onf" in skips[0][1]

    def test_all_excluded_is_empty_corpus(self, golden_layout):
        all_ids = frozenset(t.file_id for t in discover_files(golden_layout)[0])
        layout = CorpusLayout(
            prop_root=golden_layout.prop_root,
            onf_root=golden_layout.onf_root,
            parse_root=golden_layout.parse_root,
            exclusions=all_ids,
        )
        with pytest.raises(EmptyCorpus):
            discover_files(layout)

    def test_triple_paths(self, golden_layout):
        [triple] = [t for t in discover_files(golden_layout)[0] if t.file_id == "01/wsj_0101"]
        assert triple.prop_path == golden_layout.prop_root / "01" / "wsj_0101.prop"
        assert triple.onf_path == golden_layout.onf_root / "01" / "wsj_0101.onf"
        assert triple.parse_path == golden_layout.parse_root / "01" / "wsj_0101.parse"

    @pytest.mark.parametrize("roots", ["path", "str", "dot"])
    def test_discovered_triples_are_layout_triples(self, roots, any_corpus, monkeypatch):
        # each path of a discovered triple is `<root>/<NN>/<stem>.<ext>`
        # under its layout root, whose text names the file in skip-log and
        # error lines
        if roots == "dot":
            monkeypatch.chdir(any_corpus / "prop")
            layout = CorpusLayout(".", "../onf", "../parse")
        else:
            wrap = Path if roots == "path" else str
            layout = CorpusLayout(*(wrap(any_corpus / ext) for ext in ("prop", "onf", "parse")))
        triples, _ = discover_files(layout)
        assert triples
        for triple in triples:
            folder, _, stem = triple.file_id.partition("/")
            assert [str(path) for path in triple[1:]] == [
                str(Path(root, folder, f"{stem}.{ext}"))
                for root, ext in zip(layout[:3], ("prop", "onf", "parse"))
            ]
            assert all(type(path) is type(Path()) for path in triple[1:])

    def test_missing_root(self, tmp_path):
        layout = CorpusLayout(
            prop_root=tmp_path / "nope",
            onf_root=tmp_path / "nope",
            parse_root=tmp_path / "nope",
        )
        with pytest.raises(MissingRoot):
            discover_files(layout)

    def test_root_that_is_a_file(self, golden_layout, tmp_path):
        (tmp_path / "afile").write_text("", encoding="utf-8")
        layout = golden_layout._replace(prop_root=tmp_path / "afile")
        with pytest.raises(MissingRoot) as excinfo:
            discover_files(layout)
        assert str(excinfo.value) == f"corpus root is not a directory: {tmp_path / 'afile'}"

    def test_folder_25_not_discovered(self, golden_layout, fixtures_dir, tmp_path):
        # sections run 00 to 24; a complete triple in 25/ is not looked at
        shutil.copytree(fixtures_dir / "corpus", tmp_path / "corpus")
        for ext in ("prop", "onf", "parse"):
            folder = tmp_path / "corpus" / ext / "25"
            folder.mkdir()
            shutil.copy(folder.parent / "24" / f"wsj_2401.{ext}", folder / f"wsj_2501.{ext}")
        triples, skips = discover_files(layout_for(tmp_path, "corpus"))
        assert [t.file_id for t in triples] == [
            t.file_id for t in discover_files(golden_layout)[0]
        ]
        assert triples[-1].file_id == "24/wsj_2401"
        assert skips == []

    def test_listing_rules(self, fixtures_dir, tmp_path):
        # an id is any file name ending in ".prop", matched case-sensitively,
        # a hidden one too, but not ".prop" itself, whose stem is empty; a
        # `.prop` entry, like a companion, counts only as a file, reached
        # through a symlink or not, so a directory is none
        shutil.copytree(fixtures_dir / "corpus", tmp_path / "corpus")
        prop, onf, parse = (tmp_path / "corpus" / ext / "00" for ext in ("prop", "onf", "parse"))
        for stem in (".h", "x", "y", "z"):
            shutil.copy(prop / "wsj_0001.prop", prop / f"{stem}.prop")
        for stem in (".h", "x", "y"):
            shutil.copy(parse / "wsj_0001.parse", parse / f"{stem}.parse")
        shutil.copy(onf / "wsj_0001.onf", onf / ".h.onf")
        shutil.copy(onf / "wsj_0001.onf", onf / "z.onf")
        shutil.copy(prop / "wsj_0001.prop", prop / "u.PROP")
        shutil.copy(prop / "wsj_0001.prop", prop / ".prop")
        (prop / "d.prop").mkdir()
        (onf / "x.onf").mkdir()
        (onf / "y.onf").symlink_to(onf / "wsj_0001.onf")
        (parse / "z.parse").symlink_to(parse / "gone.parse")
        layout = layout_for(tmp_path, "corpus")._replace(exclusions=frozenset({"00/wsj_0002"}))
        triples, skips = discover_files(layout)
        assert [t.file_id for t in triples][:3] == ["00/.h", "00/wsj_0001", "00/y"]
        assert [t.file_id for t in triples][3:] == [
            t.file_id for t in discover_files(layout_for(fixtures_dir, "corpus"))[0]
        ][2:]
        assert skips == [
            ("00/wsj_0002", "excluded by configuration"),
            ("00/x", "missing companion file(s): .onf"),
            ("00/z", "missing companion file(s): .parse"),
        ]

    def test_prop_named_files_are_one_id_each(self, golden_layout, fixtures_dir, tmp_path):
        # ".prop.prop" is the id "00/.prop", read once, from itself; a file
        # named ".prop" has an empty stem and is no id
        corpus = tmp_path / "corpus"
        shutil.copytree(fixtures_dir / "corpus", corpus)
        for ext in ("prop", "onf", "parse"):
            shutil.copy(corpus / ext / "00" / f"wsj_0002.{ext}", corpus / ext / "00" / f".prop.{ext}")
        shutil.copy(corpus / "prop" / "00" / "wsj_0001.prop", corpus / "prop" / "00" / ".prop")
        layout = layout_for(tmp_path, "corpus")
        triples, skips = discover_files(layout)
        golden_ids = [t.file_id for t in discover_files(golden_layout)[0]]
        assert [t.file_id for t in triples] == ["00/.prop", *golden_ids]
        assert triples[0].prop_path == layout.prop_root / "00" / ".prop.prop"
        assert all(t.prop_path.name in os.listdir(t.prop_path.parent) for t in triples)
        assert skips == []
        result = extract_corpus(layout)
        assert (result.summary.files_discovered, result.summary.rows_emitted) == (7, 23)
        provenances = [r.provenance for r in result.records]
        assert len(set(provenances)) == len(provenances)

    @given(LISTINGS)
    def test_ids_match_reference(self, listing):
        # `listing` is a corpus as (section, stem, extension) files, each
        # in the root its lowercased extension names
        with tempfile.TemporaryDirectory() as tmp:
            layout = CorpusLayout(*(Path(tmp, root) for root in ("prop", "onf", "parse")))
            for root in layout[:3]:
                root.mkdir()
            for section, stem, ext in listing:
                folder = Path(tmp, ext[1:].lower(), section)
                folder.mkdir(exist_ok=True)
                (folder / f"{stem}{ext}").touch()
            expected = reference_discovery(listing)
            if not expected[0]:
                with pytest.raises(EmptyCorpus):
                    discover_files(layout)
                return
            triples, skips = discover_files(layout)
        assert ([t.file_id for t in triples], skips) == expected
        assert len({t.file_id for t in triples}) == len(triples)
        for triple in triples:
            section, _, stem = triple.file_id.partition("/")
            for path, ext in zip(triple[1:], (".prop", ".onf", ".parse")):
                assert (path.parent.name, path.name) == (section, stem + ext)
                assert (section, stem, ext) in listing


class TestResolveRole:
    def test_chain_with_trace_part(self, corpus_trees):
        tree = corpus_trees["00/wsj_0001"][1]
        text = resolve_role([role_expr("14:1*16:1*17:1")], tree)
        assert text == "Smith Jones"

    def test_single_pointer(self):
        tree = treebank.parse_tree("(S (NP (DT The) (NN cat)) (VP (VBZ sits)))")
        assert resolve_role([role_expr("0:1")], tree) == "The cat"

    def test_all_trace_expr_resolves_empty(self):
        tree = treebank.parse_tree("(S (NP-SBJ (-NONE- *T*-1)) (VP (VBD fell)))")
        assert resolve_role([role_expr("0:1")], tree) == ""

    def test_multiple_exprs_concatenated_in_order(self):
        tree = treebank.parse_tree(
            "(S (NP (NP (NNS profits)) (CC and) (NP (NNS losses))) (VP (VBD fell)))"
        )
        out = resolve_role([role_expr("0:1"), role_expr("2:1")], tree)
        assert out == "profits losses"

    def test_pattern_policy(self, corpus_trees):
        tree = corpus_trees["00/wsj_0001"][1]
        policy = TracePolicy(mode=TraceMode.PATTERN_ONLY)
        assert resolve_role([role_expr("14:1*16:1*17:1")], tree, policy) == "Smith Jones"


def _mini_setup():
    tree = treebank.parse_tree("(S (NP-SBJ (DT The) (NN cat)) (VP (VBD sat)) (. .))")
    sentences = [SentencePair("The cat sat .", "The cat sat .")]
    return tree, sentences


def _one_record(prop, trees, sentences, file_id=""):
    """The one proposition's row from build_records, which must not fail."""
    [record], failures = build_records([prop], trees, sentences, file_id, True)
    assert failures == []
    return record


class TestBuildRecords:
    def test_full_record(self):
        tree, sentences = _mini_setup()
        prop = parse_prop_line("f 0 2 x 0:1-ARG0 2:0-rel")
        record = _one_record(prop, [tree], sentences, file_id="00/x")
        assert record.sentence == "The cat sat ."
        assert record.predicate == "sat"
        assert record.arg0 == "The cat"
        assert record.arg1 == ""
        assert record.merged_arguments == "The cat|"
        assert record.provenance.file_id == "00/x"
        assert record.provenance.tree_index == 0
        assert record.provenance.predicate_terminal == 2

    def test_both_empty_record_kept_until_filter(self):
        tree, sentences = _mini_setup()
        prop = parse_prop_line("f 0 2 x 2:0-rel")
        record = _one_record(prop, [tree], sentences)
        assert record.merged_arguments == "|"

    def test_tree_index_out_of_range(self):
        tree, sentences = _mini_setup()
        prop = parse_prop_line("f 5 2 x 2:0-rel")
        records, [(failed, exc)] = build_records([prop], [tree], sentences, "", True)
        assert (records, failed) == ([], prop)
        assert (type(exc), str(exc)) == (AlignmentError, "tree index 5 out of range (1 trees)")

    def test_sentence_tree_count_mismatch(self):
        tree, sentences = _mini_setup()
        fault = alignment_fault(sentences, [tree, tree])
        assert (type(fault), str(fault)) == (AlignmentError, "1 sentences but 2 trees")
        assert alignment_fault(sentences, [tree]) is None

    def test_pipe_in_span_replaced(self):
        tree = treebank.parse_tree("(S (NP-SBJ (NN a|b)) (VP (VBD ran)) (. .))")
        sentences = [SentencePair("a|b ran .", "a|b ran .")]
        prop = parse_prop_line("f 0 1 x 0:1-ARG0 1:0-rel")
        record = _one_record(prop, [tree], sentences)
        assert record.arg0 == "a/b"
        assert record.merged_arguments.count("|") == 1


def _random_proposition(rng, trees, parse_expr_parts):
    """A proposition over `trees` whose tree index, predicate terminal and
    pointers are each in range, or out of range, or climb past the root."""
    def index(n):  # mostly in range(n), else out of it
        return rng.randrange(n) if rng.random() < 0.9 else n + rng.randrange(3)

    tree_index = index(len(trees))
    terminals = len(trees[tree_index].tokens) if tree_index < len(trees) else 5
    fields = []
    for label in [*RoleLabel] * 2:
        if rng.random() < 0.5:
            continue
        parts = [f"{index(terminals)}:{rng.randint(0, 3)}" for _ in range(rng.randint(1, 3))]
        text = parts[0] + "".join(rng.choice("*,;") + part for part in parts[1:])
        fields.append((label, text))
    rng.shuffle(fields)
    roles = {}
    for label, text in fields:
        roles.setdefault(label, []).append(RoleExpr(parse_expr_parts(text), text))
    return Proposition("f", tree_index, index(terminals), roles)


def _oracle_faults(prop, tree_objects):
    """The `where` of each fault, found on the object trees of tests/support.py."""
    if prop.tree_index >= len(tree_objects):
        return [""]
    order, parents = support.build_parent_map(tree_objects[prop.tree_index])
    wheres = [""] if prop.predicate_terminal >= len(order) else []
    for label in (RoleLabel.REL, RoleLabel.ARG0, RoleLabel.ARG1):
        for expr in prop.exprs(label):
            for t, h in expr.parts:
                try:
                    support.oracle_select_prebuilt(order, parents, t, h)
                except LookupError:
                    wheres.append(f"{label.value} pointer {t}:{h}")
    return wheres


def _resolved(resolve_exprs, prop, tree, tree_guided):
    """Each role's text, or its error as (type, message), in ROLE_ORDER."""
    out = []
    for label in ROLE_ORDER:
        try:
            out.append(resolve_exprs(prop.exprs(label), tree, tree_guided))
        except SrlKitError as exc:
            out.append((type(exc), str(exc)))
    return out


@pytest.mark.parametrize(
    "kernel",
    [
        pytest.param("_pure", id="pure"),
        pytest.param("_speedups", id="compiled", marks=requires_build_tools),
    ],
)
@given(st.integers(0, 10**9))
def test_build_records_fails_on_first_fault(kernel, seed):
    """extract's builder fails a proposition exactly when list_faults (what
    validate lists) gives it a fault, and fails it on the first; otherwise
    its roles are the pure resolver's text, which the kernel's resolver
    matches, errors included, in both trace modes."""
    kernel = importlib.import_module(f"srlkit.{kernel}")
    rng = random.Random(seed)
    objects = [support.random_tree(rng, max_terminals=10) for _ in range(rng.randint(1, 3))]
    trees = [kernel.parse_spans(support.render(t)) for t in objects]
    sentences = [SentencePair(" ".join(t.tokens), " ".join(t.tokens)) for t in trees]
    prop = _random_proposition(rng, trees, kernel.parse_expr_parts)
    faults = [(where, exc) for _, where, exc in kernel.list_faults([prop], trees)]
    assert [where for where, _ in faults] == _oracle_faults(prop, objects)
    for mode in TraceMode:
        tree_guided = mode is TraceMode.TREE_GUIDED
        if prop.tree_index < len(trees):
            tree = trees[prop.tree_index]
            expected = _resolved(_pure.resolve_exprs, prop, tree, tree_guided)
            assert _resolved(kernel.resolve_exprs, prop, tree, tree_guided) == expected
        records, failures = kernel.build_records([prop], trees, sentences, "", tree_guided)
        if failures:
            assert faults and records == []
            [(_, exc)] = failures
            first = faults[0][1]
            assert (type(exc), str(exc)) == (type(first), str(first))
        else:
            assert faults == []
            [record] = records
            predicate, arg0, arg1 = expected
            assert (record.predicate, record.arg0, record.arg1) == (
                predicate, arg0.replace("|", "/"), arg1.replace("|", "/")
            )


@pytest.mark.parametrize(
    "resolver", ["_pure", pytest.param("_speedups", marks=requires_build_tools)]
)
@pytest.mark.parametrize(
    "tokens, tree_guided, pointers, text",
    [
        # the pattern's [^\s] takes no whitespace, which a tree token may hold
        (("*a\u3000b*", "*\x1c*", "*T*-1", "x"), False, [(0, 1)], "*a\u3000b* *\x1c* x"),
        (("*-٣", "*-²", "**", "*"), False, [(0, 1)], "*-²"),
        (("*a\u3000b*", "*T*-1", "x"), True, [(0, 1)], "*a\u3000b* x"),
        # a part whose text is "" is left out, but not one of two empty tokens
        (("", "a"), True, [(0, 0), (1, 0)], "a"),
        (("", "a"), True, [(0, 1)], " a"),
        (("", ""), True, [(0, 0), (1, 0)], ""),
        (("", ""), True, [(0, 1), (0, 0)], " "),
    ],
)
def test_resolvers_on_odd_tokens(resolver, tokens, tree_guided, pointers, text):
    n = len(tokens)  # a root over n preterminals
    tree = treebank.SpanTree(
        tokens=tokens,
        pos=tuple("-NONE-" if token == "*T*-1" else "NN" for token in tokens),
        parent=(-1,) + (0,) * n,
        start=(0,) + tuple(range(n)),
        end=(n,) + tuple(range(1, n + 1)),
        leaf=tuple(range(1, n + 1)),
    )
    resolve_exprs = importlib.import_module(f"srlkit.{resolver}").resolve_exprs
    assert resolve_exprs([RoleExpr(pointers, "")], tree, tree_guided) == text


@requires_build_tools
@pytest.mark.parametrize(
    "pointer", [(10**30, 0), (0, 10**30), (-(10**30), 0), (0, -(10**30)), (2**63, 0), (0, 2**63 - 1)]
)
def test_resolvers_on_pointers_past_a_c_long(pointer):
    from srlkit import _speedups

    tree = treebank.parse_tree("(S (NP (-NONE- *T*-1) (NN a)) (VP (VBZ x)))")
    outcomes = []
    for resolve_exprs in (_speedups.resolve_exprs, _pure.resolve_exprs):
        with pytest.raises(SrlKitError) as exc:
            resolve_exprs([RoleExpr([pointer], "")], tree, True)
        outcomes.append((type(exc.value), str(exc.value)))
    assert outcomes[0] == outcomes[1]


# indices past a C long; a .prop file admits up to 4,300 digits
_HUGE = [10**30, 2**63, 10**4299]


def _index(rng, n, valid):
    """An index in range(n) with probability `valid`, else one past the
    end, one past a C long, or negative, which only a hand-built
    Proposition holds."""
    if rng.random() < valid and n > 0:
        return rng.randrange(n)
    return rng.choice([n, n, *_HUGE, -1, -(10**30)])


def _height(rng):
    """A climb that mostly stays in a small tree, else one past its root or
    past a C long."""
    return rng.choice([0, 0, 1]) if rng.random() < 0.9 else rng.choice([5, 2**63])


def _random_file(rng, parse_spans):
    """A file's trees, sentences and propositions, hand-built to hold every
    fault kind, "|" in tokens, absent and empty roles, and, as small trees
    give few distinct indices, tied sort keys."""
    trees = []
    for _ in range(rng.randint(1, 3)):
        tree = parse_spans(support.render(support.random_tree(rng, max_terminals=8)))
        tokens = tuple(t + "|" + t if rng.random() < 0.2 else t for t in tree.tokens)
        trees.append(tree._replace(tokens=tokens))
    sentences = [SentencePair(" ".join(t.tokens), " ".join(t.tokens)) for t in trees]
    props = []
    for line_no in range(rng.randint(0, 8)):
        tree_index = _index(rng, len(trees), 0.8)
        terminals = len(trees[tree_index].tokens) if 0 <= tree_index < len(trees) else 4
        roles = {}
        for label in RoleLabel:
            roll = rng.random()
            if roll < 0.2:
                continue  # the role is absent
            roles[label] = [] if roll < 0.3 else [
                RoleExpr([(_index(rng, terminals, 0.95), _height(rng))
                          for _ in range(rng.randint(1, 3))], "")
                for _ in range(rng.randint(1, 2))
            ]
        props.append(
            Proposition("f", tree_index, _index(rng, terminals, 0.8), roles, line_no=line_no)
        )
    return trees, sentences, props


def _errors(faults):
    """Faults, each ending in its error, with the error as (type, message)."""
    return [(*fault[:-1], type(fault[-1]), str(fault[-1])) for fault in faults]


@requires_build_tools
@given(st.integers(0, 10**9))
def test_file_kernels_agree(seed):
    """The compiled build_records and list_faults equal the pure twins on
    generated files: rows, failures and faults, in order, in both trace
    modes. Rows and failures come in sort_propositions order and faults
    in file order, each proposition's as list_faults lists it alone."""
    from srlkit import _speedups

    rng = random.Random(seed)
    trees, sentences, props = _random_file(rng, _speedups.parse_spans)
    position = {id(prop): k for k, prop in enumerate(props)}
    listed = {}
    for kernel in (_pure, _speedups):
        faults = kernel.list_faults(props, trees)
        assert all(exc.__traceback__ is None for *_, exc in faults)  # no frame kept alive
        listed[kernel] = _errors([(position[id(p)], where, exc) for p, where, exc in faults])
    assert listed[_speedups] == listed[_pure]
    assert [k for k, *_ in listed[_pure]] == sorted(k for k, *_ in listed[_pure])
    for tree_guided in (True, False):
        built = {}
        for kernel in (_pure, _speedups):
            records, failures = kernel.build_records(props, trees, sentences, "00/f", tree_guided)
            assert all(exc.__traceback__ is None for _, exc in failures)
            built[kernel] = records, _errors([(position[id(p)], exc) for p, exc in failures])
        assert built[_speedups] == built[_pure]
        records, failures = built[_pure]
        failed = {k for k, *_ in failures}
        order = [position[id(p)] for p in sort_propositions(props)]
        assert [k for k, *_ in failures] == [k for k in order if k in failed]
        assert [r.provenance for r in records] == [
            Provenance("00/f", props[k].tree_index, props[k].predicate_terminal)
            for k in order if k not in failed
        ]
        # a row's first fault is the first that validate lists for it
        firsts = {}
        for k, where, kind, message in listed[_pure]:
            firsts.setdefault(k, (kind, message))
        assert {k: (kind, message) for k, kind, message in failures} == firsts
        assert all(r.arg0.count("|") + r.arg1.count("|") == 0 for r in records)
        assert all(r.merged_arguments == f"{r.arg0}|{r.arg1}" for r in records)


@pytest.mark.parametrize(
    "kernel",
    [
        pytest.param("_pure", id="pure"),
        pytest.param("_speedups", id="compiled", marks=requires_build_tools),
    ],
)
@given(st.integers(0, 10**9))
def test_one_proposition_callers_are_the_file_kernels(kernel, seed):
    """build_records and list_faults called on one proposition, as inspect
    calls list_faults, give its part of the whole file's output."""
    kernel = importlib.import_module(f"srlkit.{kernel}")
    rng = random.Random(seed)
    trees, sentences, props = _random_file(rng, kernel.parse_spans)
    faults = kernel.list_faults(props, trees)
    for mode in TraceMode:
        tree_guided = mode is TraceMode.TREE_GUIDED
        records, failures = kernel.build_records(props, trees, sentences, "00/f", tree_guided)
        rows, failed = iter(records), dict((id(p), exc) for p, exc in failures)
        for prop in sort_propositions(props):
            outcome, failure = kernel.build_records([prop], trees, sentences, "00/f", tree_guided)
            if failure:
                [(_, exc)] = failure
                assert outcome == [] and _errors([(exc,)]) == _errors([(failed[id(prop)],)])
            else:
                assert id(prop) not in failed and outcome == [next(rows)]
    for prop in props:
        assert _errors(kernel.list_faults([prop], trees)) == _errors(
            [fault for fault in faults if fault[0] is prop]
        )


@pytest.mark.parametrize(
    "kernel", ["_pure", pytest.param("_speedups", marks=requires_build_tools)]
)
def test_negative_indices_are_out_of_range(kernel):
    """A hand-built Proposition may hold a negative index, which the .prop
    reader refuses: it is out of range, so no tree is read from the end."""
    kernel = importlib.import_module(f"srlkit.{kernel}")
    trees = [kernel.parse_spans("(S (NN a) (VB b))"), kernel.parse_spans("(S (NN c))")]
    sentences = [SentencePair("a b", "a b"), SentencePair("c", "c")]
    rel = {RoleLabel.REL: [RoleExpr([(0, 0)], "0:0")]}
    props = [Proposition("f", -1, 0, rel), Proposition("f", 0, -1, rel),
             Proposition("f", -(10**30), 0, rel)]
    expected = [
        (AlignmentError, "tree index -1 out of range (2 trees)"),
        (TerminalOutOfRange, "predicate terminal -1 out of range (tree has 2 terminals)"),
        (AlignmentError, f"tree index {-(10**30)} out of range (2 trees)"),
    ]
    records, failures = kernel.build_records(props, trees, sentences, "00/f", True)
    assert records == []
    assert [(p, type(e), str(e)) for p, e in failures] == [
        (props[k], *expected[k]) for k in (2, 0, 1)  # sorted by tree index
    ]
    assert [(p, w, type(e), str(e)) for p, w, e in kernel.list_faults(props, trees)] == [
        (prop, "", *fault) for prop, fault in zip(props, expected)
    ]


@requires_build_tools
@pytest.mark.parametrize(
    "props",
    [[object()], [Proposition("f", "0", 0, {})], [Proposition("f", 0, "0", {})],
     [Proposition("f", 0, 0, {}), Proposition("f", "0", 0, {})]],
    ids=["not-a-proposition", "str-index", "str-terminal", "str-index-sorted"],
)
def test_build_records_refuses_what_the_sort_refuses(props):
    """Outside the documented types, the compiled build_records and
    list_faults fail with the error class and message of their pure
    twins, whose sort_propositions or _locate raises it."""
    from srlkit import _speedups

    trees = [_speedups.parse_spans("(S (NN a))")]
    calls = (
        lambda kernel: kernel.build_records(props, trees, [SentencePair("a", "a")], "00/f", True),
        lambda kernel: kernel.list_faults(props, trees),
    )
    for call in calls:
        raised = []
        for kernel in (_pure, _speedups):
            with pytest.raises((AttributeError, TypeError)) as info:
                call(kernel)
            raised.append((info.type, str(info.value)))
        assert raised[0] == raised[1]


@requires_build_tools
def test_kernels_fault_the_tree_index_before_reading_the_terminal():
    """A hand-built Proposition whose predicate terminal is not an int is
    its tree index's AlignmentError fault in both kernels when that index
    is out of range, and a TypeError in both when it is in range."""
    from srlkit import _speedups

    trees, sentences = [_speedups.parse_spans("(S (NN a))")], [SentencePair("a", "a")]
    far, near = Proposition("f", 9, "x", {}), Proposition("f", 0, "x", {})
    fault = (AlignmentError, "tree index 9 out of range (1 trees)")
    for kernel in (_pure, _speedups):
        records, failures = kernel.build_records([far], trees, sentences, "00/f", True)
        assert (records, _errors(failures)) == ([], [(far, *fault)])
        assert _errors(kernel.list_faults([far], trees)) == [(far, "", *fault)]
        with pytest.raises(TypeError):
            kernel.build_records([near], trees, sentences, "00/f", True)
        with pytest.raises(TypeError):
            kernel.list_faults([near], trees)


@requires_build_tools
def test_kernels_refuse_trees_that_are_not_a_sequence():
    """Both kernels take the trees as a tuple before they read any
    proposition, so trees that cannot be one are the same TypeError in
    both, with no propositions too."""
    from srlkit import _speedups

    for kernel in (_pure, _speedups):
        for props in ([], [Proposition("f", 0, 0, {})]):
            with pytest.raises(TypeError, match="^'int' object is not iterable$"):
                kernel.build_records(props, 5, [], "00/f", True)
            with pytest.raises(TypeError, match="^'int' object is not iterable$"):
                kernel.list_faults(props, 5)


class TestReadFile:
    def test_misaligned_file_reads_but_fails_check(self, fixtures_dir):
        # validate goes on to check the propositions of a misaligned file
        [triple], _ = discover_files(layout_for(fixtures_dir, "misaligned"))
        assert triple.file_id == "00/wsj_0001"
        parts = read_file(triple)
        _, sentences, trees = parts
        tree_texts = parse_trees_file(read_text(triple.parse_path))
        assert [treebank.parse_tree(t) for t in tree_texts] == trees
        fault = alignment_fault(sentences, trees)
        assert (type(fault), str(fault)) == (AlignmentError, "2 sentences but 1 trees")
        [(_, walked_parts, walked)] = read_corpus([triple])
        assert walked_parts == parts
        assert (type(walked), str(walked)) == (AlignmentError, "2 sentences but 1 trees")

    def test_walk_yields_file_faults_in_order(self, read_fault_dir):
        triples, _ = discover_files(layout_for(read_fault_dir, "readfault"))
        walked = [
            (triple.file_id, parts is None, type(fault).__name__, str(fault))
            for triple, parts, fault in read_corpus(triples)
        ]
        assert walked == [
            ("00/wsj_0001", True, "MalformedPointer", "field '1::2-ARG1': bad pointer '1::2' in '1::2'"),
            ("00/wsj_0002", False, "NoneType", "None"),
            ("01/wsj_0101", True, "TrailingGarbage", "content after the root tree"),
            ("01/wsj_0102", False, "NoneType", "None"),
            ("02/wsj_0201", True, "MalformedOnf", "plain sentence without a treebanked sentence"),
            ("24/wsj_2401", False, "NoneType", "None"),
        ]


class TestFilterRecords:
    @staticmethod
    def _rec(arg0, arg1):
        return SrlRecord("s", "s", "p", arg0, arg1, f"{arg0}|{arg1}")

    def test_example(self):
        both = self._rec("a", "b")
        neither = self._rec("", "")
        only1 = self._rec("", "b")
        assert filter_records([both, neither, only1]) == [both, only1]

    def test_empty(self):
        assert filter_records([]) == []

    def test_golden_has_no_empty_merged(self, golden_records):
        assert all(r.merged_arguments != "|" for r in golden_records)


class TestRecordTypes:
    """What the NamedTuple records are relied on for: the CSV headers,
    `stats`' positional build and the ORL mapping."""

    def test_headers_are_the_fields_without_provenance(self):
        assert SRL_HEADER == [
            "sentence", "treebanked_sentence", "predicate", "arg0", "arg1", "merged_arguments",
        ]
        assert ORL_HEADER == ["sentence", "treebanked_sentence", "holder", "expression", "target"]
        assert SrlRecord._fields == (*SRL_HEADER, "provenance")
        assert OrlRecord._fields == (*ORL_HEADER, "provenance")

    def test_provenance_defaults_to_none(self):
        assert SrlRecord(*"abcdef").provenance is None
        assert OrlRecord(*"abcde").provenance is None

    def test_map_to_orl_copies_values_and_provenance(self):
        provenance = Provenance("00/x", 3, 7)
        rec = SrlRecord("s", "t", "said", "He", "it rained", "He|it rained", provenance)
        assert map_to_orl(rec) == OrlRecord("s", "t", "He", "said", "it rained", provenance)
        assert map_to_orl(rec).provenance is provenance

    @requires_build_tools
    def test_extract_records_equal_across_backends(self, fixtures_dir):
        script = (
            "import pickle, sys; from pathlib import Path; "
            "from srlkit import backend; from srlkit.pipeline import CorpusLayout, extract_corpus; "
            "roots = [Path(sys.argv[1], name) for name in ('prop', 'onf', 'parse')]; "
            "records = extract_corpus(CorpusLayout(*roots)).records; "
            "sys.stdout.buffer.write(pickle.dumps((backend(), records)))"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {k: v for k, v in os.environ.items() if k != "SRLKIT_PURE"}
        env["PYTHONPATH"] = str(src)
        for name in ("corpus", "swapped", "partial", "badptr"):
            runs = {}
            for pure in (True, False):
                proc = subprocess.run(
                    [sys.executable, "-c", script, str(fixtures_dir / name)],
                    env={**env, "SRLKIT_PURE": "1"} if pure else env,
                    capture_output=True, check=True,
                )
                backend, records = pickle.loads(proc.stdout)
                runs[backend] = records
            assert set(runs) == {"pure", "compiled"}
            assert runs["pure"] == runs["compiled"], name
            assert all(type(r) is SrlRecord and type(r.provenance) is Provenance
                       for r in runs["compiled"])


class TestMapToOrl:
    def test_example(self):
        rec = SrlRecord("s", "t", "said", "He", "it rained", "He|it rained")
        orl = map_to_orl(rec)
        assert orl.holder == "He"
        assert orl.expression == "said"
        assert orl.target == "it rained"
        assert orl.sentence == "s" and orl.treebanked_sentence == "t"

    def test_empty_carry_through(self):
        rec = SrlRecord("s", "t", "fell", "", "the vase", "|the vase")
        assert map_to_orl(rec).holder == ""

    def test_injective_on_golden(self, golden_records):
        mapped = [map_to_orl(r) for r in golden_records]
        assert len(set(mapped)) == len(set(golden_records))


class TestExportCsv:
    def test_golden_srl_bytes(self, golden_records, golden_srl_csv, tmp_path):
        out = tmp_path / "dataset.csv"
        export_csv(golden_records, out, schema="srl")
        assert out.read_bytes() == golden_srl_csv.read_bytes()

    def test_golden_orl_bytes(self, golden_records, golden_orl_csv, tmp_path):
        out = tmp_path / "dataset.csv"
        export_csv(golden_records, out, schema="orl")
        assert out.read_bytes() == golden_orl_csv.read_bytes()

    def test_empty_records_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        export_csv([], out, schema="srl")
        assert out.read_text(encoding="utf-8") == ",".join(SRL_HEADER) + "\n"

    def test_comma_field_quoted(self, tmp_path):
        rec = SrlRecord("a , b .", "a , b .", "p", "x , y", "", "x , y|")
        out = tmp_path / "q.csv"
        export_csv([rec], out)
        assert '"x , y"' in out.read_text(encoding="utf-8")

    def test_quote_char_doubled(self, tmp_path):
        rec = SrlRecord('the "best" plan', "t", "p", "", "", "|")
        out = tmp_path / "q.csv"
        export_csv([rec], out)
        assert '"the ""best"" plan"' in out.read_text(encoding="utf-8")

    def test_unknown_schema(self, tmp_path):
        with pytest.raises(ValueError):
            export_csv([], tmp_path / "x.csv", schema="conll")

    def test_failed_write_keeps_previous_file(self, golden_records, tmp_path):
        out = tmp_path / "dataset.csv"
        out.write_text("previous run\n", encoding="utf-8")
        with pytest.raises(AttributeError):
            export_csv([*golden_records, object()], out)  # the last row cannot be written
        assert out.read_text(encoding="utf-8") == "previous run\n"
        assert list(tmp_path.iterdir()) == [out]


# fields drawn to hold what CSV quoting turns on, next to arbitrary text
CSV_FIELD = st.one_of(
    st.text(st.sampled_from([",", '"', "\n", "\r", "\x00", " ", "a", "é", "漢", "😀"]), max_size=8),
    st.text(max_size=8),
)


def _reference_csv(rows) -> str:
    buffer = io.StringIO(newline="")
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


class TestCsvLines:
    """`csv_lines`, the one CSV writer, against the standard library's."""

    @given(st.lists(st.lists(CSV_FIELD, min_size=5, max_size=6), max_size=6))
    def test_matches_csv_writer(self, rows):
        # csv.writer quotes CR only from Python 3.13 and, before 3.11,
        # cannot write NUL at all; the rule here is the same on every Python
        if sys.version_info < (3, 13):
            rows = [[v.replace("\r", "").replace("\x00", "") for v in row] for row in rows]
        assert csv_lines(rows) == _reference_csv(rows)

    @pytest.mark.parametrize("value, written", [
        ("", ""),
        ("a b", "a b"),
        ("a,b", '"a,b"'),
        ('say "hi"', '"say ""hi"""'),
        ("a\nb", '"a\nb"'),
        ("a\rb", '"a\rb"'),
        ("fi\x00sh", "fi\x00sh"),
        ("é漢", "é漢"),
    ])
    def test_quoting_rule(self, value, written):
        assert csv_lines([["x", value]]) == f"x,{written}\n"

    def test_no_rows(self):
        assert csv_lines([]) == ""

    @given(st.lists(st.lists(CSV_FIELD, min_size=6, max_size=6), max_size=6))
    def test_reads_back_through_stats(self, rows):
        if sys.version_info < (3, 11):  # the 3.10 reader rejects NUL
            rows = [[v.replace("\x00", "") for v in row] for row in rows]
        srl = [SrlRecord(*row) for row in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "dataset.csv")
            export_csv(srl, path, schema="srl")
            assert read_dataset_csv(path) == srl
            # read_dataset_csv takes only the srl header, so the orl file
            # goes through the same reader without its header check
            export_csv(srl, path, schema="orl")
            with open(path, encoding="utf-8", newline="") as handle:
                text = handle.read()
        assert list(csv.reader(io.StringIO(text, newline=""))) == [
            ORL_HEADER, *(list(map_to_orl(r)[:5]) for r in srl)
        ]

    def test_rows_span_batches(self, tmp_path):
        records = [SrlRecord(f"s{i}", "t", "p", "a,b", "", "a,b|") for i in range(600)]
        out = tmp_path / "d.csv"
        export_csv(records, out)
        assert out.read_text(encoding="utf-8") == csv_lines([SRL_HEADER, *(r[:6] for r in records)])
        assert read_dataset_csv(out) == records


class TestReadText:
    """`read_text` against `open(path, encoding="utf-8")`, the reader it
    replaces."""

    @staticmethod
    def _opened(path):
        with open(path, encoding="utf-8") as handle:
            return handle.read()

    @given(st.lists(st.sampled_from(["a", "é", "\r", "\n", "\r\n"]), max_size=40))
    def test_line_ends_as_open(self, pieces):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder, "f.txt")
            path.write_bytes("".join(pieces).encode("utf-8"))
            assert read_text(path) == self._opened(path)

    @pytest.mark.parametrize("offset", [100, 9_000, 70_000, 2_000_000])
    def test_decode_error_offset(self, offset, tmp_path):
        # the offset counts bytes from the start of the file, past any
        # multi-byte character or CRLF before it
        path = tmp_path / "f.txt"
        path.write_bytes("é\r\n".encode("utf-8") * (offset // 4) + b"\xff" + b"a\r\n" * 10)
        with pytest.raises(UnicodeDecodeError) as opened:
            self._opened(path)
        assert opened.value.start == offset
        with pytest.raises(DecodeError) as exc:
            read_text(path)
        assert str(exc.value) == f"{path}: not UTF-8 at byte offset {offset} (invalid start byte)"

    def test_truncated_character_at_end(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"abc\n" + "é".encode("utf-8")[:1])
        with pytest.raises(DecodeError) as exc:
            read_text(path)
        assert str(exc.value) == f"{path}: not UTF-8 at byte offset 4 (unexpected end of data)"

    @pytest.mark.parametrize("kind", ["directory", "missing"])
    def test_unreadable_path_is_named(self, kind, tmp_path):
        path = tmp_path / "d" if kind == "directory" else tmp_path / "nope.txt"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(OSError) as opened:
            self._opened(path)
        with pytest.raises(OSError) as exc:
            read_text(path)
        assert type(exc.value) is type(opened.value)
        assert str(exc.value) == str(opened.value)
        assert str(path) in str(exc.value)


# tokens as the tree scanner makes them: non-empty, no ASCII whitespace,
# with characters that are whitespace or unprintable to str but not to it
TOKEN = st.text(st.sampled_from(["a", "é", "\xa0", "\x1c", "\x85", "\u2028", "\u200b"]),
                min_size=1, max_size=3)
SEPARATOR = st.sampled_from([" ", "  ", "\t", "\n", " \xa0", "\x1c"])


@st.composite
def tree_and_text(draw):
    """Tree tokens, and a treebanked text: their join, or their join with
    other separators, leading or trailing space, or other tokens."""
    tokens = draw(st.lists(TOKEN, min_size=1, max_size=6))
    words = draw(st.one_of(st.just(tokens), st.lists(TOKEN, min_size=1, max_size=6)))
    if draw(st.booleans()):
        text = " ".join(words)
    else:
        text = "".join(w + draw(SEPARATOR) for w in words[:-1]) + words[-1]
    text = draw(st.sampled_from(["", " ", "\t", " \u3000"])) + text
    return tokens, text + draw(st.sampled_from(["", " ", "\n"]))


class TestAlignmentFault:
    def test_only_space_is_printable_whitespace(self):
        # the premise of alignment_fault's shortcut, on this Python
        assert [c for c in map(chr, range(sys.maxunicode + 1))
                if c.isspace() and c.isprintable()] == [" "]

    @given(tree_and_text())
    def test_same_verdict_as_split(self, case):
        tokens, text = case
        tree = treebank.parse_tree("(S " + " ".join(f"(NN {t})" for t in tokens) + ")")
        assert tree.tokens == tuple(tokens)
        fault = alignment_fault([SentencePair("p", text)], [tree])
        aligned = tree.tokens == tuple(text.split())  # the rule before the shortcut
        assert (fault is None) == aligned
        if fault is not None:
            assert str(fault) == "tree 0 leaves differ from its treebanked sentence"


class TestExtractCorpus:
    def test_walk_makes_no_garbage_cycles(self, any_corpus, tmp_path):
        # the walk and the CSV write leave nothing for the cyclic collector
        layout = CorpusLayout(*(any_corpus / ext for ext in ("prop", "onf", "parse")))
        out = tmp_path / "d.csv"
        assert support.cyclic_garbage(lambda: export_csv(extract_corpus(layout).records, out)) == 0

    def test_validate_walk_makes_no_garbage_cycles(self, any_corpus):
        layout = CorpusLayout(*(any_corpus / ext for ext in ("prop", "onf", "parse")))
        assert support.cyclic_garbage(lambda: validate_walk(layout)) == 0

    def test_skip_paths_make_no_garbage_cycles(self, fixtures_dir, tmp_path):
        # a raised error's traceback is where a cycle would most likely
        # hide: a file that is not UTF-8, a malformed .prop line, and a
        # strict run that stops on the first of them
        corpus = tmp_path / "corpus"
        shutil.copytree(fixtures_dir / "corpus", corpus)
        with open(corpus / "onf/00/wsj_0002.onf", "ab") as handle:
            handle.write(b"\xff\xfe")
        with open(corpus / "prop/01/wsj_0101.prop", "a", encoding="utf-8") as handle:
            handle.write("nw/wsj/01/wsj_0101 x\n")
        layout = layout_for(tmp_path, "corpus")
        out = tmp_path / "d.csv"

        def tolerant():
            result = extract_corpus(layout)
            assert [fid for fid, _ in result.summary.skip_log] == ["00/wsj_0002", "01/wsj_0101"]
            export_csv(result.records, out)

        def strict():
            try:
                extract_corpus(layout, strict=True)
            except ExtractionError:
                return
            raise AssertionError("a strict run went past a bad file")

        assert support.cyclic_garbage(tolerant) == 0
        assert support.cyclic_garbage(lambda: validate_walk(layout)) == 0
        assert support.cyclic_garbage(strict) == 0

    def test_summary_accounting(self, golden_layout):
        result = extract_corpus(golden_layout)
        s = result.summary
        assert s.files_discovered == 6
        assert s.files_processed == 6
        assert s.files_skipped == 0
        assert s.propositions == 21
        assert s.propositions_failed == 0
        assert s.rows_filtered == 1
        assert s.rows_emitted == 20
        assert s.rows_emitted == s.propositions - s.propositions_failed - s.rows_filtered
        assert len(result.records) == 20

    def test_deterministic_across_runs(self, golden_layout):
        a = extract_corpus(golden_layout).records
        b = extract_corpus(golden_layout).records
        c = extract_corpus(golden_layout).records
        assert a == b == c

    def test_spans_are_subsequences_of_sentence(self, golden_records):
        for record in golden_records:
            sent_tokens = record.sentence.split()
            for span in (record.predicate, record.arg0, record.arg1):
                if not span:
                    continue
                it = iter(sent_tokens)
                assert all(tok in it for tok in span.split()), (span, record.sentence)

    def test_bad_pointer_tolerant(self, fixtures_dir):
        result = extract_corpus(layout_for(fixtures_dir, "badptr"))
        s = result.summary
        assert s.propositions == 1
        assert s.propositions_failed == 1
        assert s.rows_emitted == 0
        assert any("prop line 1" in reason for _, reason in s.skip_log)

    def test_bad_pointer_strict(self, fixtures_dir):
        with pytest.raises(ExtractionError) as exc:
            extract_corpus(layout_for(fixtures_dir, "badptr"), strict=True)
        assert "00/wsj_0001" in str(exc.value)
        assert "line 1" in str(exc.value)

    def test_misaligned_file_skipped(self, fixtures_dir):
        result = extract_corpus(layout_for(fixtures_dir, "misaligned"))
        s = result.summary
        assert s.files_processed == 0
        assert s.files_skipped == 1
        assert s.rows_emitted == 0
        assert any("sentences but" in reason for _, reason in s.skip_log)

    def test_misaligned_file_strict(self, fixtures_dir):
        with pytest.raises(ExtractionError):
            extract_corpus(layout_for(fixtures_dir, "misaligned"), strict=True)

    def test_swapped_trees_skipped(self, fixtures_dir):
        # two trees of 00/wsj_0002 swapped: the counts agree, the tokens do not
        layout = layout_for(fixtures_dir, "swapped")
        result = extract_corpus(layout)
        assert result.records == []
        assert result.summary.files_skipped == 1
        assert result.summary.skip_log == [
            ("00/wsj_0002", "tree 1 leaves differ from its treebanked sentence")
        ]
        with pytest.raises(ExtractionError, match="00/wsj_0002: tree 1 leaves differ"):
            extract_corpus(layout, strict=True)

    def test_predicate_terminal_out_of_range(self, fixtures_dir, tmp_path):
        shutil.copytree(fixtures_dir / "corpus", tmp_path / "corpus")
        prop = tmp_path / "corpus" / "prop" / "00" / "wsj_0001.prop"
        lines = prop.read_text(encoding="utf-8").splitlines(keepends=True)
        assert " 0 2 " in lines[1]
        lines[1] = lines[1].replace(" 0 2 ", " 0 99 ")
        prop.write_text("".join(lines), encoding="utf-8")
        layout = layout_for(tmp_path, "corpus")
        result = extract_corpus(layout)
        assert result.summary.skip_log == [
            ("00/wsj_0001", "prop line 2: predicate terminal 99 out of range (tree has 6 terminals)")
        ]
        assert result.summary.propositions_failed == 1
        assert not any(r.predicate == "approved" for r in result.records)
        with pytest.raises(ExtractionError, match="00/wsj_0001 prop line 2: predicate terminal 99"):
            extract_corpus(layout, strict=True)

    def test_exclusions_respected(self, golden_layout):
        layout = CorpusLayout(
            prop_root=golden_layout.prop_root,
            onf_root=golden_layout.onf_root,
            parse_root=golden_layout.parse_root,
            exclusions=frozenset({"00/wsj_0001"}),
        )
        result = extract_corpus(layout)
        assert result.summary.files_processed == 5
        ids = {r.provenance.file_id for r in result.records}
        assert "00/wsj_0001" not in ids
        assert any(fid == "00/wsj_0001" for fid, _ in result.summary.skip_log)
