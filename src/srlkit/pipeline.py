"""End-to-end extraction: corpus discovery, span resolution, record
building and filtering, ORL mapping, and CSV export.

A corpus is three parallel directory trees of `.prop`, `.onf`, and
`.parse` files laid out as `<root>/<NN>/<stem>.<ext>` with NN from 00
to 24. A file id is `<NN>/<stem>`. Discovery is driven by the `.prop`
files; ids missing either companion file are skipped and logged. Output
rows are totally ordered by (file id, tree index, predicate terminal,
source line), so runs are byte-reproducible. A proposition gives no row
for the faults `proposition_faults` lists: `extract` skips it on the
first, `validate` reports them all.
"""

import contextlib
import csv
import operator
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from srlkit import treebank
from srlkit.cleaning import TraceMode, TracePolicy, join_untraced
from srlkit.errors import (
    AlignmentError,
    EmptyCorpus,
    ExtractionError,
    MissingRoot,
    SrlKitError,
    TerminalOutOfRange,
)
from srlkit.onf import SentencePair, parse_onf, parse_trees_file
from srlkit.propbank import (
    Proposition,
    RoleExpr,
    RoleLabel,
    parse_prop_file,
    sort_propositions,
)

__all__ = [
    "CorpusLayout",
    "FileTriple",
    "Provenance",
    "SrlRecord",
    "OrlRecord",
    "RunSummary",
    "ExtractResult",
    "SRL_HEADER",
    "ORL_HEADER",
    "SCHEMAS",
    "FOLDERS",
    "ROLE_ORDER",
    "discover_files",
    "read_file",
    "check_aligned",
    "resolve_role",
    "proposition_faults",
    "build_record",
    "filter_records",
    "map_to_orl",
    "export_csv",
    "extract_corpus",
    "open_replacing",
]

SCHEMAS = ("srl", "orl")
FOLDERS = tuple(f"{n:02d}" for n in range(25))  # the corpus sections searched
ROLE_ORDER = (RoleLabel.REL, RoleLabel.ARG0, RoleLabel.ARG1)  # as a record is built


@dataclass(frozen=True)
class FileTriple:
    file_id: str
    prop_path: Path
    onf_path: Path
    parse_path: Path


@dataclass(frozen=True)
class CorpusLayout:
    prop_root: Path
    onf_root: Path
    parse_root: Path
    exclusions: frozenset[str] = frozenset()

    def triple(self, file_id: str) -> FileTriple:
        """The `.prop`, `.onf` and `.parse` paths of a file id `<NN>/<stem>`."""
        folder, _, stem = file_id.partition("/")
        return FileTriple(
            file_id,
            Path(self.prop_root) / folder / f"{stem}.prop",
            Path(self.onf_root) / folder / f"{stem}.onf",
            Path(self.parse_root) / folder / f"{stem}.parse",
        )


@dataclass(frozen=True)
class Provenance:
    file_id: str
    tree_index: int
    predicate_terminal: int


@dataclass(frozen=True)
class SrlRecord:
    sentence: str
    treebanked_sentence: str
    predicate: str
    arg0: str
    arg1: str
    merged_arguments: str
    provenance: Provenance | None = None


@dataclass(frozen=True)
class OrlRecord:
    sentence: str
    treebanked_sentence: str
    holder: str
    expression: str
    target: str
    provenance: Provenance | None = None


# a CSV row is a record's fields in order, its provenance left out
SRL_HEADER = [f.name for f in fields(SrlRecord) if f.name != "provenance"]
ORL_HEADER = [f.name for f in fields(OrlRecord) if f.name != "provenance"]


@dataclass
class RunSummary:
    files_discovered: int = 0
    files_processed: int = 0
    files_skipped: int = 0
    propositions: int = 0
    propositions_failed: int = 0
    rows_filtered: int = 0
    rows_emitted: int = 0
    skip_log: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class ExtractResult:
    records: list[SrlRecord]
    summary: RunSummary


def discover_files(layout: CorpusLayout) -> tuple[list[FileTriple], list[tuple[str, str]]]:
    """Aligned (prop, onf, parse) triples plus skip entries, ordered by id."""
    for root in (layout.prop_root, layout.onf_root, layout.parse_root):
        if not Path(root).is_dir():
            raise MissingRoot(f"corpus root does not exist: {root}")
    triples: list[FileTriple] = []
    skips: list[tuple[str, str]] = []
    for folder in FOLDERS:
        prop_dir = Path(layout.prop_root) / folder
        if not prop_dir.is_dir():
            continue
        for prop_path in sorted(prop_dir.glob("*.prop")):
            file_id = f"{folder}/{prop_path.stem}"
            if file_id in layout.exclusions:
                skips.append((file_id, "excluded by configuration"))
                continue
            triple = layout.triple(file_id)
            missing = [p.suffix for p in (triple.onf_path, triple.parse_path) if not p.is_file()]
            if missing:
                skips.append((file_id, f"missing companion file(s): {' '.join(missing)}"))
                continue
            triples.append(triple)
    if not triples:
        raise EmptyCorpus("no complete (.prop, .onf, .parse) triples found")
    return triples, skips


def read_file(
    triple: FileTriple,
) -> tuple[list[Proposition], list[SentencePair], list[treebank.SpanTree], list[str]]:
    """Read and parse one file triple: its propositions, sentences and
    trees, and the text of each tree."""
    props = parse_prop_file(triple.prop_path.read_text(encoding="utf-8"))
    sentences = parse_onf(triple.onf_path.read_text(encoding="utf-8"))
    tree_texts = parse_trees_file(triple.parse_path.read_text(encoding="utf-8"))
    return props, sentences, [treebank.parse_tree(t) for t in tree_texts], tree_texts


def check_aligned(sentences: list[SentencePair], trees: list[treebank.SpanTree]) -> None:
    """Raise AlignmentError unless the file has one tree per sentence and
    each tree's tokens are its treebanked sentence's."""
    if len(trees) != len(sentences):
        raise AlignmentError(f"{len(sentences)} sentences but {len(trees)} trees")
    for i, (pair, tree) in enumerate(zip(sentences, trees)):
        if tree.tokens != tuple(pair.treebanked.split()):
            raise AlignmentError(f"tree {i} leaves differ from its treebanked sentence")


def resolve_role(
    expr_list: list[RoleExpr], tree: treebank.SpanTree, policy: TracePolicy | None = None
) -> str:
    """Resolve pointer expressions to cleaned surface text.

    Each pointer selects a subtree whose cleaned text becomes one part;
    parts that clean to "" are dropped and the survivors joined with
    single spaces, expressions in source order. With no policy, traces are
    dropped tree-guided.
    """
    mode = TraceMode.TREE_GUIDED if policy is None else policy.mode
    tokens, pos, _, start, end, _ = tree
    pieces = []
    for expr in expr_list:
        for t, h in expr.parts:
            node = treebank.select_node(tree, t, h)
            lo, hi = start[node], end[node]
            text = join_untraced(tokens[lo:hi], pos[lo:hi], mode)
            if text:
                pieces.append(text)
    return " ".join(pieces)


def _locate(
    prop: Proposition, trees: list[treebank.SpanTree]
) -> tuple[treebank.SpanTree | None, SrlKitError | None]:
    """The proposition's tree (None if its index is out of range) and the
    fault of its tree index or predicate terminal, or None."""
    if prop.tree_index >= len(trees):
        return None, AlignmentError(
            f"tree index {prop.tree_index} out of range ({len(trees)} trees)"
        )
    tree = trees[prop.tree_index]
    if prop.predicate_terminal >= len(tree.tokens):
        return tree, TerminalOutOfRange(
            f"predicate terminal {prop.predicate_terminal} out of range "
            f"(tree has {len(tree.tokens)} terminals)"
        )
    return tree, None


def proposition_faults(
    prop: Proposition, trees: list[treebank.SpanTree]
) -> list[tuple[str, SrlKitError]]:
    """Every reason the proposition gives no row, as (where, error) pairs
    in the order `build_record` meets them: a tree index out of range
    (alone, since nothing else can be checked), a predicate terminal out
    of range, then each REL, ARG0 and ARG1 pointer that selects no node,
    in source order within a role. `where` names the pointer, e.g.
    "ARG0 pointer 9:1", and is "" for the two index faults."""
    tree, fault = _locate(prop, trees)
    faults = [] if fault is None else [("", fault)]
    if tree is None:
        return faults
    for label in ROLE_ORDER:
        for expr in prop.exprs(label):
            for t, h in expr.parts:
                try:
                    treebank.select_node(tree, t, h)
                except SrlKitError as exc:
                    faults.append((f"{label.value} pointer {t}:{h}", exc))
    return faults


def build_record(
    prop: Proposition,
    trees: list[treebank.SpanTree],
    sentences: list[SentencePair],
    file_id: str = "",
    policy: TracePolicy | None = None,
) -> SrlRecord:
    """The proposition's row, before filtering. Raises the first of its
    `proposition_faults`, resolving as it goes rather than checking first."""
    tree, fault = _locate(prop, trees)
    if fault is not None:
        raise fault
    pair = sentences[prop.tree_index]
    predicate = resolve_role(prop.exprs(RoleLabel.REL), tree, policy)
    arg0 = resolve_role(prop.exprs(RoleLabel.ARG0), tree, policy).replace("|", "/")
    arg1 = resolve_role(prop.exprs(RoleLabel.ARG1), tree, policy).replace("|", "/")
    return SrlRecord(
        sentence=pair.plain,
        treebanked_sentence=pair.treebanked,
        predicate=predicate,
        arg0=arg0,
        arg1=arg1,
        merged_arguments=f"{arg0}|{arg1}",
        provenance=Provenance(file_id, prop.tree_index, prop.predicate_terminal),
    )


def filter_records(records: list[SrlRecord]) -> list[SrlRecord]:
    """Drop rows lacking both core arguments (merged_arguments == '|')."""
    return [r for r in records if r.merged_arguments != "|"]


def map_to_orl(record: SrlRecord) -> OrlRecord:
    """ARG0 -> Holder, REL -> Expression, ARG1 -> Target; values copied."""
    return OrlRecord(
        sentence=record.sentence,
        treebanked_sentence=record.treebanked_sentence,
        holder=record.arg0,
        expression=record.predicate,
        target=record.arg1,
        provenance=record.provenance,
    )


@contextlib.contextmanager
def open_replacing(path, newline=None):
    """Open a temporary file beside `path` for writing UTF-8 text; it
    replaces `path` once the block ends, and is removed if the block
    raises, so `path` is never left half written."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def export_csv(records: list[SrlRecord], path, schema: str = "srl") -> None:
    """Write records as UTF-8 CSV with a header row and standard quoting;
    the ORL schema writes each record's `map_to_orl`."""
    if schema not in SCHEMAS:
        raise ValueError(f"unknown schema {schema!r}")
    header = SRL_HEADER if schema == "srl" else ORL_HEADER
    rows = records if schema == "srl" else map(map_to_orl, records)
    with open_replacing(path, newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(operator.attrgetter(*header), rows))


def extract_corpus(
    layout: CorpusLayout,
    trace_mode: TraceMode = TraceMode.TREE_GUIDED,
    strict: bool = False,
) -> ExtractResult:
    """Run discover -> parse -> resolve -> filter over a corpus, one file
    after another in file-id order.

    A file that fails to parse or align is skipped whole, a proposition
    that fails to resolve alone; each skip is logged, or raised as an
    ExtractionError under `strict`.
    """
    triples, discovery_skips = discover_files(layout)
    policy = TracePolicy(mode=trace_mode)
    summary = RunSummary(
        files_discovered=len(triples) + len(discovery_skips),
        files_skipped=len(discovery_skips),
        skip_log=list(discovery_skips),
    )
    records: list[SrlRecord] = []
    for triple in triples:
        try:
            props, sentences, trees, _ = read_file(triple)
            check_aligned(sentences, trees)
        except SrlKitError as exc:
            if strict:
                raise ExtractionError(f"{triple.file_id}: {exc}") from exc
            summary.skip_log.append((triple.file_id, str(exc)))
            summary.files_skipped += 1
            continue
        summary.files_processed += 1
        summary.propositions += len(props)
        for prop in sort_propositions(props):
            try:
                records.append(build_record(prop, trees, sentences, triple.file_id, policy))
            except SrlKitError as exc:
                if strict:
                    raise ExtractionError(
                        f"{triple.file_id} prop line {prop.line_no}: {exc}"
                    ) from exc
                summary.skip_log.append((triple.file_id, f"prop line {prop.line_no}: {exc}"))
                summary.propositions_failed += 1
    kept = filter_records(records)
    summary.rows_filtered = len(records) - len(kept)
    summary.rows_emitted = len(kept)
    return ExtractResult(records=kept, summary=summary)
