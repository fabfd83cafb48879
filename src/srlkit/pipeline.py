"""End-to-end extraction: corpus discovery, span resolution, record
building and filtering, ORL mapping, and CSV export.

A corpus is three parallel directory trees of `.prop`, `.onf`, and
`.parse` files laid out as `<root>/<NN>/<stem>.<ext>` with NN from 00
to 24. A file id is `<NN>/<stem>`, and names exactly one `.prop` file:
`<stem>.prop`, whose stem is not empty. Discovery, `discover_files`, is
the one way from a corpus to its files, for `inspect` too: it is driven
by the `.prop` files, and ids missing either companion file are skipped
and logged. Output rows are totally ordered by (file id, tree index,
predicate terminal, source line), so runs are byte-reproducible.
`extract`, `validate` and `inspect` read and check each file through one
walk, `read_corpus`, which yields a file's fault as a value. The kernel
then takes a whole file: `build_records` builds its rows and names each
failing proposition's first fault, which `extract` skips it on, and
`list_faults` lists every fault, which `validate` reports, in the same
order and words.
"""

import contextlib
import errno
import itertools
import operator
import os
from pathlib import Path
from typing import NamedTuple

from srlkit import treebank
from srlkit._backend import build_records, list_faults, resolve_exprs
from srlkit._nodes import ROLE_ORDER, Provenance, SrlRecord
from srlkit.cleaning import TraceMode, TracePolicy
from srlkit.errors import (
    AlignmentError,
    DecodeError,
    EmptyCorpus,
    ExtractionError,
    MissingRoot,
    SrlKitError,
)
from srlkit.onf import SentencePair, parse_onf, parse_trees_file
from srlkit.propbank import Proposition, RoleExpr, parse_prop_file

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
    "read_text",
    "read_lines",
    "read_file",
    "alignment_fault",
    "prop_fault",
    "read_corpus",
    "resolve_role",
    "build_records",
    "list_faults",
    "filter_records",
    "map_to_orl",
    "csv_lines",
    "export_csv",
    "extract_corpus",
    "check_replaceable",
    "open_replacing",
]

SCHEMAS = ("srl", "orl")
# the sentiment thresholds `stats` buckets by unless told otherwise; set
# here, where `cli` gives them as flag defaults without loading `stats`
DEFAULT_T1 = 0.05
DEFAULT_T2 = 0.5
FOLDERS = tuple(f"{n:02d}" for n in range(25))  # the corpus sections searched


class FileTriple(NamedTuple):
    file_id: str
    prop_path: Path
    onf_path: Path
    parse_path: Path


class CorpusLayout(NamedTuple):
    prop_root: Path
    onf_root: Path
    parse_root: Path
    exclusions: frozenset[str] = frozenset()


class OrlRecord(NamedTuple):
    sentence: str
    treebanked_sentence: str
    holder: str
    expression: str
    target: str
    provenance: Provenance | None = None


# a CSV row is a record's fields in order, its provenance left out
SRL_HEADER = [name for name in SrlRecord._fields if name != "provenance"]
ORL_HEADER = [name for name in OrlRecord._fields if name != "provenance"]


class RunSummary(NamedTuple):
    files_discovered: int
    files_processed: int
    files_skipped: int
    propositions: int
    propositions_failed: int
    rows_filtered: int
    rows_emitted: int
    skip_log: list[tuple[str, str]]


class ExtractResult(NamedTuple):
    records: list[SrlRecord]
    summary: RunSummary


def _file_names(folder: Path) -> set[str]:
    """The names of the files in `folder`, symlinks followed and a
    dangling one none; none if `folder` is missing or not a directory.
    Any other OSError, such as a folder that cannot be listed or an
    entry that is a symlink loop, is raised."""
    try:
        entries = os.scandir(folder)
    except (FileNotFoundError, NotADirectoryError):
        return set()
    with entries:
        return {entry.name for entry in entries if entry.is_file()}


def discover_files(layout: CorpusLayout) -> tuple[list[FileTriple], list[tuple[str, str]]]:
    """Aligned (prop, onf, parse) triples plus skip entries, in `.prop`
    file-name order; the only code that turns a corpus into triples.

    Each folder is listed once, by `_file_names`, and a companion is
    looked up by name in its folder's listing. A file in section NN's
    `.prop` folder named `<stem>.prop`, case-sensitively, with a
    non-empty stem (hidden ones included) is the id `NN/<stem>`, so each
    id names exactly one file; a file named `.prop` is none. An entry
    that is not a file, like a missing companion, is none. A section
    folder that exists but cannot be listed raises its OSError, as an
    unreadable corpus file does."""
    roots = (layout.prop_root, layout.onf_root, layout.parse_root)
    for root in roots:
        if not Path(root).is_dir():
            raise MissingRoot(f"corpus root is not a directory: {root}")
    triples: list[FileTriple] = []
    skips: list[tuple[str, str]] = []
    for folder in FOLDERS:
        prop_dir, onf_dir, parse_dir = (Path(root, folder) for root in roots)
        # by file name, not stem, which would change the row order:
        # "a-b.prop" sorts before "a.prop", but "a" before "a-b"
        names = sorted(
            name for name in _file_names(prop_dir) if name.endswith(".prop") and name != ".prop"
        )
        if not names:
            continue
        onf_names, parse_names = _file_names(onf_dir), _file_names(parse_dir)
        for name in names:
            stem = name[:-5]
            file_id = f"{folder}/{stem}"
            if file_id in layout.exclusions:
                skips.append((file_id, "excluded by configuration"))
                continue
            missing = [ext for ext, present in ((".onf", onf_names), (".parse", parse_names))
                       if stem + ext not in present]
            if missing:
                skips.append((file_id, f"missing companion file(s): {' '.join(missing)}"))
            else:
                triples.append(FileTriple(
                    file_id, prop_dir / name, onf_dir / f"{stem}.onf", parse_dir / f"{stem}.parse"
                ))
    if not triples:
        raise EmptyCorpus("no complete (.prop, .onf, .parse) triples found")
    return triples, skips


def read_text(path) -> str:
    """The text of a UTF-8 file, its line ends translated as `open` does:
    "\r\n" and "\r" become "\n". Every text input but the dataset CSV,
    which `stats` streams, is read through here, as one unbuffered read
    decoded once, so bytes that are not UTF-8 are a DecodeError, never a
    UnicodeDecodeError, and its offset counts from the start of the file;
    `stats` calls it for that error too."""
    with open(path, "rb", buffering=0) as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError(f"{path}: not UTF-8 at byte offset {exc.start} ({exc.reason})") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def read_lines(path):
    """(line number, stripped text) of each line of a side file that is
    neither blank nor a `#` comment; one leading byte-order mark (U+FEFF),
    which some editors write, is dropped. The file is read at the call."""
    lines = enumerate(read_text(path).removeprefix("\ufeff").splitlines(), start=1)
    return ((i, text) for i, line in lines if (text := line.strip()) and not text.startswith("#"))


def read_file(
    triple: FileTriple,
) -> tuple[list[Proposition], list[SentencePair], list[treebank.SpanTree]]:
    """Read and parse one file triple: its propositions, sentences and
    span trees. The tree texts are not kept; `inspect`, which lays one
    out, splits its `.parse` file again."""
    props = parse_prop_file(read_text(triple.prop_path))
    sentences = parse_onf(read_text(triple.onf_path))
    trees = list(map(treebank.parse_tree, parse_trees_file(read_text(triple.parse_path))))
    return props, sentences, trees


def alignment_fault(sentences: list[SentencePair], trees: list[treebank.SpanTree]) -> AlignmentError | None:
    """The file's AlignmentError, or None when it has one tree per sentence
    and each tree's tokens are its treebanked sentence's."""
    if len(trees) != len(sentences):
        return AlignmentError(f"{len(sentences)} sentences but {len(trees)} trees")
    for i, (pair, tree) in enumerate(zip(sentences, trees)):
        # tree tokens are non-empty and hold no ASCII whitespace, and " " is
        # the only printable whitespace, so a printable text equal to their
        # join splits back into exactly them; any other text takes the split
        text = pair.treebanked
        if " ".join(tree.tokens) == text and text.isprintable():
            continue
        if tree.tokens != tuple(text.split()):
            return AlignmentError(f"tree {i} leaves differ from its treebanked sentence")
    return None


def prop_fault(prop: Proposition, exc: Exception, where: str = "") -> str:
    """A proposition's fault as the skip log, the `--strict` error and
    `validate` word it: `prop line N[ <where>]: <error>`."""
    return f"prop line {prop.line_no}{' ' if where else ''}{where}: {exc}"


def read_corpus(triples: list[FileTriple]):
    """Read and check each triple in order, yielding (triple, parts, fault):
    `parts` is `read_file`'s result, or None when the file could not be
    read or parsed; `fault` is that read error, else the file's
    `alignment_fault`, else None."""
    for triple in triples:
        try:
            parts = read_file(triple)
        except SrlKitError as exc:
            yield triple, None, exc
        else:
            yield triple, parts, alignment_fault(parts[1], parts[2])


def resolve_role(
    expr_list: list[RoleExpr], tree: treebank.SpanTree, policy: TracePolicy | None = None
) -> str:
    """Resolve pointer expressions to cleaned surface text.

    Each pointer selects a subtree whose cleaned text becomes one part;
    parts that clean to "" are dropped and the survivors joined with
    single spaces, expressions in source order. With no policy, traces are
    dropped tree-guided. The backend's resolver does the work.
    """
    tree_guided = policy is None or policy.mode is TraceMode.TREE_GUIDED
    return resolve_exprs(expr_list, tree, tree_guided)


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


def check_replaceable(path) -> None:
    """Raise IsADirectoryError when `path` is a directory, which no file
    can replace (a symlink is replaced itself, not followed). A command
    with two outputs checks both before it replaces either, so a run
    that fails leaves both as they were."""
    if os.path.isdir(path) and not os.path.islink(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))


@contextlib.contextmanager
def open_replacing(path):
    """Open a temporary file beside `path`, named `path` + "." + the
    process id + ".tmp", for writing UTF-8 text with each "\n" written
    as it is, on every platform; it replaces `path` once
    the block ends, and is removed if the block raises, so `path` is
    never left half written. A `path` that is a directory raises
    IsADirectoryError (`check_replaceable`) before anything is created."""
    check_replaceable(path)
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    # mode "x" fails on a file already there, so the cleanup below can
    # only remove a file this run created
    handle = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


CSV_BATCH_ROWS = 32  # rows formatted per write, so memory does not grow with the output


def csv_lines(rows) -> str:
    """Rows of strings as CSV text: fields joined with "," and each row
    ended by "\n". A field holding ",", '"', CR or LF is quoted, each '"'
    in it doubled (RFC 4180 minimal quoting); every other character,
    NUL included, is written as it is."""
    lines = []
    for row in rows:
        lines.append(",".join([
            '"' + value.replace('"', '""') + '"'
            if "," in value or '"' in value or "\n" in value or "\r" in value
            else value
            for value in row
        ]))
        lines.append("\n")
    return "".join(lines)


def export_csv(records: list[SrlRecord], path, schema: str = "srl") -> None:
    """Write records as UTF-8 CSV with a header row, in `csv_lines`'
    quoting; the ORL schema writes each record's `map_to_orl`."""
    if schema not in SCHEMAS:
        raise ValueError(f"unknown schema {schema!r}")
    header = SRL_HEADER if schema == "srl" else ORL_HEADER
    rows = records if schema == "srl" else map(map_to_orl, records)
    rows = map(operator.attrgetter(*header), rows)
    with open_replacing(path) as handle:
        handle.write(csv_lines([header]))
        while batch := csv_lines(itertools.islice(rows, CSV_BATCH_ROWS)):
            handle.write(batch)


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
    triples, skip_log = discover_files(layout)
    tree_guided = trace_mode is TraceMode.TREE_GUIDED
    files_discovered = len(triples) + len(skip_log)
    files_processed = propositions = propositions_failed = 0
    records: list[SrlRecord] = []
    for triple, parts, fault in read_corpus(triples):
        if fault is not None:
            if strict:
                raise ExtractionError(f"{triple.file_id}: {fault}") from fault
            skip_log.append((triple.file_id, str(fault)))
            continue
        props, sentences, trees = parts
        files_processed += 1
        propositions += len(props)
        built, failures = build_records(props, trees, sentences, triple.file_id, tree_guided)
        if failures and strict:
            prop, exc = failures[0]
            raise ExtractionError(f"{triple.file_id} {prop_fault(prop, exc)}") from exc
        skip_log.extend((triple.file_id, prop_fault(prop, exc)) for prop, exc in failures)
        propositions_failed += len(failures)
        records.extend(built)
    kept = filter_records(records)
    summary = RunSummary(
        files_discovered, files_processed, files_discovered - files_processed,
        propositions, propositions_failed, len(records) - len(kept), len(kept), skip_log,
    )
    return ExtractResult(records=kept, summary=summary)
