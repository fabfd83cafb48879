"""Traced mirror of `srlkit extract` followed by `srlkit stats`.

It repeats what `pipeline.extract_corpus` and `cli.cmd_stats` do, using
only srlkit's public functions, and records one span around each call
into a layer: (id, name, start, end, parent id, file number). Spans stay
in memory until the run ends and are then written out as TSV. The CSV it
writes must be byte-identical to the untraced `extract`; the caller
checks that, which keeps this mirror honest about the program. Files
are processed one after another, as `extract --jobs 1` does.

Span names are `<module>.<function>`, plus `pipeline.file` per corpus
file and `pipeline.run` / `stats.run` as roots.
"""

import itertools
import time
from collections import Counter
from pathlib import Path

from srlkit import stats as statsmod
from srlkit import treebank
from srlkit.cleaning import TraceMode, TracePolicy
from srlkit.errors import AlignmentError, SrlKitError
from srlkit.onf import parse_onf, parse_trees_file
from srlkit.pipeline import (
    CorpusLayout,
    Provenance,
    SrlRecord,
    discover_files,
    export_csv,
    filter_records,
    resolve_role,
)
from srlkit.propbank import RoleLabel, parse_prop_file, sort_propositions

NO_FILE = -1
NO_PARENT = -1


class Tracer:
    """In-memory spans, with ids from one counter."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()

    def begin(self):
        return next(self._ids), time.perf_counter()

    def end(self, span, name, parent, file_no) -> float:
        """Record the span; return its duration."""
        sid, start = span
        stop = time.perf_counter()
        self.spans.append((sid, name, start, stop, parent, file_no))
        return stop - start

    def call(self, name, parent, file_no, fn, *args):
        span = self.begin()
        try:
            return fn(*args)
        finally:
            self.end(span, name, parent, file_no)

    def write_tsv(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tstart\tend\tparent\tfile\n")
            for sid, name, start, end, parent, file_no in sorted(self.spans):
                handle.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{file_no}\n")


def _pointers(exprs) -> int:
    return sum(len(e.parts) for e in exprs)


def _file(tracer, run_id, file_no, triple, policy):
    """Mirror of pipeline._process_file; returns (records, skips, counts)."""
    span = tracer.begin()
    sid = span[0]
    counts = Counter()
    records, skips = [], []

    def call(name, fn, *args):
        return tracer.call(name, sid, file_no, fn, *args)

    def read(path):
        text = call("pipeline.read", path.read_text, "utf-8")
        counts["read_bytes"] += len(text.encode("utf-8"))
        return text

    try:
        try:
            props = call("propbank.parse_prop_file", parse_prop_file, read(triple.prop_path))
            sentences = call("onf.parse_onf", parse_onf, read(triple.onf_path))
            tree_texts = call("onf.parse_trees_file", parse_trees_file, read(triple.parse_path))
            trees = [call("treebank.parse_tree", treebank.parse_tree, t) for t in tree_texts]
            if len(trees) != len(sentences):
                raise AlignmentError(f"{len(sentences)} sentences but {len(trees)} trees")
        except SrlKitError as exc:
            skips.append((triple.file_id, str(exc)))
            return records, skips, counts
        counts["propositions"] += len(props)
        counts["prop_pointers"] += sum(_pointers(es) for p in props for es in p.roles.values())
        counts["sentences"] += len(sentences)
        counts["trees"] += len(trees)
        for prop in call("propbank.sort_propositions", sort_propositions, props):
            try:
                if prop.tree_index >= len(trees):
                    raise AlignmentError(
                        f"tree index {prop.tree_index} out of range ({len(trees)} trees)")
                tree = trees[prop.tree_index]
                pair = sentences[prop.tree_index]
                roles = []
                for label in (RoleLabel.REL, RoleLabel.ARG0, RoleLabel.ARG1):
                    exprs = prop.exprs(label)
                    counts["resolved_pointers"] += _pointers(exprs)
                    roles.append(call("pipeline.resolve_role", resolve_role, exprs, tree, policy))
            except SrlKitError as exc:
                skips.append((triple.file_id, f"prop line {prop.line_no}: {exc}"))
                continue
            predicate = roles[0]
            arg0 = roles[1].replace("|", "/")
            arg1 = roles[2].replace("|", "/")
            records.append(SrlRecord(
                sentence=pair.plain,
                treebanked_sentence=pair.treebanked,
                predicate=predicate,
                arg0=arg0,
                arg1=arg1,
                merged_arguments=f"{arg0}|{arg1}",
                provenance=Provenance(triple.file_id, prop.tree_index, prop.predicate_terminal),
            ))
        return records, skips, counts
    finally:
        tracer.end(span, "pipeline.file", run_id, file_no)


def _extract(tracer, request, counts):
    """Mirror of extract_corpus + export; returns the wall time of the run span."""
    span = tracer.begin()
    run_id = span[0]
    layout = CorpusLayout(Path(request["prop"]), Path(request["onf"]), Path(request["parse"]))
    triples, skip_log = tracer.call("pipeline.discover", run_id, NO_FILE, discover_files, layout)
    skip_log = list(skip_log)
    policy = TracePolicy(mode=TraceMode.TREE_GUIDED)
    outcomes = [_file(tracer, run_id, file_no, triple, policy)
                 for file_no, triple in enumerate(triples)]
    records = []
    for file_records, skips, file_counts in outcomes:
        skip_log.extend(skips)
        counts.update(file_counts)
        records.extend(file_records)
    counts["files"] = len(triples)
    counts["filter_rows_in"] = len(records)
    kept = tracer.call("pipeline.filter_records", run_id, NO_FILE, filter_records, records)
    out = Path(request["out"])
    tracer.call("pipeline.export_csv", run_id, NO_FILE, export_csv, kept, out, "srl")
    counts["export_bytes"] = out.stat().st_size
    counts["rows"] = len(kept)
    if skip_log:
        Path(str(out) + ".skiplog").write_text(
            "".join(f"{fid}\t{reason}\n" for fid, reason in skip_log), encoding="utf-8")
    return tracer.end(span, "pipeline.run", NO_PARENT, NO_FILE)


def _stats(tracer, request):
    """Mirror of cli.cmd_stats over the traced CSV."""
    span = tracer.begin()
    sid = span[0]

    def call(name, fn, *args):
        return tracer.call(name, sid, NO_FILE, fn, *args)

    records = call("stats.read_dataset_csv", statsmod.read_dataset_csv, request["out"])
    lexicon = call("stats.lexicon_load", statsmod.SentimentLexicon.load, request["lexicon"])
    bundle = call("stats.compute_stats", statsmod.compute_stats, records, lexicon)
    call("stats.emit_report", statsmod.emit_report, bundle, request["stats_out"])
    tracer.end(span, "stats.run", NO_PARENT, NO_FILE)


def run(request) -> dict:
    """request: prop, onf, parse, out, lexicon, stats_out, spans (paths).

    Writes the CSV (+ .skiplog), the stats report and the span TSV; returns
    the traced extract wall time and the layer counts."""
    tracer = Tracer()
    counts = Counter()
    extract_wall = _extract(tracer, request, counts)
    _stats(tracer, request)
    tracer.write_tsv(request["spans"])
    return {"extract_wall": extract_wall, "counts": dict(counts)}
