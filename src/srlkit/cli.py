"""Command-line entry point.

Subcommands:
  extract   run the full pipeline and write dataset.csv (+ skip log)
  stats     compute dataset statistics from an exported CSV
  validate  check sentence/tree/pointer alignment across a corpus
  inspect   show one tree with terminals, sentences, and resolved spans

Flag values override config-file values; every domain error exits nonzero
after writing one `error: <Type>: <detail>` line to stderr.
"""

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from srlkit import stats as statsmod
from srlkit import treebank
from srlkit.cleaning import TraceMode
from srlkit.errors import (
    ConfigError,
    IndexOutOfRange,
    SrlKitError,
    UnknownFile,
)
from srlkit.pipeline import (
    ROLE_ORDER,
    SCHEMAS,
    CorpusLayout,
    alignment_fault,
    discover_files,
    export_csv,
    extract_corpus,
    open_replacing,
    proposition_faults,
    read_corpus,
    read_file,
    resolve_role,
)
from srlkit.propbank import sort_propositions

__all__ = ["main", "RunConfig"]

TRACE_MODES = tuple(mode.value for mode in TraceMode)
# a config file's boolean spellings, matched in any case
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


@dataclass
class RunConfig:
    prop: Path
    onf: Path
    parse: Path
    out: Path
    schema: str
    trace_mode: str
    strict: bool
    exclude: Path | None
    lexicon: Path | None
    t1: float
    t2: float


def _error_line(exc: SrlKitError) -> str:
    return f"error: {type(exc).__name__}: {exc}"


def _load_config(path) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {i}: expected key = value, got {line!r}")
        values[key.strip()] = value.strip()
    return values


def _setting(args, config: dict[str, str], key: str, default, cast=str, choices=None):
    """A flag's value, else the config file's, else `default`. A config
    value that `cast` rejects, or that is not among `choices`, is a
    ConfigError; argparse checks the flags."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in config:
        raw = config[key]
        try:
            value = _BOOLEANS[raw.lower()] if cast is bool else cast(raw)
            if choices is not None and value not in choices:
                raise ValueError(raw)
            return value
        except (KeyError, ValueError):
            raise ConfigError(f"bad value for {key}: {raw!r}") from None
    return default


def _read_exclusions(path) -> frozenset[str]:
    ids = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            ids.add(line)
    return frozenset(ids)


def _layout(config: RunConfig) -> CorpusLayout:
    exclusions = _read_exclusions(config.exclude) if config.exclude else frozenset()
    return CorpusLayout(
        prop_root=Path(config.prop),
        onf_root=Path(config.onf),
        parse_root=Path(config.parse),
        exclusions=exclusions,
    )


def cmd_extract(config: RunConfig) -> int:
    layout = _layout(config)
    result = extract_corpus(
        layout,
        trace_mode=TraceMode(config.trace_mode),
        strict=config.strict,
    )
    export_csv(result.records, config.out, schema=config.schema)
    summary = result.summary
    # a skip log exists exactly when this run skipped something; one left
    # by an earlier run would describe a different dataset
    skip_path = Path(str(config.out) + ".skiplog")
    if summary.skip_log:
        with open_replacing(skip_path) as handle:
            handle.write("".join(f"{fid}\t{reason}\n" for fid, reason in summary.skip_log))
        print(f"skip log: {skip_path} ({len(summary.skip_log)} entries)")
    else:
        skip_path.unlink(missing_ok=True)
    for f in fields(summary):
        if f.name != "skip_log":
            print(f"{f.name.replace('_', ' ') + ':':<21}{getattr(summary, f.name)}")
    print(f"wrote {config.out} ({config.schema} schema)")
    return 0


def cmd_stats(config: RunConfig, csv_path) -> int:
    records = statsmod.read_dataset_csv(csv_path)
    lexicon = statsmod.SentimentLexicon.load(config.lexicon) if config.lexicon else None
    bundle = statsmod.compute_stats(records, lexicon=lexicon, t1=config.t1, t2=config.t2)
    json_path, txt_path = statsmod.emit_report(bundle, config.out)
    b = bundle.breakdown
    print(
        f"breakdown: {b.both_pct}/{b.only_arg1_pct}/{b.only_arg0_pct} "
        "(both/only_arg1/only_arg0)"
    )
    print(f"rows: {bundle.total_records}")
    print(f"wrote {json_path} and {txt_path}")
    return 0


def cmd_validate(config: RunConfig) -> int:
    layout = _layout(config)
    triples, skips = discover_files(layout)
    violations: list[tuple[str, str, str]] = [(file_id, "-", reason) for file_id, reason in skips]
    for triple, parts, fault in read_corpus(triples):
        if parts is None:
            violations.append((triple.file_id, "-", f"unparseable file: {fault}"))
            continue
        if fault is not None:
            violations.append((triple.file_id, "-", str(fault)))
        props, _, trees, _ = parts
        for prop in props:
            for where, exc in proposition_faults(prop, trees):
                at = f"prop line {prop.line_no} {where}".rstrip()
                violations.append((triple.file_id, str(prop.tree_index), f"{at}: {exc}"))
    if violations:
        print("file_id\ttree\tdetail")
        for file_id, tree_no, detail in violations:
            print(f"{file_id}\t{tree_no}\t{detail}")
    print(f"{len(violations)} violations")
    return 0 if not violations else 1


def cmd_inspect(config: RunConfig, file_id: str, tree_index: int) -> int:
    triple = _layout(config).triple(file_id)
    for path in (triple.prop_path, triple.onf_path, triple.parse_path):
        if not path.is_file():
            raise UnknownFile(f"no such corpus file: {path}")
    props, sentences, trees, tree_texts = read_file(triple)
    if tree_index >= len(trees) or tree_index < 0:
        raise IndexOutOfRange(
            f"tree index {tree_index} out of range ({len(trees)} trees in {file_id})"
        )
    tree = trees[tree_index]
    print(f"file: {file_id}  tree: {tree_index}")
    print()
    print(treebank.pretty(tree_texts[tree_index]))
    print()
    print("terminals:")
    for i, (token, pos) in enumerate(zip(tree.tokens, tree.pos)):
        print(f"  {i:>3}  {pos:<8} {token}")
    print()
    if tree_index < len(sentences):
        print(f"plain:      {sentences[tree_index].plain}")
        print(f"treebanked: {sentences[tree_index].treebanked}")
    # what extract skips is shown where it applies: this file, a
    # proposition's indices, a pointer
    fault = alignment_fault(sentences, trees)
    if fault is not None:
        print(_error_line(fault))
    print()
    ordered = sort_propositions(props)
    selected = [p for p in ordered if p.tree_index == tree_index]
    print(f"propositions for tree {tree_index}: {len(selected)}")
    for prop in selected:
        print(f"  line {prop.line_no}: {prop.raw_line}")
        for where, exc in proposition_faults(prop, trees):
            if not where:
                print(f"    {_error_line(exc)}")
        for label in ROLE_ORDER:
            exprs = prop.exprs(label)
            if exprs:
                try:
                    spans = repr(resolve_role(exprs, tree))
                except SrlKitError as exc:  # shown in place; the rest still lists
                    spans = _error_line(exc)
                pointers = " ".join(e.text for e in exprs)
                print(f"    {label.value:<5} {pointers:<20} -> {spans}")
    # no tree shows these, so every tree's listing ends with them
    unplaced = [p for p in ordered if p.tree_index >= len(trees)]
    if unplaced:
        print()
        print(f"propositions with no tree: {len(unplaced)}")
        for prop in unplaced:
            print(f"  line {prop.line_no}: {prop.raw_line}")
            for _, exc in proposition_faults(prop, trees):
                print(f"    {_error_line(exc)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srlkit",
        description="Extract predicate-argument spans from a PropBank/OntoNotes-style corpus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_layout_flags(p, required=True):
        p.add_argument("--prop", help="root directory of .prop files", required=required)
        p.add_argument("--onf", help="root directory of .onf files", required=required)
        p.add_argument("--parse", help="root directory of .parse files", required=required)

    p_extract = sub.add_parser("extract", help="run the extraction pipeline")
    add_layout_flags(p_extract, required=False)
    p_extract.add_argument("--exclude", help="file of corpus ids to skip, one per line")
    p_extract.add_argument("--schema", choices=SCHEMAS, default=None)
    p_extract.add_argument("--trace-mode", choices=TRACE_MODES, default=None)
    p_extract.add_argument("--strict", action="store_true", default=None)
    p_extract.add_argument("--out", default=None, help="output CSV path (default dataset.csv)")
    p_extract.add_argument(
        "--jobs", type=int, default=None, help="accepted and ignored: extraction runs sequentially"
    )
    p_extract.add_argument("--config", default=None, help="key = value config file; flags win")

    p_stats = sub.add_parser("stats", help="compute statistics from a dataset CSV")
    p_stats.add_argument("--csv", required=True, help="dataset.csv produced by extract")
    p_stats.add_argument("--lexicon", default=None, help="token<TAB>valence sentiment lexicon")
    p_stats.add_argument("--t1", type=float, default=None, help="neutral threshold (default 0.05)")
    p_stats.add_argument("--t2", type=float, default=None, help="strong threshold (default 0.5)")
    p_stats.add_argument("--out", default=None, help="report directory (default .)")
    p_stats.add_argument("--config", default=None)

    p_validate = sub.add_parser("validate", help="check corpus alignment and pointers")
    add_layout_flags(p_validate)

    p_inspect = sub.add_parser("inspect", help="show one tree and its propositions")
    add_layout_flags(p_inspect)
    p_inspect.add_argument("--file", required=True, help="corpus file id, e.g. 00/wsj_0001")
    p_inspect.add_argument("--tree", required=True, type=int, help="tree index within the file")

    return parser


def _config_from_args(args) -> RunConfig:
    file_values = _load_config(args.config) if getattr(args, "config", None) else {}
    prop = _setting(args, file_values, "prop", None)
    onf = _setting(args, file_values, "onf", None)
    parse = _setting(args, file_values, "parse", None)
    if args.command in ("extract", "validate", "inspect"):
        missing = [name for name, val in (("--prop", prop), ("--onf", onf), ("--parse", parse)) if not val]
        if missing:
            raise ConfigError(f"missing required corpus roots: {' '.join(missing)}")
    out_default = "." if args.command == "stats" else "dataset.csv"  # report directory, CSV path
    return RunConfig(
        prop=Path(prop) if prop else Path("."),
        onf=Path(onf) if onf else Path("."),
        parse=Path(parse) if parse else Path("."),
        out=Path(_setting(args, file_values, "out", out_default)),
        schema=_setting(args, file_values, "schema", "srl", choices=SCHEMAS),
        trace_mode=_setting(args, file_values, "trace-mode", "tree", choices=TRACE_MODES),
        strict=bool(_setting(args, file_values, "strict", False, cast=bool)),
        exclude=_setting(args, file_values, "exclude", None),
        lexicon=_setting(args, file_values, "lexicon", None),
        t1=float(_setting(args, file_values, "t1", statsmod.DEFAULT_T1, cast=float)),
        t2=float(_setting(args, file_values, "t2", statsmod.DEFAULT_T2, cast=float)),
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "extract":
            return cmd_extract(config)
        if args.command == "stats":
            return cmd_stats(config, args.csv)
        if args.command == "validate":
            return cmd_validate(config)
        if args.command == "inspect":
            return cmd_inspect(config, args.file, args.tree)
    except SrlKitError as exc:
        print(_error_line(exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: IoError: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
