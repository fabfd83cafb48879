"""Command-line entry point.

Subcommands:
  extract   run the full pipeline and write dataset.csv (+ skip log)
  stats     compute dataset statistics from an exported CSV
  validate  check sentence/tree/pointer alignment across a corpus
  inspect   show one tree with terminals, sentences, and resolved spans

Flag values override config-file values; every domain error exits nonzero
after writing one `error: <Type>: <detail>` line to stderr.
Each command runs with the cyclic garbage collector paused, and `main`
restores the caller's collector state when it returns or raises; library
calls keep Python's defaults.
"""

import argparse
import contextlib
import gc
import sys
from pathlib import Path

from srlkit import onf, treebank
from srlkit.cleaning import TraceMode
from srlkit.errors import (
    ConfigError,
    IndexOutOfRange,
    SrlKitError,
    UnknownFile,
)
from srlkit.pipeline import (
    DEFAULT_T1,
    DEFAULT_T2,
    ROLE_ORDER,
    SCHEMAS,
    CorpusLayout,
    check_replaceable,
    discover_files,
    extract_files,
    list_faults,
    open_csv,
    open_replacing,
    prop_fault,
    read_corpus,
    read_lines,
    read_text,
    resolve_role,
)
from srlkit.propbank import sort_propositions

__all__ = ["main"]

TRACE_MODES = tuple(mode.value for mode in TraceMode)
# a config file's boolean spellings, matched in any case
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}
# a config key -> (cast, choices): how its value becomes the flag's; a
# value that `cast` rejects or that is not among `choices` is a ConfigError
_CONFIG_KEYS = {
    "prop": (str, None), "onf": (str, None), "parse": (str, None),
    "out": (Path, None), "schema": (str, SCHEMAS), "trace-mode": (str, TRACE_MODES),
    "strict": (lambda raw: _BOOLEANS[raw.lower()], None),
    "exclude": (str, None), "lexicon": (str, None), "t1": (float, None), "t2": (float, None),
}


def _error_line(exc: SrlKitError) -> str:
    return f"error: {type(exc).__name__}: {exc}"


def _load_config(path) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        lines = read_lines(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    for i, line in lines:
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {i}: expected key = value, got {line!r}")
        values[key.strip()] = value.strip()
    return values


def _config_defaults(path) -> dict:
    """The config file's known keys, each cast and checked, keyed by the
    flag's dest; unknown keys are ignored."""
    defaults = {}
    for key, raw in _load_config(path).items():
        if key not in _CONFIG_KEYS:
            continue
        cast, choices = _CONFIG_KEYS[key]
        try:
            value = cast(raw)
            # no path and no choice can hold a NUL
            if "\0" in raw or choices is not None and value not in choices:
                raise ValueError(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"bad value for {key}: {raw!r}") from None
        defaults[key.replace("-", "_")] = value
    return defaults


def _layout(args, exclude=None) -> CorpusLayout:
    missing = [f"--{name}" for name in ("prop", "onf", "parse") if not getattr(args, name)]
    if missing:
        raise ConfigError(f"missing required corpus roots: {' '.join(missing)}")
    return CorpusLayout(
        prop_root=Path(args.prop),
        onf_root=Path(args.onf),
        parse_root=Path(args.parse),
        exclusions=frozenset(line for _, line in read_lines(exclude)) if exclude else frozenset(),
    )


def cmd_extract(args) -> int:
    triples, skips = discover_files(_layout(args, args.exclude))
    # a skip log exists exactly when this run skipped something; one left
    # by an earlier run would describe a different dataset. Both outputs
    # are checked before the corpus is read, each file's rows go to the
    # CSV's temporary file before the next file is read, and the skip log
    # is written before the CSV is renamed and renamed after it, so a run
    # that fails changes neither
    skip_path = Path(str(args.out) + ".skiplog")
    check_replaceable(skip_path)
    with contextlib.ExitStack() as renamed_last:
        with open_csv(args.out, args.schema) as write:
            summary = extract_files(
                triples, skips, write, TraceMode(args.trace_mode), args.strict
            )
            if summary.skip_log:
                handle = renamed_last.enter_context(open_replacing(skip_path))
                handle.write("".join(f"{fid}\t{reason}\n" for fid, reason in summary.skip_log))
    if summary.skip_log:
        print(f"skip log: {skip_path} ({len(summary.skip_log)} entries)")
    else:
        skip_path.unlink(missing_ok=True)
    for name, value in zip(summary._fields, summary):
        if name != "skip_log":
            print(f"{name.replace('_', ' ') + ':':<21}{value}")
    print(f"wrote {args.out} ({args.schema} schema)")
    return 0


def cmd_stats(args) -> int:
    from srlkit import stats as statsmod  # here, so the other commands never load it

    # the lexicon first, so its faults are met before the dataset's read
    lexicon = statsmod.SentimentLexicon.load(args.lexicon) if args.lexicon else None
    records = statsmod.iter_dataset_csv(args.csv)
    bundle = statsmod.compute_stats(records, lexicon=lexicon, t1=args.t1, t2=args.t2)
    json_path, txt_path = statsmod.emit_report(bundle, args.out)
    b = bundle.breakdown
    print(
        f"breakdown: {b.both_pct}/{b.only_arg1_pct}/{b.only_arg0_pct} "
        "(both/only_arg1/only_arg0)"
    )
    print(f"rows: {bundle.total_records}")
    print(f"wrote {json_path} and {txt_path}")
    return 0


def cmd_validate(args) -> int:
    triples, skips = discover_files(_layout(args))
    violations: list[tuple[str, str, str]] = [(file_id, "-", reason) for file_id, reason in skips]
    for triple, parts, fault in read_corpus(triples):
        if parts is None:
            violations.append((triple.file_id, "-", f"unparseable file: {fault}"))
            continue
        if fault is not None:
            violations.append((triple.file_id, "-", str(fault)))
        props, _, trees = parts
        for prop, where, exc in list_faults(props, trees):
            violations.append((triple.file_id, str(prop.tree_index), prop_fault(prop, exc, where)))
    if violations:
        print("file_id\ttree\tdetail")
        for file_id, tree_no, detail in violations:
            print(f"{file_id}\t{tree_no}\t{detail}")
    print(f"{len(violations)} violations")
    return 0 if not violations else 1


def cmd_inspect(args) -> int:
    file_id, tree_index = args.file, args.tree
    triples, skips = discover_files(_layout(args))
    triple = next((t for t in triples if t.file_id == file_id), None)
    if triple is None:
        reason = dict(skips).get(file_id, "no such corpus file")
        raise UnknownFile(f"{file_id}: {reason}")
    [(_, parts, fault)] = read_corpus([triple])
    if parts is None:
        raise fault
    props, sentences, trees = parts
    if tree_index >= len(trees) or tree_index < 0:
        raise IndexOutOfRange(
            f"tree index {tree_index} out of range ({len(trees)} trees in {file_id})"
        )
    tree = trees[tree_index]
    print(f"file: {file_id}  tree: {tree_index}")
    print()
    print(treebank.pretty(onf.parse_trees_file(read_text(triple.parse_path))[tree_index]))
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
    if fault is not None:
        print(_error_line(fault))
    print()
    ordered = sort_propositions(props)
    selected = [p for p in ordered if p.tree_index == tree_index]
    print(f"propositions for tree {tree_index}: {len(selected)}")
    for prop in selected:
        print(f"  line {prop.line_no}: {prop.raw_line}")
        for _, where, exc in list_faults([prop], trees):
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
            for _, _, exc in list_faults([prop], trees):
                print(f"    {_error_line(exc)}")
    return 0


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and, by name, the subcommand parsers a config file's
    values go to."""
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
    p_extract.set_defaults(handler=cmd_extract)
    add_layout_flags(p_extract, required=False)
    p_extract.add_argument("--exclude", help="file of corpus ids to skip, one per line")
    p_extract.add_argument("--schema", choices=SCHEMAS, default="srl",
                           help="output schema (default %(default)s)")
    p_extract.add_argument("--trace-mode", choices=TRACE_MODES, default="tree",
                           help="how traces are dropped (default %(default)s)")
    p_extract.add_argument("--strict", action="store_true",
                           help="fail on a bad file or proposition instead of skipping it")
    # a Path, so the path printed is normalised (./x.csv as x.csv)
    p_extract.add_argument("--out", type=Path, default="dataset.csv",
                           help="output CSV path (default %(default)s)")
    p_extract.add_argument("--jobs", type=int, default=1,
                           help="accepted and ignored: extraction runs sequentially")
    p_extract.add_argument("--config", help="key = value config file; flags win")

    p_stats = sub.add_parser("stats", help="compute statistics from a dataset CSV")
    p_stats.set_defaults(handler=cmd_stats)
    p_stats.add_argument("--csv", required=True, help="dataset.csv produced by extract")
    p_stats.add_argument("--lexicon", help="token<TAB>valence sentiment lexicon")
    p_stats.add_argument("--t1", type=float, default=DEFAULT_T1,
                         help="neutral threshold (default %(default)s)")
    p_stats.add_argument("--t2", type=float, default=DEFAULT_T2,
                         help="strong threshold (default %(default)s)")
    p_stats.add_argument("--out", type=Path, default=".",
                         help="report directory (default %(default)s)")
    p_stats.add_argument("--config", help="key = value config file; flags win")

    p_validate = sub.add_parser("validate", help="check corpus alignment and pointers")
    p_validate.set_defaults(handler=cmd_validate)
    add_layout_flags(p_validate)

    p_inspect = sub.add_parser("inspect", help="show one tree and its propositions")
    p_inspect.set_defaults(handler=cmd_inspect)
    add_layout_flags(p_inspect)
    p_inspect.add_argument("--file", required=True, help="corpus file id, e.g. 00/wsj_0001")
    p_inspect.add_argument("--tree", required=True, type=int, help="tree index within the file")

    return parser, sub.choices


def main(argv=None) -> int:
    # the walks free everything by reference count (the no-cycles tests
    # hold them to it), so the collector's passes over the rows a command
    # keeps would find nothing; the few cycles argparse leaves wait for
    # the caller's collector
    collecting = gc.isenabled()
    gc.disable()
    try:
        parser, commands = _build_parser()
        args = parser.parse_args(argv)
        # a subcommand parser writes its own defaults over a namespace it
        # is given, so the config file's values become its defaults and
        # the flags are parsed again over them
        if getattr(args, "config", None):
            commands[args.command].set_defaults(**_config_defaults(args.config))
            args = parser.parse_args(argv)
        return args.handler(args)
    except SrlKitError as exc:
        print(_error_line(exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: IoError: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
