"""srlkit pipeline benchmark: seeded corpora, timed CLI runs, an
independent correctness oracle and a traced per-layer run.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 15 --trace 0

Run it from a source checkout (it needs `setup.py` and `src/srlkit`). It
builds the package in place, generates the workload's corpus from the
seed under `.bench_build/perfbench/`, measures for about `--seconds`
seconds, checks every output against the oracle, prints each metric with
its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
ones. See README.md beside this file for workloads and metrics.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calib
import corpus as corpusmod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"

# Sizes give 16-28 rounds per 55 s run on a 2-core machine; the README
# gives the reasoning.
SHAPES = {
    "dense": corpusmod.Shape(files=40, trees_per_file=40, min_terminals=5,
                             max_terminals=40, props_per_file=120),
    "sparse": corpusmod.Shape(files=250, trees_per_file=8, min_terminals=5,
                              max_terminals=60, props_per_file=2,
                              missing_files=5, bad_pointers=10),
}
POOL_JOBS = 2  # the traced run also times extract with this --jobs
MIN_ROUNDS = 3
SETUP_REPS = 1  # fresh-interpreter imports per round
STATS_REPS = 10  # stats calls per stats child; a single call is too short to time alone
SOFT_LIMIT_S = 140  # start no round past this; the whole run must end within 180 s
HARD_LIMIT_S = 175

CALIBRATED = ["extract_s", "validate_s", "stats_s", "setup_s"]  # see calib.py
END_TO_END = {  # name -> unit
    "extract_s": "s",
    "validate_s": "s",
    "stats_s": "s",
    "extract_peak_rss_mb": "MB",
    "setup_s": "s",
}
LAYER_SPANS = [
    "pipeline.discover",
    "pipeline.read",
    "propbank.parse_prop_file",
    "onf.parse_onf",
    "onf.parse_trees_file",
    "treebank.parse_tree",
    "propbank.sort_propositions",
    "pipeline.resolve_role",
    "pipeline.filter_records",
    "pipeline.export_csv",
    "stats.read_dataset_csv",
    "stats.lexicon_load",
    "stats.compute_stats",
    "stats.emit_report",
]
PER_LAYER = {f"{name}.s": "s" for name in LAYER_SPANS}
PER_LAYER.update({
    "pipeline.file.self_s": "s",
    "pipeline.read.mb": "MB",
    "propbank.parse_prop_file.propositions": "count",
    "propbank.parse_prop_file.pointers": "count",
    "propbank.parse_prop_file.us_per_prop": "us",
    "onf.parse_onf.sentences": "count",
    "treebank.parse_tree.trees": "count",
    "treebank.parse_tree.terminals": "count",
    "treebank.parse_tree.us_per_tree": "us",
    "pipeline.resolve_role.pointers": "count",
    "pipeline.resolve_role.us_per_pointer": "us",
    "pipeline.filter_records.rows_in": "count",
    "pipeline.export_csv.mb": "MB",
    "pipeline.file.p50_ms": "ms",
    "pipeline.file.p98_ms": "ms",
    "pipeline.pool.cpu_per_wall": "ratio",
    "pipeline.pool.speedup": "ratio",
    "trace_overhead_pct": "%",
    "error_rate": "ratio",
})


class BenchError(Exception):
    """The benchmark could not run: no source tree, a failed build or a crashed child."""


class Clock:
    """Time left in this run, so every child gets a timeout that ends before ours."""

    def __init__(self):
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def timeout(self) -> float:
        left = HARD_LIMIT_S - self.elapsed()
        if left <= 1:
            raise BenchError("out of time")
        return left


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _run(argv, clock, what):
    proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=clock.timeout())
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def _child(request, clock, expect_rc=0) -> dict:
    """Run child.py; a cli op must return expect_rc, as srlkit's own exit code."""
    proc = _run([sys.executable, str(HERE / "child.py"), json.dumps(request)], clock,
                f"child {request['op']}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if request["op"] == "cli" and expect_rc is not None and result["rc"] != expect_rc:
        raise BenchError(f"srlkit {request['argv'][0]} returned {result['rc']}")
    return result


def _setup_time(clock) -> float:
    t0 = time.perf_counter()
    _run([sys.executable, "-c", "import srlkit.cli"], clock, "import srlkit.cli")
    return time.perf_counter() - t0


def _build(clock):
    """Build in place as the README says; a no-op when no extension can be built."""
    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "srlkit" / "cli.py").is_file():
        raise BenchError(f"no srlkit source tree at {ROOT}")
    _run([sys.executable, "setup.py", "-q", "build_ext", "--inplace"], clock, "build")


# --- correctness -----------------------------------------------------------

def _skip_key(file_id: str, reason: str):
    """What a skip or violation is about, independent of its wording."""
    if "missing companion" in reason:
        return (file_id, "missing", 0)
    m = re.search(r"prop line (\d+)", reason)
    if m:
        return (file_id, "prop", int(m.group(1)))
    return (file_id, "other", reason)


def _multiset_errors(got, expected) -> int:
    """Wrong outcomes between two lists: a changed item counts once, a reorder per slot."""
    if got == expected:
        return 0
    a, b = Counter(got), Counter(expected)
    wrong = max(sum((a - b).values()), sum((b - a).values()))
    return wrong or sum(1 for x, y in zip(got, expected) if x != y)


def _extract_errors(csv_path: Path, corpus) -> int:
    with open(csv_path, encoding="utf-8", newline="") as handle:
        rows = [tuple(r) for r in csv.reader(handle)]
    header_wrong = int(not rows or rows[0] != corpusmod.SRL_HEADER)
    wrong = header_wrong + _multiset_errors(rows[1:], corpus.rows)
    skiplog = Path(str(csv_path) + ".skiplog")
    got = []
    if skiplog.exists():
        for line in skiplog.read_text(encoding="utf-8").splitlines():
            file_id, _, reason = line.partition("\t")
            got.append(_skip_key(file_id, reason))
    return wrong + _multiset_errors(sorted(got), sorted(corpus.skips))


def _validate_errors(result, corpus) -> int:
    got = []
    for line in result["stdout"].splitlines():
        fields = line.split("\t")
        if len(fields) == 3 and fields[0] != "file_id":
            got.append(_skip_key(fields[0], fields[2]))
    wrong = _multiset_errors(sorted(got), sorted(corpus.skips))
    expected_rc = 1 if corpus.skips else 0
    return wrong + int(result["rc"] != expected_rc)


def _stats_errors(stats_dir: Path, corpus) -> int:
    report = json.loads((stats_dir / "stats.json").read_text(encoding="utf-8"))
    presence = report["argument_presence"]
    got = {
        "total_records": report["total_records"],
        "presence": [presence["both"], presence["only_arg1"], presence["only_arg0"]],
        "top_predicates": [[p["predicate"], p["count"]] for p in report["top_predicates"]],
        "distinct_predicates": report["sentiment"]["distinct_predicates"],
        "class_counts_tokens": report["sentiment"]["class_counts_tokens"],
    }
    expected = corpusmod.expected_stats(corpus.rows, corpus.lexicon_valences)
    return sum(1 for key in expected if got[key] != expected[key])


# --- measurement -----------------------------------------------------------

def _clear(out: Path):
    """Remove a previous round's CSV and skip log, so a check never sees stale output."""
    for stale in (out, Path(str(out) + ".skiplog")):
        stale.unlink(missing_ok=True)


def _extract_request(corpus, out: Path, jobs: int) -> dict:
    _clear(out)
    return {"op": "cli", "argv": [
        "extract", "--prop", str(corpus.prop_root), "--onf", str(corpus.onf_root),
        "--parse", str(corpus.parse_root), "--out", str(out), "--jobs", str(jobs)]}


def _rounds(seconds, clock, one_round):
    """Call one_round until `seconds` have passed and MIN_ROUNDS are done."""
    start = time.perf_counter()
    rounds = 0
    while True:
        t0 = time.perf_counter()
        one_round(rounds)
        rounds += 1
        took = time.perf_counter() - t0
        if rounds >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
            return rounds
        if clock.elapsed() + took > SOFT_LIMIT_S:
            return rounds


def measure_end_to_end(corpus, run_dir, seconds, clock) -> dict:
    samples = {name: [] for name in END_TO_END}
    refs = []  # calib.reference() before every timed operation
    tally = Counter()
    out = run_dir / "dataset.csv"
    stats_dir = run_dir / "stats"
    validate = {"op": "cli", "argv": [
        "validate", "--prop", str(corpus.prop_root), "--onf", str(corpus.onf_root),
        "--parse", str(corpus.parse_root)]}
    stats = {"op": "cli", "reps": STATS_REPS, "argv": [
        "stats", "--csv", str(out), "--lexicon", str(corpus.lexicon), "--out", str(stats_dir)]}

    def timed_child(request, expect_rc=0):
        refs.append(calib.reference())
        return _child(request, clock, expect_rc)

    def one_round(index):
        for _ in range(SETUP_REPS):
            refs.append(calib.reference())
            samples["setup_s"].append(_setup_time(clock))
        result = timed_child(_extract_request(corpus, out, 1))
        samples["extract_s"].append(result["walls"][0])
        samples["extract_peak_rss_mb"].append(result["maxrss_kb"] / 1024)
        tally["attempted"] += corpus.propositions
        tally["wrong_outcomes"] += _extract_errors(out, corpus)
        result = timed_child(validate, expect_rc=None)  # checked by the oracle
        samples["validate_s"].append(result["walls"][0])
        tally["check_failures"] += _validate_errors(result, corpus)
        result = timed_child(stats)
        samples["stats_s"].extend(result["walls"])
        tally["check_failures"] += _stats_errors(stats_dir, corpus)

    rounds = _rounds(seconds, clock, one_round)
    metrics = {name: (calib.calibrated(values, refs) if name in CALIBRATED
                      else statistics.median(values)) for name, values in samples.items()}
    samples["reference_s"] = refs
    return {"metrics": metrics, "samples": samples, "rounds": rounds, "tally": tally}


def _layer_metrics(spans_path: Path, counts: dict, untraced: dict, pool: dict,
                   terminals: int) -> dict:
    """Self time per layer (span minus its children) plus counts and ratios."""
    spans = []
    with open(spans_path, encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            sid, name, start, end, parent, _file = line.rstrip("\n").split("\t")
            spans.append((int(sid), name, float(end) - float(start), int(parent)))
    covered = Counter()
    for _sid, _name, dur, parent in spans:
        covered[parent] += dur
    self_time = Counter()
    for sid, name, dur, _parent in spans:
        self_time[name] += dur - covered[sid]
    file_ms = sorted(dur * 1000 for _sid, name, dur, _p in spans if name == "pipeline.file")
    m = {f"{name}.s": self_time[name] for name in LAYER_SPANS}
    m["pipeline.file.self_s"] = self_time["pipeline.file"]
    m["pipeline.read.mb"] = counts.get("read_bytes", 0) / 1e6
    m["propbank.parse_prop_file.propositions"] = counts.get("propositions", 0)
    m["propbank.parse_prop_file.pointers"] = counts.get("prop_pointers", 0)
    m["propbank.parse_prop_file.us_per_prop"] = (
        1e6 * self_time["propbank.parse_prop_file"] / max(1, counts.get("propositions", 0)))
    m["onf.parse_onf.sentences"] = counts.get("sentences", 0)
    m["treebank.parse_tree.trees"] = counts.get("trees", 0)
    m["treebank.parse_tree.terminals"] = terminals  # from the generator; counting costs a tree walk
    m["treebank.parse_tree.us_per_tree"] = (
        1e6 * self_time["treebank.parse_tree"] / max(1, counts.get("trees", 0)))
    m["pipeline.resolve_role.pointers"] = counts.get("resolved_pointers", 0)
    m["pipeline.resolve_role.us_per_pointer"] = (
        1e6 * self_time["pipeline.resolve_role"] / max(1, counts.get("resolved_pointers", 0)))
    m["pipeline.filter_records.rows_in"] = counts.get("filter_rows_in", 0)
    m["pipeline.export_csv.mb"] = counts.get("export_bytes", 0) / 1e6
    m["pipeline.file.p50_ms"] = statistics.median(file_ms)
    m["pipeline.file.p98_ms"] = statistics.quantiles(file_ms, n=50)[-1]
    m["pipeline.pool.cpu_per_wall"] = pool["cpu_s"] / pool["walls"][0]
    m["pipeline.pool.speedup"] = untraced["walls"][0] / pool["walls"][0]
    return m


def measure_per_layer(corpus, run_dir, seconds, clock) -> dict:
    """Untraced extract with --jobs 1 and POOL_JOBS, then the traced run (sequential)."""
    samples = {}
    walls = {"untraced": [], "traced": []}
    tally = Counter()
    out = run_dir / "dataset.csv"
    pool_out = run_dir / f"dataset-jobs{POOL_JOBS}.csv"
    traced_out = run_dir / "dataset-traced.csv"
    spans_path = run_dir / "spans.tsv"

    def one_round(index):
        untraced = _child(_extract_request(corpus, out, 1), clock)
        tally["attempted"] += corpus.propositions
        tally["wrong_outcomes"] += _extract_errors(out, corpus)
        pool = _child(_extract_request(corpus, pool_out, POOL_JOBS), clock)
        # the pool must not change a byte of the sequential output
        tally["check_failures"] += int(pool_out.read_bytes() != out.read_bytes())
        _clear(traced_out)
        traced = _child({
            "op": "trace", "prop": str(corpus.prop_root), "onf": str(corpus.onf_root),
            "parse": str(corpus.parse_root), "out": str(traced_out),
            "lexicon": str(corpus.lexicon), "stats_out": str(run_dir / "stats-traced"),
            "spans": str(spans_path)}, clock)
        walls["untraced"].append(untraced["walls"][0])
        walls["traced"].append(traced["extract_wall"])
        tally["check_failures"] += int(traced_out.read_bytes() != out.read_bytes())
        tally["check_failures"] += int(_extract_errors(traced_out, corpus) != 0)
        tally["check_failures"] += _stats_errors(run_dir / "stats-traced", corpus)
        layer = _layer_metrics(spans_path, traced["counts"], untraced, pool, corpus.terminals)
        for name, value in layer.items():
            samples.setdefault(name, []).append(value)

    rounds = _rounds(seconds, clock, one_round)
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    untraced_wall = statistics.median(walls["untraced"])
    metrics["trace_overhead_pct"] = 100 * (statistics.median(walls["traced"]) / untraced_wall - 1)
    metrics["error_rate"] = tally["wrong_outcomes"] / tally["attempted"]
    return {"metrics": metrics, "samples": {**samples, **walls}, "rounds": rounds, "tally": tally}


# --- provenance and report -------------------------------------------------

def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "srlkit").glob("*.py")) + [ROOT / "setup.py"]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_sha():
    if not (ROOT / ".git").exists():  # not a clone; an enclosing repository is not ours
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args, corpus, backend) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": backend,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "corpus_sha256": corpus.sha256,
        "input": {
            "files": corpus.files,
            "trees": corpus.trees,
            "terminals": corpus.terminals,
            "propositions": corpus.propositions,
            "pointers": corpus.pointers,
            "bytes": corpus.bytes,
            "expected_rows": len(corpus.rows),
            "expected_skips": len(corpus.skips),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    clock = Clock()
    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        _build(clock)
        shutil.rmtree(run_dir, ignore_errors=True)
        t0 = time.perf_counter()
        corpus = corpusmod.generate(SHAPES[args.workload], args.seed, run_dir / "corpus")
        generate_s = time.perf_counter() - t0
        # also fills the bytecode cache, so setup_s never times a compile
        backend = _run([sys.executable, "-c", "import srlkit.cli; print(srlkit.backend())"],
                       clock, "backend probe").stdout.strip()
        measure = measure_per_layer if args.trace else measure_end_to_end
        result = measure(corpus, run_dir, args.seconds, clock)
        WORK.mkdir(parents=True, exist_ok=True)
        if args.trace:  # keep the last traced run's spans for inspection
            shutil.copyfile(run_dir / "spans.tsv", WORK / f"spans-{args.workload}.tsv")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    tally = result["tally"]
    failed = tally["wrong_outcomes"] + tally["check_failures"]
    record = {
        "provenance": provenance(args, corpus, backend),
        "generate_s": generate_s,
        "rounds": result["rounds"],
        "error_rate": tally["wrong_outcomes"] / tally["attempted"],
        "check_failures": tally["check_failures"],
        "metrics": result["metrics"],
        "samples": result["samples"],
    }
    with open(WORK / "BENCH_pipeline.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")

    p = record["provenance"]
    print(f"workload {args.workload} seed {args.seed} backend {backend} python {p['python']} "
          f"nproc {p['nproc']} git {p['git_sha'] or '-'} corpus {corpus.sha256[:16]}")
    print("input " + " ".join(f"{k}={v}" for k, v in p["input"].items())
          + f" generate_s={generate_s:.2f} rounds={result['rounds']}")
    print(f"error_rate {record['error_rate']:.6f} ratio "
          f"({tally['wrong_outcomes']} wrong of {tally['attempted']} propositions), "
          f"check failures {tally['check_failures']}")
    for name, unit in units.items():
        values = result["samples"].get(name, ())
        if not args.trace and name in CALIBRATED:
            how = (f" calibrated mean of {len(values)},"
                   f" plain median {statistics.median(values):.6f}")
        else:
            how = f" median of {len(values)}" if values else ""
        print(f"{name:<40} {result['metrics'][name]:>14.6f} {unit:<6}" + how)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally["attempted"],
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
