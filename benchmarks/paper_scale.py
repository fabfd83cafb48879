#!/usr/bin/env python3
"""The paper-scale run: `extract`, `validate` and `stats --lexicon` on a
generated corpus of about the paper's size, checked against the
generator's oracle, with each command's peak memory bounded.

Usage: python benchmarks/paper_scale.py

The corpus is perfbench's seeded generator (perfbench/corpus.py,
imported as it is) at SEED: 2,300 files of 16 trees and 48 propositions
each, whose oracle expects 100,349 rows (the paper reports 97,169
instances), about 125 MB, written
to a temporary folder that is removed at the end. It uses the srlkit of
this checkout's src/, with the compiled kernel if one is built there.

Each command runs in a fresh child interpreter, which reads its own peak
resident set (VmHWM) after its imports and again after `cli.main`
returns. The growth between the two is what the command itself took;
the interpreter and the imports differ between Python versions, so the
absolute peak is not gated. The script checks that
- the CSV's rows equal the oracle's, in order, and the skip log's and
  validate's skips equal the oracle's skips, as perfbench/run.py keys
  them;
- the parts of stats.json that `corpus.expected_stats` computes match;
- each command's growth stays under MAX_GROWTH_MB.
Wall times are printed, not gated. It exits 1 when a check fails.
"""

import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
# twice the largest growth measured, 4.2 MB (validate, pure kernel;
# Python 3.11, x86-64 Linux); the commands once grew with the corpus
MAX_GROWTH_MB = 8.0

# a fresh interpreter: imports, VmHWM, cli.main(argv), VmHWM again
CHILD = r"""
import contextlib, io, json, sys, time
import csv, srlkit, srlkit.cli, srlkit.stats

def hwm_kb():
    with open("/proc/self/status", encoding="ascii") as handle:
        return next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))

before = hwm_kb()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    t0 = time.perf_counter()
    rc = srlkit.cli.main(sys.argv[1:])
    wall = time.perf_counter() - t0
print(json.dumps({"rc": rc, "stdout": out.getvalue(), "wall_s": wall, "backend": srlkit.backend(),
                  "import_kb": before, "peak_kb": hwm_kb()}))
"""


def load_generator():
    spec = importlib.util.spec_from_file_location("perfbench_corpus", ROOT / "perfbench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_child(argv) -> dict:
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def skip_key(file_id, reason):
    """A skip as perfbench/run.py keys it, independent of its wording."""
    if "missing companion" in reason:
        return (file_id, "missing", 0)
    match = re.search(r"prop line (\d+)", reason)
    return (file_id, "prop", int(match.group(1))) if match else (file_id, "other", reason)


def csv_faults(csv_path, header, expected) -> list[str]:
    """What differs between the CSV and the oracle's header and rows, read
    a row at a time."""
    with open(csv_path, encoding="utf-8", newline="") as handle:
        rows = csv.reader(handle)
        if tuple(next(rows, ())) != header:
            return ["the CSV's header is wrong"]
        count = 0
        for count, (row, want) in enumerate(zip(rows, expected), start=1):
            if tuple(row) != want:
                return [f"CSV row {count} differs from the oracle's"]
        count += sum(1 for _ in rows)
    return [] if count == len(expected) else [f"{count} CSV rows, the oracle's {len(expected)}"]


def main() -> int:
    generator = load_generator()
    shape = generator.Shape(files=2300, trees_per_file=16, min_terminals=5, max_terminals=50,
                            props_per_file=48)
    faults = []
    with tempfile.TemporaryDirectory(prefix="srlkit-paper-scale-") as tmp:
        tmp = Path(tmp)
        t0 = time.perf_counter()
        corpus = generator.generate(shape, SEED, tmp / "corpus")
        print(f"generated {corpus.files} files, {corpus.bytes / 1e6:.1f} MB, "
              f"{len(corpus.rows)} oracle rows in {time.perf_counter() - t0:.1f} s")
        roots = ["--prop", str(corpus.prop_root), "--onf", str(corpus.onf_root),
                 "--parse", str(corpus.parse_root)]
        csv_path, stats_dir = tmp / "dataset.csv", tmp / "stats"
        expected_skips = sorted(corpus.skips)
        commands = {
            "extract": ["extract", *roots, "--out", str(csv_path)],
            "validate": ["validate", *roots],
            "stats": ["stats", "--csv", str(csv_path), "--lexicon", str(corpus.lexicon),
                      "--out", str(stats_dir)],
        }
        for name, argv in commands.items():
            result = run_child(argv)
            growth = (result["peak_kb"] - result["import_kb"]) / 1024
            print(f"{name:<9} {result['backend']} kernel: wall {result['wall_s']:.2f} s, "
                  f"peak RSS {result['peak_kb'] / 1024:.1f} MB, "
                  f"{growth:.1f} MB above {result['import_kb'] / 1024:.1f} MB after imports")
            if growth >= MAX_GROWTH_MB:
                faults.append(f"{name} grew {growth:.1f} MB, the bound is {MAX_GROWTH_MB} MB")
            if name == "validate":
                if result["rc"] != (1 if expected_skips else 0):
                    faults.append(f"validate exited {result['rc']}")
                lines = [line.split("\t") for line in result["stdout"].splitlines()[1:-1]]
                if sorted(skip_key(fid, detail) for fid, _, detail in lines) != expected_skips:
                    faults.append("validate's violations differ from the oracle's skips")
            elif result["rc"] != 0:
                faults.append(f"{name} exited {result['rc']}")
            elif name == "extract":
                faults += csv_faults(csv_path, generator.SRL_HEADER, corpus.rows)
                log = Path(f"{csv_path}.skiplog")
                lines = log.read_text(encoding="utf-8").splitlines() if log.exists() else []
                if sorted(skip_key(*line.split("\t", 1)) for line in lines) != expected_skips:
                    faults.append("the skip log differs from the oracle's skips")
            else:
                report = json.loads((stats_dir / "stats.json").read_text(encoding="utf-8"))
                presence, sentiment = report["argument_presence"], report["sentiment"]
                got = {
                    "total_records": report["total_records"],
                    "presence": [presence["both"], presence["only_arg1"], presence["only_arg0"]],
                    "top_predicates": [[p["predicate"], p["count"]] for p in report["top_predicates"]],
                    "distinct_predicates": sentiment["distinct_predicates"],
                    "class_counts_tokens": sentiment["class_counts_tokens"],
                }
                want = generator.expected_stats(corpus.rows, corpus.lexicon_valences)
                faults += [f"stats.json's {key} differs from the oracle's" for key in want
                           if got[key] != want[key]]
    for fault in faults:
        print(f"FAIL: {fault}")
    print("paper-scale run: " + ("failed" if faults else "ok"))
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
