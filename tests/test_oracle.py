"""srlkit against the benchmark's independent oracle.

`perfbench/corpus.py` generates a seeded corpus and, without importing
srlkit, the rows, skips, `validate` faults and `stats.json` counts it
must give. This runs `extract`, `validate` and `stats` on small corpora
of many seeds and counts wrong outcomes with the benchmark's own checks
in `perfbench/run.py`, imported as they are.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from srlkit.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# 8 files of 5 trees and 6 propositions: one file lacks a companion, two
# propositions point outside their tree
SHAPE = dict(files=8, trees_per_file=5, min_terminals=5, max_terminals=30,
             props_per_file=6, missing_files=1, bad_pointers=2)


@pytest.fixture(scope="module")
def bench():
    """`perfbench/run.py`; it imports its sibling modules by name."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.mark.parametrize("seed", range(20))
def test_matches_oracle(seed, bench, tmp_path, capsys):
    corpus = bench.corpusmod.generate(bench.corpusmod.Shape(**SHAPE), seed, tmp_path / "corpus")
    roots = ["--prop", str(corpus.prop_root), "--onf", str(corpus.onf_root),
             "--parse", str(corpus.parse_root)]
    out = tmp_path / "dataset.csv"
    assert main(["extract", *roots, "--out", str(out)]) == 0
    capsys.readouterr()
    validate = {"rc": main(["validate", *roots]), "stdout": capsys.readouterr().out}
    stats_dir = tmp_path / "stats"
    rc = main(["stats", "--csv", str(out), "--lexicon", str(corpus.lexicon),
               "--out", str(stats_dir)])
    wrong = {
        "extract": bench._extract_errors(out, corpus),
        "validate": bench._validate_errors(validate, corpus),
    }
    if corpus.rows:
        wrong["stats"] = int(rc != 0) or bench._stats_errors(stats_dir, corpus)
    else:
        error = capsys.readouterr().err
        wrong["stats"] = int(error != "error: EmptyInput: no records to break down\n")
    assert wrong == {"extract": 0, "validate": 0, "stats": 0}, f"seed {seed}: {wrong}"
