"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them alongside the pytest report)."""

import functools
import math
import os
import random
import time
from pathlib import Path

import pytest

import support
from native import requires_build_tools
from srlkit import treebank
from srlkit.cleaning import TraceMode, TracePolicy, is_trace_token, strip_traces
from srlkit.cli import main
from srlkit.errors import HeightOverflow
from srlkit.pipeline import map_to_orl
from srlkit.stats import (
    ALPHA,
    SentimentLexicon,
    arg_breakdown,
    predicate_frequencies,
    read_dataset_csv,
    sentiment_bucket,
    sentiment_score,
    span_length_stats,
)


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                outcome = "SKIPPED" if type(exc).__name__ == "Skipped" else "FAIL"
                print(f"[criterion {number}] {name}: {outcome}")
                raise
            print(f"[criterion {number}] {name}: PASS")
            return result

        return wrapper

    return decorate


@criterion(1, "pointer selection matches brute-force oracle")
def test_pointer_selection_oracle():
    rng = random.Random(987654321)
    started = time.perf_counter()
    trees = 0
    checks = 0
    while trees < 1000:
        tree = support.random_tree(rng, max_depth=8, max_terminals=30)
        trees += 1
        spans = treebank.parse_tree(support.render(tree))
        number = {id(node): k for k, node in enumerate(support.preorder(tree))}
        order, parents = support.build_parent_map(tree)
        for i in range(len(order)):
            h = 0
            while True:
                try:
                    expected = support.oracle_select_prebuilt(order, parents, i, h)
                except LookupError:
                    with pytest.raises(HeightOverflow):
                        treebank.select_node(spans, i, h)
                    break
                assert treebank.select_node(spans, i, h) == number[id(expected)]
                checks += 1
                h += 1
    elapsed = time.perf_counter() - started
    assert checks >= 1000
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.2f}s"


@requires_build_tools
@criterion(2, "pointer grammar round-trip, exhaustive to 3 parts")
def test_pointer_roundtrip_exhaustive():
    # certifies the compiled fast path; the pure sweep never promised 5 s
    from srlkit import _speedups

    started = time.perf_counter()
    checked, mismatches, first_bad = _speedups.roundtrip_exhaustive(20, 4, 3)
    elapsed = time.perf_counter() - started
    singles = 21 * 5
    assert checked == singles + 3 * singles**2 + 9 * singles**3
    assert mismatches == 0, f"first mismatching pointer string: {first_bad!r}"
    assert elapsed < 5.0, f"exhaustive sweep took {elapsed:.2f}s"
    # tie the bulk sweep to the object parser of the test oracle on a random sample
    rng = random.Random(42)
    for _ in range(10_000):
        parts = [f"{rng.randint(0, 20)}:{rng.randint(0, 4)}" for _ in range(rng.randint(1, 3))]
        text = parts[0]
        for part in parts[1:]:
            text += rng.choice("*,;") + part
        assert support.parse_pointer_expr(text).format() == text


@criterion(3, "golden end-to-end extraction, byte-exact")
def test_golden_end_to_end(fixtures_dir, golden_srl_csv, tmp_path):
    prop_root = fixtures_dir / "corpus" / "prop"
    prop_files = sorted(prop_root.glob("*/*.prop"))
    assert len(prop_files) >= 5
    prop_lines = [
        line
        for path in prop_files
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    assert len(prop_lines) >= 20
    assert any("14:1*16:1*17:1-ARG0" in line for line in prop_lines)

    out = tmp_path / "dataset.csv"
    started = time.perf_counter()
    rc = main([
        "extract",
        "--prop", str(prop_root),
        "--onf", str(fixtures_dir / "corpus" / "onf"),
        "--parse", str(fixtures_dir / "corpus" / "parse"),
        "--out", str(out),
    ])
    elapsed = time.perf_counter() - started
    assert rc == 0
    assert out.read_bytes() == golden_srl_csv.read_bytes()
    assert elapsed < 5.0, f"extraction took {elapsed:.2f}s"

    rows = read_dataset_csv(out)
    # the both-empty proposition (rain) was filtered out
    assert all(r.merged_arguments != "|" for r in rows)
    assert not any(r.predicate == "rained" for r in rows)
    # coverage: only-ARG0, only-ARG1, and a trace-only argument that cleaned to ""
    assert any(r.arg0 and not r.arg1 for r in rows)
    assert any(r.arg1 and not r.arg0 for r in rows)
    assert any(r.predicate == "eat" and r.arg0 == "" for r in rows)


@criterion(4, "trace stripping: modes agree, no trace survives")
def test_trace_stripping_equivalence(corpus_trees, golden_records):
    tree_policy = TracePolicy(mode=TraceMode.TREE_GUIDED)
    pattern_policy = TracePolicy(mode=TraceMode.PATTERN_ONLY)
    for trees in corpus_trees.values():
        for tree in trees:
            tokens = tree.tokens
            assert strip_traces(tokens, tree_policy, tree=tree) == strip_traces(
                tokens, pattern_policy
            )
    for record in golden_records:
        for text in (record.sentence, record.predicate, record.arg0, record.arg1):
            assert not any(is_trace_token(tok) for tok in text.split())


@criterion(5, "statistics match hand-computed oracle values")
def test_statistics_oracle(golden_srl_csv):
    records = read_dataset_csv(golden_srl_csv)

    breakdown = arg_breakdown(records)
    assert abs(breakdown.both_pct - 55.0) <= 0.05
    assert abs(breakdown.only_arg1_pct - 40.0) <= 0.05
    assert abs(breakdown.only_arg0_pct - 5.0) <= 0.05
    assert (breakdown.both, breakdown.only_arg1, breakdown.only_arg0) == (11, 8, 1)

    ranking = predicate_frequencies(records, 3)
    assert ranking == [("said", 4), ("is", 2), ("applauded", 1)]
    full = predicate_frequencies(records, 10**6)
    assert sum(count for _, count in full) == 20

    spans = span_length_stats(records)
    assert abs(spans.mean_arg0 - 1.8) <= 0.05
    assert abs(spans.mean_arg1 - 2.7) <= 0.05
    assert not spans.arg0_undefined and not spans.arg1_undefined


@criterion(6, "sentiment formula, boundaries, and monotonicity")
def test_sentiment_formula():
    lexicon = SentimentLexicon({"good": 1.9})
    expected = 1.9 / math.sqrt(1.9**2 + ALPHA)
    assert abs(sentiment_score("good", lexicon) - expected) < 1e-9

    t1, t2 = 0.05, 0.5
    assert sentiment_bucket(t1, t1, t2) == 0
    assert sentiment_bucket(-t1, t1, t2) == 0
    assert sentiment_bucket(t2, t1, t2) == 1
    assert sentiment_bucket(-t2, t1, t2) == -1

    previous = -2
    reachable = set()
    for i in range(10_001):
        score = -1.0 + i * 0.0002
        bucket = sentiment_bucket(score, t1, t2)
        assert bucket >= previous, f"bucketing not monotone at score {score}"
        previous = bucket
        reachable.add(bucket)
    assert reachable == {-2, -1, 0, 1, 2}


@criterion(7, "byte-identical output across parallelism settings")
def test_parallel_determinism(fixtures_dir, tmp_path):
    outs = []
    for jobs in ("1", "8"):
        out = tmp_path / f"jobs{jobs}.csv"
        rc = main([
            "extract",
            "--prop", str(fixtures_dir / "corpus" / "prop"),
            "--onf", str(fixtures_dir / "corpus" / "onf"),
            "--parse", str(fixtures_dir / "corpus" / "parse"),
            "--jobs", jobs,
            "--out", str(out),
        ])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@criterion(8, "ORL schema is a bytewise field mapping of SRL")
def test_orl_mapping(golden_records, golden_srl_csv, golden_orl_csv):
    import csv

    with open(golden_srl_csv, encoding="utf-8", newline="") as f:
        srl_rows = list(csv.DictReader(f))
    with open(golden_orl_csv, encoding="utf-8", newline="") as f:
        orl_rows = list(csv.DictReader(f))
    assert len(srl_rows) == len(orl_rows) == len(golden_records)
    for srl, orl in zip(srl_rows, orl_rows):
        assert orl["holder"] == srl["arg0"]
        assert orl["expression"] == srl["predicate"]
        assert orl["target"] == srl["arg1"]
        assert orl["sentence"] == srl["sentence"]
        assert orl["treebanked_sentence"] == srl["treebanked_sentence"]
    for record in golden_records:
        mapped = map_to_orl(record)
        assert mapped.holder == record.arg0
        assert mapped.expression == record.predicate
        assert mapped.target == record.arg1


@criterion(9, "licensed-corpus run reports comparable statistics")
def test_licensed_corpus_comparability(tmp_path):
    """Needs a licensed OntoNotes/PropBank WSJ checkout; excluded from CI.

    Point SRLKIT_ONTONOTES_PROP / _ONF / _PARSE at the three directory
    roots to run the full extraction and statistics report."""
    roots = {
        key: os.environ.get(f"SRLKIT_ONTONOTES_{key.upper()}")
        for key in ("prop", "onf", "parse")
    }
    if not all(roots.values()):
        pytest.skip(
            "licensed corpus not configured; set SRLKIT_ONTONOTES_PROP, "
            "SRLKIT_ONTONOTES_ONF, and SRLKIT_ONTONOTES_PARSE"
        )
    out = tmp_path / "dataset.csv"
    rc = main([
        "extract",
        "--prop", roots["prop"],
        "--onf", roots["onf"],
        "--parse", roots["parse"],
        "--out", str(out),
    ])
    assert rc == 0
    rc = main(["stats", "--csv", str(out), "--out", str(tmp_path)])
    assert rc == 0
    report = (tmp_path / "stats.txt").read_text(encoding="utf-8")
    assert "argument presence" in report
    assert "top predicates" in report
    assert "mean span length" in report
    stats_json = (tmp_path / "stats.json").read_text(encoding="utf-8")
    assert '"total_records"' in stats_json
