#!/usr/bin/env python3
"""Benchmark the compiled scanners against the pure-Python fallback.

Usage: python benchmarks/bench_kernels.py [--trees N] [--pointers N] [--repeats K]

Parses the same randomly generated corpus with both backends and reports
throughput; also cross-checks that both produce identical results. Tree
text is read into SpanTrees: compiled `parse_spans` against the pure flat
scanner `_sexpr.parse_spans`. The trees are generated and rendered to
text with the test suite's object-tree helpers (tests/support.py). The
same trees make `.onf` documents of SENTENCES_PER_DOC sentence sections,
each with its Tree and Leaves blocks, read by compiled `parse_onf` and
the pure `_onf.parse_onf`.
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import support
from srlkit import _onf, _pointers, _sexpr

try:
    from srlkit import _speedups
except ImportError:
    _speedups = None


def best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


SENTENCES_PER_DOC = 8
DELIMITER = "-" * 120


def onf_section(tree) -> str:
    """One sentence section as an .onf file lays it out."""
    leaves = [node for node in support.preorder(tree) if isinstance(node, support.Preterminal)]
    plain = " ".join(leaf.token for leaf in leaves if leaf.pos != "-NONE-") or "."
    listing = "\n".join(f"    {i:>3}  {leaf.token}" for i, leaf in enumerate(leaves))
    return (
        f"{DELIMITER}\nPlain sentence:\n---------------\n{plain}\n\n"
        f"Treebanked sentence:\n--------------------\n{' '.join(support.leaves(tree))}\n\n"
        f"Tree:\n-----\n{support.pretty(tree)}\n\nLeaves:\n-------\n{listing}\n\n"
    )


def make_corpus(n_trees, n_pointers, seed=20240601):
    rng = random.Random(seed)
    objects = [support.random_tree(rng, max_depth=8, max_terminals=40) for _ in range(n_trees)]
    trees = [support.render(tree) for tree in objects]
    sections = [onf_section(tree) for tree in objects]
    documents = ["".join(sections[i : i + SENTENCES_PER_DOC])
                 for i in range(0, len(sections), SENTENCES_PER_DOC)]
    pointers = []
    for _ in range(n_pointers):
        parts = [f"{rng.randint(0, 80)}:{rng.randint(0, 6)}" for _ in range(rng.randint(1, 3))]
        text = parts[0]
        for part in parts[1:]:
            text += rng.choice("*,;") + part
        pointers.append(text)
    return trees, pointers, documents


def run(name, corpus, pure_fn, fast_fn, repeats):
    pure_time = best_of(repeats, lambda: [pure_fn(s) for s in corpus])
    line = f"{name:<18} pure  {len(corpus) / pure_time:>12,.0f}/s"
    if fast_fn is not None:
        fast_time = best_of(repeats, lambda: [fast_fn(s) for s in corpus])
        line += f"   compiled  {len(corpus) / fast_time:>12,.0f}/s   speedup {pure_time / fast_time:4.1f}x"
    print(line)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trees", type=int, default=5000)
    ap.add_argument("--pointers", type=int, default=200_000)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    trees, pointers, documents = make_corpus(args.trees, args.pointers)
    if _speedups is None:
        print("compiled extension not built; timing the pure backend only")
    else:
        for text in trees[:500]:
            assert _sexpr.parse_spans(text) == _speedups.parse_spans(text)
        for text in pointers[:5000]:
            assert _pointers.parse_expr_parts(text) == _speedups.parse_expr_parts(text)
        for text in documents[:500]:
            assert _onf.parse_onf(text) == _speedups.parse_onf(text)
        print("backends agree on the generated corpus")

    run("tree parsing", trees, _sexpr.parse_spans,
        _speedups.parse_spans if _speedups else None, args.repeats)
    run("pointer parsing", pointers, _pointers.parse_expr_parts,
        _speedups.parse_expr_parts if _speedups else None, args.repeats)
    run(".onf reading", documents, _onf.parse_onf,
        _speedups.parse_onf if _speedups else None, args.repeats)


if __name__ == "__main__":
    main()
