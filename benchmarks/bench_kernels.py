#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Usage: python benchmarks/bench_kernels.py [--trees N] [--pointers N] [--repeats K]

Parses the same randomly generated corpus with both backends and reports
throughput; also cross-checks that both produce identical results. Tree
text is read into SpanTrees: compiled `parse_spans` against the pure flat
scanner `_sexpr.parse_spans`. The trees are generated and rendered to
text with the test suite's object-tree helpers (tests/support.py). The
same trees make `.onf` documents of SENTENCES_PER_DOC sentence sections,
each with its Tree and Leaves blocks, read by compiled `parse_onf` and
the pure `_onf.parse_onf`; `.parse` documents of as many trees, split by
`parse_trees_file`; and `.prop` documents of PROPS_PER_TREE propositions
per tree, read by `parse_prop_file`. Their roles are then resolved on
their trees by `resolve_exprs` in both trace modes.
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import support
from srlkit import _onf, _pointers, _propbank, _resolve, _sexpr

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


PROPS_PER_TREE = 3


def random_expr(rng, max_terminal, max_height):
    parts = [f"{rng.randint(0, max_terminal)}:{rng.randint(0, max_height)}"
             for _ in range(rng.randint(1, 3))]
    text = parts[0]
    for part in parts[1:]:
        text += rng.choice("*,;") + part
    return text


def prop_lines(rng, tree_index, tree):
    """PROPS_PER_TREE `.prop` lines on one tree; every pointer selects a
    node, as height 1 climbs from a preterminal at most to the root."""
    last = len(support.leaves(tree)) - 1
    up = 0 if isinstance(tree, support.Preterminal) else 1
    return [
        f"nw/wsj/00/wsj_0001 {tree_index} {rng.randint(0, last)} gold v-v v.01 ----- "
        f"{random_expr(rng, last, 0)}-rel {random_expr(rng, last, up)}-ARG0 "
        f"{random_expr(rng, last, up)}-ARG1 {random_expr(rng, last, up)}-ARGM-TMP"
        for _ in range(PROPS_PER_TREE)
    ]


def make_corpus(n_trees, n_pointers, seed=20240601):
    rng = random.Random(seed)
    objects = [support.random_tree(rng, max_depth=8, max_terminals=40) for _ in range(n_trees)]
    trees = [support.render(tree) for tree in objects]
    sections = [onf_section(tree) for tree in objects]
    starts = range(0, len(sections), SENTENCES_PER_DOC)
    documents = ["".join(sections[i : i + SENTENCES_PER_DOC]) for i in starts]
    parse_documents = ["\n\n".join(trees[i : i + SENTENCES_PER_DOC]) + "\n" for i in starts]
    pointers = [random_expr(rng, 80, 6) for _ in range(n_pointers)]
    prop_documents = [
        "\n".join(line for k in range(i, min(i + SENTENCES_PER_DOC, len(objects)))
                  for line in prop_lines(rng, k - i, objects[k]))
        for i in starts
    ]
    return trees, pointers, documents, parse_documents, prop_documents


def role_tasks(trees, prop_documents):
    """(role expressions, tree) for every role of every proposition, as a
    record build resolves them."""
    tasks = []
    for d, text in enumerate(prop_documents):
        first = d * SENTENCES_PER_DOC
        doc_trees = [_sexpr.parse_spans(t) for t in trees[first : first + SENTENCES_PER_DOC]]
        for prop in _propbank.parse_prop_file(text):
            tasks.extend((exprs, doc_trees[prop.tree_index]) for exprs in prop.roles.values())
    return tasks


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

    trees, pointers, documents, parse_documents, prop_documents = make_corpus(args.trees, args.pointers)
    # resolve_exprs's arguments, once per trace mode
    resolves = {mode: [(exprs, tree, mode == "tree") for exprs, tree in role_tasks(trees, prop_documents)]
                for mode in ("tree", "pattern")}
    if _speedups is None:
        print("compiled extension not built; timing the pure backend only")
    else:
        for text in trees[:500]:
            assert _sexpr.parse_spans(text) == _speedups.parse_spans(text)
        for text in pointers[:5000]:
            assert _pointers.parse_expr_parts(text) == _speedups.parse_expr_parts(text)
        for text in prop_documents[:500]:
            assert _propbank.parse_prop_file(text) == _speedups.parse_prop_file(text)
        for text in documents[:500]:
            assert _onf.parse_onf(text) == _speedups.parse_onf(text)
        for text in parse_documents[:500]:
            assert _onf.parse_trees_file(text) == _speedups.parse_trees_file(text)
        for calls in resolves.values():
            for call in calls[:5000]:
                assert _resolve.resolve_exprs(*call) == _speedups.resolve_exprs(*call)
        print("backends agree on the generated corpus")

    run("tree parsing", trees, _sexpr.parse_spans,
        _speedups.parse_spans if _speedups else None, args.repeats)
    run("pointer parsing", pointers, _pointers.parse_expr_parts,
        _speedups.parse_expr_parts if _speedups else None, args.repeats)
    run(".prop reading", prop_documents, _propbank.parse_prop_file,
        _speedups.parse_prop_file if _speedups else None, args.repeats)
    run(".onf reading", documents, _onf.parse_onf,
        _speedups.parse_onf if _speedups else None, args.repeats)
    run(".parse splitting", parse_documents, _onf.parse_trees_file,
        _speedups.parse_trees_file if _speedups else None, args.repeats)
    for mode, calls in resolves.items():
        run(f"resolve ({mode})", calls, lambda call: _resolve.resolve_exprs(*call),
            (lambda call: _speedups.resolve_exprs(*call)) if _speedups else None, args.repeats)


if __name__ == "__main__":
    main()
