#!/usr/bin/env python3
"""Benchmark the compiled kernel `_speedups` against the pure one, `_pure`.

Usage: python benchmarks/bench_kernels.py [--trees N] [--pointers N] [--repeats K]

Runs each kernel function of both modules over the same randomly
generated corpus and reports throughput; also cross-checks that both
give identical results. Tree text is read into SpanTrees by
`parse_spans`. The trees are generated and rendered to text with the
test suite's object-tree helpers (tests/support.py). The same trees make
`.onf` documents of SENTENCES_PER_DOC sentence sections, each with its
Tree and Leaves blocks, read by `parse_onf`; `.parse` documents of as
many trees, split by `parse_trees_file`; and `.prop` documents of
PROPS_PER_TREE propositions per tree, read by `parse_prop_file`. Each of
their pointers is climbed to its node on its tree by `select_node`, and
their roles are resolved by `resolve_exprs` in both trace modes. Each
`.prop` document with its trees and sentences is one file: its rows are
built by `build_records` in both trace modes and its faults listed by
`list_faults`.
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import support
from srlkit import _pure

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
        doc_trees = [_pure.parse_spans(t) for t in trees[first : first + SENTENCES_PER_DOC]]
        for prop in _pure.parse_prop_file(text):
            tasks.extend((exprs, doc_trees[prop.tree_index]) for exprs in prop.roles.values())
    return tasks


def file_tasks(trees, documents, prop_documents):
    """(propositions, trees, sentences) of every document, one file each."""
    tasks = []
    for d, (onf_text, prop_text) in enumerate(zip(documents, prop_documents)):
        first = d * SENTENCES_PER_DOC
        doc_trees = [_pure.parse_spans(t) for t in trees[first : first + SENTENCES_PER_DOC]]
        tasks.append((_pure.parse_prop_file(prop_text), doc_trees, _pure.parse_onf(onf_text)))
    return tasks


def run(name, corpus, function, repeats, star=False):
    """Time kernel `function` over the corpus on each built kernel; with
    `star` each item is its argument tuple."""
    times = {}
    for kernel in (_pure, _speedups):
        if kernel is not None:
            fn = getattr(kernel, function)
            call = (lambda: [fn(*args) for args in corpus]) if star else (lambda: [fn(s) for s in corpus])
            times[kernel] = best_of(repeats, call)
    line = f"{name:<18} pure  {len(corpus) / times[_pure]:>12,.0f}/s"
    if _speedups is not None:
        fast = times[_speedups]
        line += f"   compiled  {len(corpus) / fast:>12,.0f}/s   speedup {times[_pure] / fast:4.1f}x"
    print(line)


CHECKED = 5000  # items of each row cross-checked between the kernels


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trees", type=int, default=5000)
    ap.add_argument("--pointers", type=int, default=200_000)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    trees, pointers, documents, parse_documents, prop_documents = make_corpus(args.trees, args.pointers)
    tasks = role_tasks(trees, prop_documents)
    files = file_tasks(trees, documents, prop_documents)
    # (name, items, kernel function, whether each item is an argument tuple)
    rows = [
        ("tree parsing", trees, "parse_spans", False),
        ("pointer parsing", pointers, "parse_expr_parts", False),
        (".prop reading", prop_documents, "parse_prop_file", False),
        (".onf reading", documents, "parse_onf", False),
        (".parse splitting", parse_documents, "parse_trees_file", False),
        ("pointer selection",
         [(tree, t, h) for exprs, tree in tasks for expr in exprs for t, h in expr.parts],
         "select_node", True),
    ] + [
        (f"resolve ({mode})", [(exprs, tree, mode == "tree") for exprs, tree in tasks],
         "resolve_exprs", True)
        for mode in ("tree", "pattern")
    ] + [
        (f"records ({mode})",
         [(props, doc_trees, sentences, "00/wsj_0001", mode == "tree")
          for props, doc_trees, sentences in files],
         "build_records", True)
        for mode in ("tree", "pattern")
    ] + [
        ("fault listing", [(props, doc_trees) for props, doc_trees, _ in files], "list_faults", True),
    ]
    if _speedups is None:
        print("compiled extension not built; timing the pure backend only")
    else:
        for _, items, function, star in rows:
            pure, fast = getattr(_pure, function), getattr(_speedups, function)
            for item in items[:CHECKED]:
                call = item if star else (item,)
                assert pure(*call) == fast(*call), (function, item)
        print("backends agree on the generated corpus")

    for name, items, function, star in rows:
        run(name, items, function, args.repeats, star)


if __name__ == "__main__":
    main()
