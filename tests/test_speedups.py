"""Checks on the hand-written C kernel itself: it compiles without
warnings, defines the pure kernel's functions, leaks no references, and
its micro-benchmark script runs. Its results are compared with the pure
kernel `_pure` in test_treebank.py, test_propbank.py, test_onf.py and
test_pipeline.py."""

import gc
import subprocess
import sys
import sysconfig
from pathlib import Path

from native import c_compiler, requires_build_tools

ROOT = Path(__file__).resolve().parents[1]
KERNEL = ROOT / "src" / "srlkit" / "_speedups.c"

VALID_TREES = ["(S (NP (DT The) (NN cat)) (VP (VBZ sits)))", "( (X a) )", "(S (X é) (Y \U0001F600))"]
BAD_TREES = [
    "(X a) (Y b)",              # "(" after the root
    "(X a) x",                  # token after the root
    "(X a (Y b))",              # "(" after a token
    ")",                        # ")" with nothing open
    "(X a))",
    "()",                       # no children or token
    "(X)",
    "(S ((Y b)))",              # empty label below the root
    "( (S (X a)) (S (Y b)) )",  # wrapper with two children
    "foo",                      # token before any "("
    "(X a b)",                  # second token
    "(X (Y b) a)",              # token after a child
    "((",                       # unexpected end of input
    "",                         # no tree
    "  \n ",
    b"(X a)",                   # not a str
]
VALID_POINTERS = ["14:1*16:1*17:1", "3:0,5:1;7:2", "123456789012345678:0"]
BAD_POINTERS = [
    "", "3:0*", "*3:0", "01:2", "1:2:3", "x", "1234567890123456789:0", "é:1",
    b"1:2", None,
]
SWEEPS = [(2, 1, 2), (2, 1, 0), (2, 1, 4), ("a", 1, 1), (1, 1)]
_DELIM = "-" * 20


def _onf(plain, treebanked="A b ."):
    return (f"{_DELIM}\nPlain sentence:\n{_DELIM}\n{plain}\n\n"
            f"Treebanked sentence:\n{_DELIM}\n{treebanked}\n\nTree:\n-----\n(X a)\n")


VALID_ONF = [_onf("A b ."), _onf("A é ."), _onf("A Ω\u2028b ."), _onf("A \U0001F600 .") * 3, "", "x"]
BAD_ONF = [
    _onf("A b .").split("\n\nTreebanked")[0],   # plain without treebanked
    _onf("A b .").replace("Treebanked", "Plain"),  # the same, before another plain
    _onf("A b .").split("\n\n", 1)[1],          # treebanked without plain
    _onf(_DELIM),                                # no sentence text
    _onf("A *T*-1 \u3000b ."),                   # trace in plain
    b"Plain sentence:",                          # not a str
    None,
]
VALID_PROPS = [
    "f 0 1 x 1:0-rel 2:1*3:0-Arg0 4:0-ARG1 5:0-ARG1\n\nf 2 3 y\r\n",
    "f 0 1 x 1:0-rel\u2028g 1 2 \U0001F600 2:0-ARG0\x85",
    f"f 0 {'1' * 4300}",
    "",
    "\u3000\x85",
]
BAD_PROPS = [
    "f 0", "f x 1", "f 0 -1", f"f 0 {'1' * 5000}", "f 0 1 1::2-ARG1", "f 0 1 3:0*-REL",
    "f 0 1 -rel", "f 0 1 x\nf ٣ 1", b"f 0 1", None,
]
VALID_PARSE_FILES = ["(X a)\n\n(Y b)\n", "", " \n \x0b\n ", "(X \u3000a)\n\u3000\n(Y \U0001F600)"]
BAD_PARSE_FILES = [b"(X a)", None]
RESOLVE_TREE = "(S (NP (-NONE- *T*-1) (NN a)) (VP (VBZ \U0001F600)))"
VALID_RESOLVES = [  # (pointers of each expression, tree_guided)
    ([[(1, 1)], [(0, 0), (2, 0)]], True),
    ([[(1, 1)], [(0, 0), (2, 0)]], False),
    ([], True),
]
BAD_RESOLVES = [
    ([[(9, 0)]], True), ([[(0, 9)]], True), ([[(0, -1)]], True), ([[(-1, 0)]], True),
    ([[(10**30, 0)]], True), ([[(0, 10**30)]], True), ([[(0,)]], True), ([[("0", 0)]], True),
]
# propositions on RESOLVE_TREE with a "|" token: rows, ties, and each fault
FILE_PROPS = (
    "f 0 1 x 1:1-ARG0 0:0,2:0-ARG1 2:0-rel\nf 0 1 x 3:0-ARG1\nf 0 0 x\n"
    f"f 1 0 x\nf 0 9 x 9:0-rel\nf 0 0 x 0:9-ARG0\nf {'9' * 30} 0\nf 0 {'8' * 30} 1:1-ARG0\n"
    f"f {'9' * 31} 0\nf {'9' * 30} 0\n"
)
SELECTS = [  # (terminal, height) on RESOLVE_TREE, which has 3 terminals
    (1, 1), (0, 3), (3, 0), (-1, 0), (0, -1), (10**30, 0), (0, 10**30), (-(10**30), 0), ("0", 0),
    (0, None),
]


@requires_build_tools
def test_compiles_without_warnings():
    includes = {sysconfig.get_paths()["include"], sysconfig.get_paths()["platinclude"]}
    proc = subprocess.run(
        [*c_compiler(), "-fsyntax-only", "-Wall", "-Wextra", "-Werror",
         *(f"-I{path}" for path in sorted(includes)), str(KERNEL)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


@requires_build_tools
def test_kernels_define_the_same_functions():
    from srlkit import _pure, _speedups

    public = {name for name in dir(_speedups) if not name.startswith("_")}
    assert all(callable(getattr(_speedups, name)) for name in public)
    assert public == set(_pure.__all__)
    assert all(callable(getattr(_pure, name)) for name in _pure.__all__)


@requires_build_tools
def test_no_reference_leaks():
    from srlkit import _speedups
    from srlkit._nodes import Proposition, RoleExpr, RoleLabel, SentencePair, SpanTree

    tree = _speedups.parse_spans(RESOLVE_TREE)
    odd_tree = SpanTree((1,), ("NN",), (-1,), (0,), (1,), (0,))  # a token that is not a str
    bar_tree = tree._replace(tokens=("*T*-1", "a|b", "\U0001F600"))
    props = _speedups.parse_prop_file(FILE_PROPS)
    pair = SentencePair("a b", "a b")
    rel = {RoleLabel.REL: [RoleExpr([(0, 0)], "")]}
    odd_props = [  # each fails, or is a fault, on its own branch
        Proposition("f", -1, 0, rel), Proposition("f", 0, -(10**30), rel),
        Proposition("f", 0, 0, {RoleLabel.ARG0: [RoleExpr([(10**30, 0), (0, 2**63)], "")]}),
        Proposition("f", "0", 0, rel), Proposition("f", 9, "0", rel), Proposition("f", 0, "0", rel),
        Proposition("f", 0, 0, None),
        Proposition("f", 0, 0, {RoleLabel.REL: 5}), Proposition("f", 0, 0, {RoleLabel.REL: [object()]}),
        Proposition("f", 0, 0, {RoleLabel.REL: [RoleExpr([(0,)], "")]}), object(),
    ]
    file_args = [
        (props, [bar_tree], [pair], "00/f", True), (props, [bar_tree], [pair], "00/f", False),
        ([], [], [], "00/f", True), ([Proposition("f", 0, 0, rel)], [odd_tree], [pair], "00/f", True),
        (props, [(1, 2)], [pair], "00/f", True), (props, [tree], [], "00/f", True),
        (props, [tree], [None], "00/f", True), (5, [tree], [pair], "00/f", True),
        (props, 5, [pair], "00/f", True), ([], 5, [], "00/f", True), (props, [tree], [pair], "00/f"), (),
    ] + [([prop], [tree], [pair], "00/f", True) for prop in odd_props]
    calls = (
        [(_speedups.parse_spans, (text,)) for text in VALID_TREES + BAD_TREES]
        + [(_speedups.parse_expr_parts, (text,)) for text in VALID_POINTERS + BAD_POINTERS]
        + [(_speedups.roundtrip_exhaustive, args) for args in SWEEPS]
        + [(_speedups.parse_prop_file, (text,)) for text in VALID_PROPS + BAD_PROPS]
        + [(_speedups.parse_onf, (text,)) for text in VALID_ONF + BAD_ONF]
        + [(_speedups.parse_trees_file, (text,)) for text in VALID_PARSE_FILES + BAD_PARSE_FILES]
        + [
            (_speedups.resolve_exprs, ([RoleExpr(parts, "") for parts in exprs], tree, mode))
            for exprs, mode in VALID_RESOLVES + BAD_RESOLVES
        ]
        + [(_speedups.select_node, (tree, *pointer)) for pointer in SELECTS]
        + [
            (_speedups.select_node, args)
            for args in [(odd_tree, 0, 0), ((1, 2), 0, 0), (None, 0, 0), (tree, 0), ()]
        ]
        + [
            (_speedups.resolve_exprs, args)
            for args in [
                ([RoleExpr([(0, 0)], "")], odd_tree, False), ([RoleExpr([(0, 0)], "")], odd_tree, True),
                ([object()], tree, True), (5, tree, True), ([], (1, 2), True), ([], tree),
            ]
        ]
        + [(_speedups.build_records, args) for args in file_args]
        + [(_speedups.list_faults, args[:2]) for args in file_args if len(args) > 1]
        + [(_speedups.list_faults, args) for args in [(props,), (props, [tree], [pair])]]
    )

    def run_all():
        for fn, args in calls:
            try:
                fn(*args)
            except Exception:  # every error branch is meant to be hit
                pass

    rounds = 2000
    run_all()  # first-call caches (interned names, exception classes) settle here
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(rounds):
        run_all()
    gc.collect()
    grown = sys.getallocatedblocks() - before
    # a leak of one object per call of any single case would add >= rounds
    assert grown < rounds // 4, f"{grown} blocks kept after {rounds * len(calls)} calls"


@requires_build_tools
def test_kernel_benchmark_runs():
    from srlkit import _speedups  # noqa: F401  -- the build must have succeeded

    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"),
         "--trees", "50", "--pointers", "200", "--repeats", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "backends agree" in proc.stdout
