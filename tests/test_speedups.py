"""Checks on the hand-written C kernel itself: it compiles without
warnings, leaks no references, and its micro-benchmark script runs. Its
results are compared with the pure modules in test_treebank.py and
test_propbank.py."""

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


@requires_build_tools
def test_compiles_without_warnings():
    includes = {sysconfig.get_paths()["include"], sysconfig.get_paths()["platinclude"]}
    proc = subprocess.run(
        [*c_compiler(), "-fsyntax-only", "-Wall", "-Werror",
         *(f"-I{path}" for path in sorted(includes)), str(KERNEL)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


@requires_build_tools
def test_no_reference_leaks():
    from srlkit import _speedups

    calls = (
        [(_speedups.parse_spans, (text,)) for text in VALID_TREES + BAD_TREES]
        + [(_speedups.parse_expr_parts, (text,)) for text in VALID_POINTERS + BAD_POINTERS]
        + [(_speedups.roundtrip_exhaustive, args) for args in SWEEPS]
        + [(_speedups.parse_onf, (text,)) for text in VALID_ONF + BAD_ONF]
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
