import os
import shutil
import subprocess
import sys
import tempfile
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest
from hypothesis import settings

from native import missing_build_tool

BUILD_STATUS = pytest.StashKey[str]()

settings.register_profile("suite", max_examples=120, deadline=None)
settings.load_profile("suite")

FIXTURES = Path(__file__).parent / "fixtures"
SPEEDUPS_SOURCE = SRC / "srlkit" / "_speedups.c"


def _speedups_modules() -> list[Path]:
    """Every file name this interpreter would import srlkit._speedups from."""
    return [SRC / "srlkit" / f"_speedups{suffix}" for suffix in EXTENSION_SUFFIXES]


def _speedups_current() -> bool:
    """True when a module for this interpreter is no older than _speedups.c."""
    source_ns = SPEEDUPS_SOURCE.stat().st_mtime_ns
    return any(p.is_file() and p.stat().st_mtime_ns >= source_ns for p in _speedups_modules())


def _import_error():
    """Why a fresh interpreter cannot import srlkit._speedups from src, or None."""
    proc = subprocess.run(
        [sys.executable, "-c", "import srlkit._speedups"],
        cwd=SRC,
        capture_output=True,
        text=True,
    )
    if proc.returncode == 0:
        return None
    lines = [line for line in proc.stderr.splitlines() if line.strip()]
    return lines[-1] if lines else f"exit status {proc.returncode}"


def _build_speedups() -> str:
    """Build srlkit._speedups in place unless it is current; say what happened.

    This runs before any test module imports srlkit, because the backend
    is chosen once, at import.
    """
    if _speedups_current():
        return "up to date"
    missing = missing_build_tool()
    if missing is not None:
        return f"not built: {missing}"
    # a stale module left in place would pass for the new build if the
    # compile fails
    for path in _speedups_modules():
        path.unlink(missing_ok=True)
    source_ns = SPEEDUPS_SOURCE.stat().st_mtime_ns
    # --force, because setuptools compares whole-second mtimes and would skip
    # an edit made within a second of the last build; a fresh build directory,
    # because after a failed compile setuptools copies in the module an
    # earlier build left there
    with tempfile.TemporaryDirectory() as build_dir:
        proc = subprocess.run(
            [sys.executable, "setup.py", "-q", "build_ext", "--inplace", "--force",
             "--build-lib", build_dir, "--build-temp", build_dir],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
    # the extension is optional, so setup.py exits 0 when the compile fails;
    # only an import shows whether a module was built
    error = _import_error()
    if error is not None:
        compiler = [line for line in proc.stderr.splitlines() if "error" in line.lower()]
        return f"build failed: {compiler[0] if compiler else error}"
    # setuptools copies the module in with a whole-second mtime, which can
    # read older than the source it was just built from
    for path in _speedups_modules():
        if path.is_file() and path.stat().st_mtime_ns < source_ns:
            os.utime(path, ns=(path.stat().st_atime_ns, source_ns))
    return "built in place"


def pytest_configure(config):
    config.stash[BUILD_STATUS] = _build_speedups()


def pytest_report_header(config):
    import srlkit

    return f"srlkit backend: {srlkit.backend()} (extension {config.stash[BUILD_STATUS]})"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def golden_layout():
    from srlkit.pipeline import CorpusLayout

    return CorpusLayout(
        prop_root=FIXTURES / "corpus" / "prop",
        onf_root=FIXTURES / "corpus" / "onf",
        parse_root=FIXTURES / "corpus" / "parse",
    )


@pytest.fixture(scope="session")
def golden_srl_csv() -> Path:
    return FIXTURES / "golden" / "dataset_srl.csv"


@pytest.fixture(scope="session")
def golden_orl_csv() -> Path:
    return FIXTURES / "golden" / "dataset_orl.csv"


@pytest.fixture
def read_fault_dir(tmp_path) -> Path:
    """A directory holding `readfault`, a copy of the fixture corpus in
    which three files cannot be read: a `.prop` field `1::2-ARG1`, a
    `.parse` tree not set off by a blank line, and an `.onf` sentence
    whose treebanked header reads `Plain sentence:`."""
    root = tmp_path / "corpora"
    corpus = root / "readfault"
    shutil.copytree(FIXTURES / "corpus", corpus)
    for path, old, new in (
        ("prop/00/wsj_0001.prop", "19:1-ARG1", "1::2-ARG1"),
        ("parse/01/wsj_0101.parse", "(. .)))\n", "(. .)))\n(TOP (S (NN x)))\n"),
        ("onf/02/wsj_0201.onf", "Treebanked sentence:", "Plain sentence:"),
    ):
        text = (corpus / path).read_text(encoding="utf-8")
        assert old in text
        (corpus / path).write_text(text.replace(old, new, 1), encoding="utf-8")
    return root


@pytest.fixture(scope="session")
def golden_records(golden_layout):
    from srlkit.pipeline import extract_corpus

    return extract_corpus(golden_layout).records


@pytest.fixture(scope="session")
def corpus_tree_texts(golden_layout):
    """The text of every tree of the bundled fixture corpus, keyed by file id."""
    from srlkit.onf import parse_trees_file
    from srlkit.pipeline import discover_files

    triples, _ = discover_files(golden_layout)
    return {
        triple.file_id: parse_trees_file(triple.parse_path.read_text(encoding="utf-8"))
        for triple in triples
    }


@pytest.fixture(scope="session")
def corpus_trees(corpus_tree_texts):
    """Every tree of the bundled fixture corpus as a SpanTree, keyed by
    file id."""
    from srlkit import treebank

    return {
        file_id: [treebank.parse_tree(text) for text in texts]
        for file_id, texts in corpus_tree_texts.items()
    }
