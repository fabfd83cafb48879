"""The benchmark's traced run (`perfbench/traced.py`) drives srlkit through
its public functions; this checks that it still runs and still writes
what `extract` writes, so a change to those functions cannot silently
break `perfbench/run.py --trace 1`."""

import importlib.util
from pathlib import Path

import pytest

from srlkit.cli import main

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def _traced_module():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["corpus", "partial"])
def test_traced_run_writes_extract_output(name, fixtures_dir, tmp_path, capsys):
    roots = {sub: fixtures_dir / name / sub for sub in ("prop", "onf", "parse")}
    expected = tmp_path / "extract.csv"
    assert main(["extract", *(f"--{k}={v}" for k, v in roots.items()), "--out", str(expected)]) == 0
    (tmp_path / "stats").mkdir()
    request = {
        **{k: str(v) for k, v in roots.items()},
        "out": str(tmp_path / "traced.csv"),
        "lexicon": str(fixtures_dir / "lexicon.tsv"),
        "stats_out": str(tmp_path / "stats"),
        "spans": str(tmp_path / "spans.tsv"),
    }
    result = _traced_module().run(request)
    assert (tmp_path / "traced.csv").read_bytes() == expected.read_bytes()
    skiplog = Path(str(expected) + ".skiplog")
    traced_skiplog = tmp_path / "traced.csv.skiplog"
    assert traced_skiplog.is_file() == skiplog.is_file()
    if skiplog.is_file():
        assert traced_skiplog.read_bytes() == skiplog.read_bytes()
    assert result["counts"]["propositions"] > 0
    assert result["counts"]["prop_pointers"] > 0
    spans = (tmp_path / "spans.tsv").read_text(encoding="utf-8").splitlines()
    names = {line.split("\t")[1] for line in spans[1:]}
    assert {"propbank.parse_prop_file", "onf.parse_onf", "pipeline.resolve_role"} <= names
