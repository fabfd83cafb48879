import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from srlkit.cli import main


def flags(fixtures_dir, name="corpus"):
    d = str(fixtures_dir)
    return [
        "--prop", f"{d}/{name}/prop",
        "--onf", f"{d}/{name}/onf",
        "--parse", f"{d}/{name}/parse",
    ]


class TestExtract:
    def test_golden_bytes(self, fixtures_dir, golden_srl_csv, tmp_path, capsys):
        out = tmp_path / "dataset.csv"
        rc = main(["extract", *flags(fixtures_dir), "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == golden_srl_csv.read_bytes()
        stdout = capsys.readouterr().out
        assert "files processed:     6" in stdout
        assert "rows emitted:        20" in stdout
        assert "rows filtered:       1" in stdout
        assert "propositions:        21" in stdout

    def test_orl_schema(self, fixtures_dir, golden_orl_csv, tmp_path):
        out = tmp_path / "dataset.csv"
        rc = main(["extract", *flags(fixtures_dir), "--schema", "orl", "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == golden_orl_csv.read_bytes()

    def test_pattern_trace_mode_same_output(self, fixtures_dir, golden_srl_csv, tmp_path):
        out = tmp_path / "dataset.csv"
        rc = main(["extract", *flags(fixtures_dir), "--trace-mode", "pattern", "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == golden_srl_csv.read_bytes()

    def test_empty_corpus(self, tmp_path, capsys):
        for sub in ("prop", "onf", "parse"):
            (tmp_path / sub).mkdir()
        rc = main([
            "extract",
            "--prop", str(tmp_path / "prop"),
            "--onf", str(tmp_path / "onf"),
            "--parse", str(tmp_path / "parse"),
            "--out", str(tmp_path / "d.csv"),
        ])
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith("error: EmptyCorpus:")
        assert err.count("\n") == 1

    def test_missing_root(self, tmp_path, capsys):
        rc = main([
            "extract",
            "--prop", str(tmp_path / "nope"),
            "--onf", str(tmp_path / "nope"),
            "--parse", str(tmp_path / "nope"),
        ])
        assert rc != 0
        assert "error: MissingRoot:" in capsys.readouterr().err

    def test_strict_bad_pointer(self, fixtures_dir, tmp_path, capsys):
        rc = main([
            "extract", *flags(fixtures_dir, "badptr"), "--strict",
            "--out", str(tmp_path / "d.csv"),
        ])
        assert rc != 0
        err = capsys.readouterr().err
        assert "error: ExtractionError:" in err
        assert "00/wsj_0001" in err
        assert "line 1" in err

    def test_tolerant_bad_pointer_writes_skiplog(self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "d.csv"
        rc = main(["extract", *flags(fixtures_dir, "badptr"), "--out", str(out)])
        assert rc == 0
        skiplog = tmp_path / "d.csv.skiplog"
        assert skiplog.is_file()
        fid, reason = skiplog.read_text(encoding="utf-8").rstrip("\n").split("\t")
        assert fid == "00/wsj_0001"
        assert "prop line 1" in reason
        assert out.read_text(encoding="utf-8").count("\n") == 1  # header only

    def test_clean_run_removes_stale_skiplog(self, fixtures_dir, golden_srl_csv, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["extract", *flags(fixtures_dir, "badptr"), "--out", str(out)]) == 0
        skiplog = tmp_path / "d.csv.skiplog"
        assert skiplog.is_file()
        capsys.readouterr()
        assert main(["extract", *flags(fixtures_dir), "--out", str(out)]) == 0
        assert out.read_bytes() == golden_srl_csv.read_bytes()
        assert not skiplog.exists()
        assert "skip log" not in capsys.readouterr().out

    def test_exclusion_file(self, fixtures_dir, tmp_path):
        exclude = tmp_path / "exclude.txt"
        exclude.write_text("# skip these\n00/wsj_0001\n00/wsj_0002\n", encoding="utf-8")
        out = tmp_path / "d.csv"
        rc = main(["extract", *flags(fixtures_dir), "--exclude", str(exclude), "--out", str(out)])
        assert rc == 0
        text = out.read_text(encoding="utf-8")
        assert "Smith Jones" not in text
        assert "The plan , he said" in text

    def test_jobs_byte_identical(self, fixtures_dir, tmp_path):
        out1 = tmp_path / "a.csv"
        out8 = tmp_path / "b.csv"
        assert main(["extract", *flags(fixtures_dir), "--jobs", "1", "--out", str(out1)]) == 0
        assert main(["extract", *flags(fixtures_dir), "--jobs", "8", "--out", str(out8)]) == 0
        assert out1.read_bytes() == out8.read_bytes()

    def test_config_file_with_flag_override(self, fixtures_dir, tmp_path):
        d = str(fixtures_dir)
        config = tmp_path / "run.conf"
        config.write_text(
            f"prop = {d}/corpus/prop\n"
            f"onf = {d}/corpus/onf\n"
            f"parse = {d}/corpus/parse\n"
            f"out = {tmp_path}/from_config.csv\n"
            "schema = orl\n",
            encoding="utf-8",
        )
        rc = main(["extract", "--config", str(config)])
        assert rc == 0
        assert (tmp_path / "from_config.csv").is_file()
        # flags win over the config file
        out = tmp_path / "flag_wins.csv"
        rc = main(["extract", "--config", str(config), "--schema", "srl", "--out", str(out)])
        assert rc == 0
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("sentence,treebanked_sentence,predicate")

    # flags are checked by argparse; a config value must fail the same
    # way as any other bad setting, before anything is extracted
    @pytest.mark.parametrize(
        "key, value", [("schema", "xml"), ("trace-mode", "foo"), ("strict", "ture")]
    )
    def test_config_file_bad_choice(self, key, value, fixtures_dir, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text(f"{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "d.csv"
        rc = main(["extract", *flags(fixtures_dir), "--config", str(config), "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: ConfigError: bad value for {key}: {value!r}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("value, rc", [("YES", 1), ("On", 1), ("0", 0), ("Off", 0)])
    def test_config_file_boolean(self, value, rc, fixtures_dir, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text(f"strict = {value}\n", encoding="utf-8")
        out = tmp_path / "d.csv"
        args = [*flags(fixtures_dir, "badptr"), "--config", str(config), "--out", str(out)]
        assert main(["extract", *args]) == rc
        assert capsys.readouterr().err.startswith("error: ExtractionError:") == bool(rc)

    def test_pure_backend_golden_bytes(self, fixtures_dir, golden_srl_csv, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "SRLKIT_PURE": "1", "PYTHONPATH": str(src)}
        out = tmp_path / "dataset.csv"
        subprocess.run(
            [sys.executable, "-m", "srlkit", "extract", *flags(fixtures_dir), "--out", str(out)],
            env=env, capture_output=True, check=True,
        )
        assert out.read_bytes() == golden_srl_csv.read_bytes()
        backend = subprocess.run(
            [sys.executable, "-c", "import srlkit; print(srlkit.backend())"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert backend.stdout == "pure\n"


class TestStats:
    def test_mini_breakdown_printed(self, fixtures_dir, tmp_path, capsys):
        rc = main([
            "stats", "--csv", str(fixtures_dir / "stats_mini.csv"), "--out", str(tmp_path),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "50.0/25.0/25.0" in stdout
        assert (tmp_path / "stats.json").is_file()
        assert (tmp_path / "stats.txt").is_file()

    def test_golden_stats_with_lexicon(self, fixtures_dir, golden_srl_csv, tmp_path, capsys):
        rc = main([
            "stats", "--csv", str(golden_srl_csv),
            "--lexicon", str(fixtures_dir / "lexicon.tsv"),
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert "55.0/40.0/5.0" in capsys.readouterr().out
        data = json.loads((tmp_path / "stats.json").read_text(encoding="utf-8"))
        assert data["sentiment"]["class_counts_types"] == {
            "-2": 0, "-1": 4, "0": 11, "1": 1, "2": 0,
        }

    def test_golden_report_bytes(self, fixtures_dir, golden_srl_csv, tmp_path, capsys):
        rc = main([
            "stats", "--csv", str(golden_srl_csv),
            "--lexicon", str(fixtures_dir / "lexicon.tsv"),
            "--out", str(tmp_path),
        ])
        assert rc == 0
        for name in ("stats.json", "stats.txt"):
            golden = fixtures_dir / "golden" / name
            assert (tmp_path / name).read_bytes() == golden.read_bytes(), name

    def test_out_from_config(self, fixtures_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.cfg").write_text("out = reports\n", encoding="utf-8")
        rc = main([
            "stats", "--csv", str(fixtures_dir / "stats_mini.csv"), "--config", "c.cfg",
        ])
        assert rc == 0
        assert (tmp_path / "reports" / "stats.json").is_file()
        assert (tmp_path / "reports" / "stats.txt").is_file()
        assert not (tmp_path / "stats.json").exists()
        assert "wrote reports/stats.json and reports/stats.txt" in capsys.readouterr().out

    def test_thresholds_echoed(self, fixtures_dir, tmp_path):
        rc = main([
            "stats", "--csv", str(fixtures_dir / "stats_mini.csv"),
            "--t1", "0.1", "--t2", "0.6", "--out", str(tmp_path),
        ])
        assert rc == 0
        data = json.loads((tmp_path / "stats.json").read_text(encoding="utf-8"))
        assert data["sentiment"]["t1"] == 0.1
        assert data["sentiment"]["t2"] == 0.6

    def test_header_mismatch(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n", encoding="utf-8")
        rc = main(["stats", "--csv", str(bad), "--out", str(tmp_path)])
        assert rc != 0
        assert "error: HeaderMismatch:" in capsys.readouterr().err

    def test_empty_dataset(self, fixtures_dir, tmp_path, capsys):
        # extract skips every proposition of badptr and writes a header-only CSV
        csv_path = tmp_path / "d.csv"
        assert main(["extract", *flags(fixtures_dir, "badptr"), "--out", str(csv_path)]) == 0
        capsys.readouterr()
        reports = tmp_path / "reports"
        rc = main(["stats", "--csv", str(csv_path), "--out", str(reports)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == "error: EmptyInput: no records to break down\n"
        assert captured.out == ""
        assert not reports.exists()

    def test_missing_csv(self, tmp_path, capsys):
        rc = main(["stats", "--csv", str(tmp_path / "none.csv"), "--out", str(tmp_path)])
        assert rc != 0
        assert "error: IoError:" in capsys.readouterr().err


class TestValidate:
    def test_clean_corpus(self, fixtures_dir, capsys):
        rc = main(["validate", *flags(fixtures_dir)])
        assert rc == 0
        assert "0 violations" in capsys.readouterr().out

    def test_bad_pointer_reported(self, fixtures_dir, capsys):
        rc = main(["validate", *flags(fixtures_dir, "badptr")])
        assert rc != 0
        out = capsys.readouterr().out
        assert "1 violations" in out
        assert "00/wsj_0001" in out
        assert "9:1" in out

    def test_misaligned_reported(self, fixtures_dir, capsys):
        rc = main(["validate", *flags(fixtures_dir, "misaligned")])
        assert rc != 0
        out = capsys.readouterr().out
        assert "sentences but" in out

    def test_swapped_trees_reported(self, fixtures_dir, capsys):
        rc = main(["validate", *flags(fixtures_dir, "swapped")])
        assert rc == 1
        assert capsys.readouterr().out.splitlines() == [
            "file_id\ttree\tdetail",
            "00/wsj_0002\t-\ttree 1 leaves differ from its treebanked sentence",
            "1 violations",
        ]

    def test_faults_listed_in_extract_order(self, fixtures_dir, tmp_path, capsys):
        shutil.copytree(fixtures_dir / "corpus", tmp_path / "corpus")
        (tmp_path / "corpus" / "prop" / "00" / "wsj_0001.prop").write_text(
            "f 1 18 x 19:9-ARG1 14:1*99:1*17:1-ARG0 18:0-rel\n"  # faults in ARG1 and ARG0
            "f 5 2 x 0:1-ARG0 2:0-rel\n"  # tree index out of range
            "f 1 99 x 8:1-ARG1 50:0-rel\n",  # predicate terminal and REL out of range
            encoding="utf-8",
        )
        assert main(["validate", *flags(tmp_path)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "file_id\ttree\tdetail",
            "00/wsj_0001\t1\tprop line 1 ARG0 pointer 99:1: "
            "terminal 99 out of range (tree has 22 terminals)",
            "00/wsj_0001\t1\tprop line 1 ARG1 pointer 19:9: "
            "height 9 from terminal 19 passes the root",
            "00/wsj_0001\t5\tprop line 2: tree index 5 out of range (2 trees)",
            "00/wsj_0001\t1\tprop line 3: predicate terminal 99 out of range "
            "(tree has 22 terminals)",
            "00/wsj_0001\t1\tprop line 3 REL pointer 50:0: "
            "terminal 50 out of range (tree has 22 terminals)",
            "5 violations",
        ]
        # extract skips each proposition on its first fault, in the same
        # words, in its own (tree, predicate terminal) order
        out = tmp_path / "d.csv"
        assert main(["extract", *flags(tmp_path), "--out", str(out)]) == 0
        assert (tmp_path / "d.csv.skiplog").read_text(encoding="utf-8").splitlines() == [
            "00/wsj_0001\tprop line 1: terminal 99 out of range (tree has 22 terminals)",
            "00/wsj_0001\tprop line 3: predicate terminal 99 out of range (tree has 22 terminals)",
            "00/wsj_0001\tprop line 2: tree index 5 out of range (2 trees)",
        ]

    @pytest.mark.parametrize("name", ["badptr", "misaligned", "partial", "swapped"])
    def test_reports_every_extract_skip(self, name, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "dataset.csv"
        assert main(["extract", *flags(fixtures_dir, name), "--out", str(out)]) == 0
        skipped = {
            skip_key(*line.split("\t"))
            for line in (tmp_path / "dataset.csv.skiplog").read_text().splitlines()
        }
        capsys.readouterr()
        assert main(["validate", *flags(fixtures_dir, name)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "file_id\ttree\tdetail"
        reported = set()
        for line in lines[1:-1]:
            file_id, _tree, detail = line.split("\t")
            reported.add(skip_key(file_id, detail))
        assert skipped
        assert skipped <= reported


def skip_key(file_id, detail):
    """What a skip-log reason or a validate detail is about: a missing
    companion file, one proposition, or the whole file."""
    if detail.startswith("missing companion file"):
        return file_id, "missing"
    prop = re.match(r"prop line \d+\b", detail)
    return file_id, prop.group() if prop else "file-level"


class TestInspect:
    def test_tree_listing(self, fixtures_dir, capsys):
        rc = main(["inspect", *flags(fixtures_dir), "--file", "00/wsj_0001", "--tree", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "file: 00/wsj_0001  tree: 1" in out
        assert " 14  -NONE-   *-2" in out
        assert "'Smith Jones'" in out
        assert "plain:" in out and "treebanked:" in out

    def test_full_output(self, fixtures_dir, capsys):
        rc = main(["inspect", *flags(fixtures_dir), "--file", "00/wsj_0001", "--tree", "1"])
        assert rc == 0
        golden = fixtures_dir / "golden" / "inspect_wsj_0001_tree1.txt"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_bad_pointer_shown_in_place(self, fixtures_dir, capsys):
        rc = main(["inspect", *flags(fixtures_dir, "badptr"), "--file", "00/wsj_0001", "--tree", "0"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "file: 00/wsj_0001  tree: 0\n"
            "\n"
            "(TOP\n"
            "  (S\n"
            "    (NP-SBJ\n"
            "      (NNS Prices))\n"
            "    (VP\n"
            "      (VBD rose))\n"
            "    (. .)))\n"
            "\n"
            "terminals:\n"
            "    0  NNS      Prices\n"
            "    1  VBD      rose\n"
            "    2  .        .\n"
            "\n"
            "plain:      Prices rose .\n"
            "treebanked: Prices rose .\n"
            "\n"
            "propositions for tree 0: 1\n"
            "  line 1: nw/wsj/00/wsj_0001 0 1 gold rise-v rise.01 ----- 9:1-ARG0 1:0-rel\n"
            "    REL   1:0                  -> 'rose'\n"
            "    ARG0  9:1                  -> error: TerminalOutOfRange: "
            "terminal 9 out of range (tree has 3 terminals)\n"
        )

    def test_predicate_terminal_fault_shown(self, fixtures_dir, tmp_path, capsys):
        # extract skips the proposition, so inspect says why under its line;
        # with terminal 99 it also sorts last
        shutil.copytree(fixtures_dir / "corpus", tmp_path / "corpus")
        prop_path = tmp_path / "corpus" / "prop" / "00" / "wsj_0001.prop"
        lines = prop_path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[2].startswith("nw/wsj/00/wsj_0001 1 11 ")
        lines[2] = lines[2].replace(" 1 11 ", " 1 99 ", 1)
        prop_path.write_text("".join(lines), encoding="utf-8")
        rc = main(["inspect", *flags(tmp_path), "--file", "00/wsj_0001", "--tree", "1"])
        assert rc == 0
        good = (fixtures_dir / "golden" / "inspect_wsj_0001_tree1.txt").read_text(encoding="utf-8")
        block = (
            "  line 3: nw/wsj/00/wsj_0001 1 11 gold fail-v fail.01 ----- 8:1-ARG1 11:0-rel\n"
            "    REL   11:0                 -> 'fail'\n"
            "    ARG1  8:1                  -> 'the plan'\n"
        )
        assert block in good
        assert capsys.readouterr().out == good.replace(block, "") + (
            "  line 3: nw/wsj/00/wsj_0001 1 99 gold fail-v fail.01 ----- 8:1-ARG1 11:0-rel\n"
            "    error: TerminalOutOfRange: predicate terminal 99 out of range "
            "(tree has 22 terminals)\n"
            "    REL   11:0                 -> 'fail'\n"
            "    ARG1  8:1                  -> 'the plan'\n"
        )

    def test_misaligned_file_shown(self, fixtures_dir, capsys):
        # extract skips the whole file: tree 1 is not its sentence's tree
        rc = main(["inspect", *flags(fixtures_dir, "swapped"), "--file", "00/wsj_0002", "--tree", "1"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "file: 00/wsj_0002  tree: 1\n"
            "\n"
            "(TOP\n"
            "  (S\n"
            "    (NP-SBJ\n"
            "      (PRP It))\n"
            "    (VP\n"
            "      (VBD rained))\n"
            "    (. .)))\n"
            "\n"
            "terminals:\n"
            "    0  PRP      It\n"
            "    1  VBD      rained\n"
            "    2  .        .\n"
            "\n"
            "plain:      The chairman spoke yesterday .\n"
            "treebanked: The chairman spoke yesterday .\n"
            "error: AlignmentError: tree 1 leaves differ from its treebanked sentence\n"
            "\n"
            "propositions for tree 1: 1\n"
            "  line 3: nw/wsj/00/wsj_0002 1 2 gold speak-v speak.01 ----- "
            "0:1-ARG0 2:0-rel 3:1-ARGM-TMP\n"
            "    REL   2:0                  -> '.'\n"
            "    ARG0  0:1                  -> 'It'\n"
        )

    def test_unknown_file(self, fixtures_dir, capsys):
        rc = main(["inspect", *flags(fixtures_dir), "--file", "00/wsj_9999", "--tree", "0"])
        assert rc != 0
        assert "error: UnknownFile:" in capsys.readouterr().err

    def test_tree_index_out_of_range(self, fixtures_dir, capsys):
        rc = main(["inspect", *flags(fixtures_dir), "--file", "00/wsj_0001", "--tree", "7"])
        assert rc != 0
        assert "error: IndexOutOfRange:" in capsys.readouterr().err
