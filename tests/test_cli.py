import errno
import gc
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import support
from srlkit import cli
from srlkit import stats as statsmod
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
        assert capsys.readouterr().out == (
            "files discovered:    6\n"
            "files processed:     6\n"
            "files skipped:       0\n"
            "propositions:        21\n"
            "propositions failed: 0\n"
            "rows filtered:       1\n"
            "rows emitted:        20\n"
            f"wrote {out} (srl schema)\n"
        )

    @pytest.mark.parametrize("strict", [False, True])
    def test_partial_corpus_output(self, strict, fixtures_dir, tmp_path, capsys):
        # a missing companion file is a logged skip, never fatal, so
        # --strict changes nothing here
        out = tmp_path / "d.csv"
        argv = ["extract", *flags(fixtures_dir, "partial"), "--out", str(out)]
        assert main(argv + ["--strict"] * strict) == 0
        skiplog = tmp_path / "d.csv.skiplog"
        assert capsys.readouterr().out == (
            f"skip log: {skiplog} (1 entries)\n"
            "files discovered:    4\n"
            "files processed:     3\n"
            "files skipped:       1\n"
            "propositions:        3\n"
            "propositions failed: 0\n"
            "rows filtered:       0\n"
            "rows emitted:        3\n"
            f"wrote {out} (srl schema)\n"
        )
        assert skiplog.read_text(encoding="utf-8") == (
            "00/wsj_0011\tmissing companion file(s): .onf\n"
        )

    def test_strict_logs_excluded_files(self, fixtures_dir, tmp_path, capsys):
        exclude = tmp_path / "exclude.txt"
        exclude.write_text("00/wsj_0001\n", encoding="utf-8")
        out = tmp_path / "d.csv"
        rc = main([
            "extract", *flags(fixtures_dir), "--exclude", str(exclude), "--strict",
            "--out", str(out),
        ])
        assert rc == 0
        assert "files skipped:       1\n" in capsys.readouterr().out
        assert (tmp_path / "d.csv.skiplog").read_text(encoding="utf-8") == (
            "00/wsj_0001\texcluded by configuration\n"
        )

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

    def test_nul_in_token_written_verbatim(self, fixtures_dir, golden_srl_csv, tmp_path, capsys):
        # NUL is valid UTF-8 and both readers keep it; the CSV holds it as
        # it is, unquoted, on every Python
        corpus = tmp_path / "corpus"
        shutil.copytree(fixtures_dir / "corpus", corpus)
        for path in (corpus / "onf" / "00" / "wsj_0002.onf", corpus / "parse" / "00" / "wsj_0002.parse"):
            path.write_bytes(path.read_bytes().replace(b"fish", b"fi\x00sh"))
        out = tmp_path / "d.csv"
        assert main(["extract", *flags(tmp_path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        expected = golden_srl_csv.read_bytes().replace(b"fish", b"fi\x00sh")
        assert out.read_bytes() == expected
        assert b"eat,,fi\x00sh,|fi\x00sh\n" in expected

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

    @pytest.mark.parametrize(
        "bom, eol",
        [("", "\n"), ("", "\r\n"), ("\ufeff", "\n"), ("\ufeff", "\r\n")],
        ids=["lf", "crlf", "bom-lf", "bom-crlf"],
    )
    def test_exclusion_file_lines(self, bom, eol, fixtures_dir, tmp_path):
        # each line is stripped; blank, whitespace-only and `#` lines,
        # indented or not, are skipped; a leading byte-order mark is not
        # part of the first id
        exclude = tmp_path / "exclude.txt"
        lines = ["00/wsj_0001\t", "# ids", "  # indented", " \t ", "", "  00/wsj_0002", ""]
        exclude.write_bytes((bom + eol.join(lines)).encode("utf-8"))
        out = tmp_path / "d.csv"
        rc = main(["extract", *flags(fixtures_dir), "--exclude", str(exclude), "--out", str(out)])
        assert rc == 0
        assert Path(f"{out}.skiplog").read_text(encoding="utf-8") == (
            "00/wsj_0001\texcluded by configuration\n00/wsj_0002\texcluded by configuration\n"
        )

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
        "key, value",
        [("schema", "xml"), ("trace-mode", "foo"), ("strict", "ture"),
         # no path can hold a NUL
         ("out", "a\0b.csv"), ("exclude", "a\0b"), ("lexicon", "a\0b")],
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

    # every value in the file is checked, also one a flag overrides
    @pytest.mark.parametrize(
        "command, key, value, flag",
        [("extract", "schema", "xml", ["--schema", "srl"]),
         ("extract", "trace-mode", "foo", ["--trace-mode", "tree"]),
         ("extract", "strict", "ture", ["--strict"]),
         ("stats", "t1", "low", ["--t1", "0.1"])],
    )
    def test_config_file_bad_value_under_flag(
        self, command, key, value, flag, fixtures_dir, tmp_path, capsys
    ):
        config = tmp_path / "run.conf"
        config.write_text(f"{key} = {value}\n", encoding="utf-8")
        stats_csv = ["--csv", str(fixtures_dir / "stats_mini.csv")]
        inputs = flags(fixtures_dir) if command == "extract" else stats_csv
        out = tmp_path / "out"
        rc = main([command, *inputs, "--config", str(config), "--out", str(out), *flag])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: ConfigError: bad value for {key}: {value!r}\n"
        assert captured.out == ""
        assert not out.exists()

    # the temporary file beside the output is named for this process and
    # made fresh, so a run never truncates or removes a file it did not make
    def test_out_directory_leaves_neighbouring_tmp_file(self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "outdir"
        out.mkdir()
        kept = tmp_path / "outdir.tmp"
        kept.write_bytes(b"precious")
        assert main(["extract", *flags(fixtures_dir), "--out", f"{out}/"]) == 1
        captured = capsys.readouterr()
        assert re.fullmatch(r"error: IoError: [^\n]*\n", captured.err)
        assert captured.out == ""
        assert kept.read_bytes() == b"precious"
        assert sorted(tmp_path.rglob("*.tmp")) == [kept]

    def test_tmp_file_beside_out_survives(self, fixtures_dir, golden_srl_csv, tmp_path):
        out = tmp_path / "dataset.csv"
        kept = tmp_path / "dataset.csv.tmp"
        kept.write_bytes(b"a file of the user's\n")
        assert main(["extract", *flags(fixtures_dir), "--out", str(out)]) == 0
        assert out.read_bytes() == golden_srl_csv.read_bytes()
        assert kept.read_bytes() == b"a file of the user's\n"
        assert sorted(tmp_path.iterdir()) == [out, kept]

    @pytest.mark.parametrize("out", ["", "."])
    def test_out_current_directory_is_an_io_error(
        self, out, fixtures_dir, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["extract", *flags(fixtures_dir), "--out", out]) == 1
        captured = capsys.readouterr()
        assert re.fullmatch(r"error: IoError: [^\n]*\n", captured.err)
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    # a config file that cannot be read or has a line without "=" fails
    # before anything is extracted; comments, blank lines and unknown keys
    # are skipped
    @pytest.mark.parametrize(
        "name, text, err",
        [
            ("missing.conf", None, "error: ConfigError: cannot read config missing.conf: "
             "[Errno 2] No such file or directory: 'missing.conf'\n"),
            (".", None, "error: ConfigError: cannot read config .: [Errno 21] Is a directory: '.'\n"),
            ("run.conf", "schema orl\n",
             "error: ConfigError: line 1: expected key = value, got 'schema orl'\n"),
            ("run.conf", "# a comment\n\ncolour = blue\nschema = orl\n", ""),
            ("run.conf", "# a comment\r\n  # indented\r\n \t \r\n  schema orl \r\n",
             "error: ConfigError: line 4: expected key = value, got 'schema orl'\n"),
            # a leading byte-order mark is dropped, so the first line is
            # a comment or a key as it would be without it
            ("run.conf", "\ufeff# a comment\nschema = orl\n", ""),
            ("run.conf", "\ufeffschema = orl\n", ""),
        ],
        ids=["missing", "directory", "no-equals", "skipped-lines", "crlf-skipped-lines",
             "bom-comment", "bom-key"],
    )
    def test_config_file_lines(
        self, name, text, err, fixtures_dir, golden_orl_csv, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        if text is not None:
            Path(name).write_text(text, encoding="utf-8")
        out = tmp_path / "d.csv"
        rc = main(["extract", *flags(fixtures_dir), "--config", name, "--out", str(out)])
        captured = capsys.readouterr()
        assert (rc, captured.err) == (1 if err else 0, err)
        if err:
            assert captured.out == ""
            assert not out.exists()
        else:
            assert out.read_bytes() == golden_orl_csv.read_bytes()

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


@pytest.mark.parametrize("entry", ["dangling-symlink", "directory"])
def test_prop_entry_not_a_file_is_no_file_id(entry, fixtures_dir, tmp_path, capsys):
    """A `.prop` folder entry that is not a regular file (symlinks
    followed) is no file id, as such a companion counts as missing: with
    one beside complete companions, extract and validate give the plain
    corpus's outputs."""
    odd = tmp_path / "odd"
    shutil.copytree(fixtures_dir / "corpus", odd)
    for sub in ("onf", "parse"):
        shutil.copy(odd / sub / "00" / f"wsj_0001.{sub}", odd / sub / "00" / f"wsj_0009.{sub}")
    prop = odd / "prop" / "00" / "wsj_0009.prop"
    if entry == "directory":
        prop.mkdir()
    else:
        prop.symlink_to(tmp_path / "nowhere.prop")

    def outputs(corpus):
        out = tmp_path / "dataset.csv"
        out.unlink(missing_ok=True)
        rc = main(["extract", *_roots(corpus), "--out", str(out)])
        extract = (rc, _text_or_none(out), _text_or_none(f"{out}.skiplog"), capsys.readouterr())
        rc = main(["validate", *_roots(corpus)])
        return extract, (rc, capsys.readouterr().out)

    assert outputs(odd) == outputs(fixtures_dir / "corpus")


@pytest.mark.parametrize("command", ["extract", "validate"])
@pytest.mark.parametrize("ext", ["prop", "onf"])
def test_unlistable_section_is_an_io_error(ext, command, fixtures_dir, tmp_path, monkeypatch,
                                           capsys):
    """A section folder that exists but cannot be listed ends the run with
    one `error: IoError:` line naming it, as an unreadable corpus file
    does, and extract writes nothing; its ids are never dropped unseen.
    Root lists any folder whatever its mode, so `os.scandir` refuses it."""
    folder = str(fixtures_dir / "corpus" / ext / "01")
    scandir = os.scandir

    def refusing(path="."):
        if os.fspath(path) == folder:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), folder)
        return scandir(path)

    monkeypatch.setattr(os, "scandir", refusing)
    monkeypatch.chdir(tmp_path)
    assert main([command, *flags(fixtures_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: IoError: [Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: {folder!r}\n"
    )
    assert captured.out == ""
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("ext", ["prop", "onf"])
def test_symlink_loop_in_section_is_an_io_error(ext, fixtures_dir, tmp_path, capsys):
    """A section entry that is a symlink loop is neither a file nor a
    dangling link: the run ends with one `error: IoError:` line naming it,
    and the rest of its section is not dropped unseen."""
    shutil.copytree(fixtures_dir / "corpus", tmp_path / "corpus")
    entry = tmp_path / "corpus" / ext / "01" / f"loop.{ext}"
    entry.symlink_to(entry)
    assert main(["validate", *flags(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: IoError: [Errno {errno.ELOOP}] {os.strerror(errno.ELOOP)}: {str(entry)!r}\n"
    )


@pytest.mark.parametrize("ext, section", [("onf", "absent"), ("parse", "a regular file")])
def test_companion_section_not_a_folder(ext, section, fixtures_dir, tmp_path, capsys):
    """A companion root whose section folder is absent, or is a regular
    file, holds none of that section's files: each id is a logged skip."""
    shutil.copytree(fixtures_dir / "corpus", tmp_path / "corpus")
    folder = tmp_path / "corpus" / ext / "01"
    shutil.rmtree(folder)
    if section == "a regular file":
        folder.write_text("", encoding="utf-8")
    out = tmp_path / "d.csv"
    assert main(["extract", *flags(tmp_path), "--out", str(out)]) == 0
    assert "files skipped:       2\n" in capsys.readouterr().out
    assert Path(f"{out}.skiplog").read_text(encoding="utf-8") == "".join(
        f"01/{stem}\tmissing companion file(s): .{ext}\n" for stem in ("wsj_0101", "wsj_0102")
    )


def test_line_ends_do_not_change_outputs(any_corpus, tmp_path, monkeypatch, capsys):
    """A corpus whose files end their lines in CRLF, or in CR alone, gives
    extract's CSV, skip log and stdout and validate's stdout and exit
    code byte for byte as the same corpus with LF line ends."""

    def outputs(eol):
        run = tmp_path / eol.hex()
        for path in any_corpus.rglob("*"):
            if path.is_file():
                copy = run / "corpus" / path.relative_to(any_corpus)
                copy.parent.mkdir(parents=True, exist_ok=True)
                copy.write_bytes(path.read_bytes().replace(b"\n", eol))
        monkeypatch.chdir(run)  # so the paths printed are alike
        rc = main(["extract", *_roots("corpus"), "--out", "dataset.csv"])
        skip_log = Path("dataset.csv.skiplog")
        extract = (rc, Path("dataset.csv").read_bytes(),
                   skip_log.read_bytes() if skip_log.exists() else None, capsys.readouterr())
        rc = main(["validate", *_roots("corpus")])
        return extract, (rc, capsys.readouterr().out)

    lf = outputs(b"\n")
    assert outputs(b"\r\n") == lf
    assert outputs(b"\r") == lf


def test_cli_import_loads_no_dataclasses_nor_unused_kernel():
    """`import srlkit.cli` in a fresh interpreter adds no `dataclasses`
    (which loads inspect, ast, dis and tokenize) to the modules the
    interpreter held before it, no `srlkit.stats` nor the `csv` and
    `json` it reads and writes with, which only `stats` needs, and on the
    compiled backend no pure kernel `srlkit._pure`. The modules `site`
    loads differ between machines, so only what the import adds counts."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; before = set(sys.modules); import srlkit.cli; "
            "print(srlkit.backend(), *sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    backend, *added = proc.stdout.split()
    assert "dataclasses" not in added
    assert not {"srlkit.stats", "csv", "_csv", "json"} & set(added)
    if backend == "compiled":
        assert "srlkit._pure" not in added


def test_in_place_build_writes_the_package_bytecode(tmp_path):
    """`setup.py build_ext --inplace` byte-compiles src/srlkit, also when
    the optional C build fails, so a fresh interpreter that writes no
    bytecode compiles no srlkit module at import; an edited module is
    compiled again from its new source."""
    root = Path(__file__).resolve().parents[1]
    shutil.copytree(root / "src" / "srlkit", tmp_path / "src" / "srlkit",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyd"))
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy(root / name, tmp_path / name)
    subprocess.run([sys.executable, "setup.py", "-q", "build_ext", "--inplace"], cwd=tmp_path,
                   env={**os.environ, "CC": "/nonexistent/cc"}, capture_output=True, check=True)
    # every module compiled from source passes through source_to_code
    code = ("import os, sys\n"
            "from importlib.machinery import SourceFileLoader\n"
            "compiled, real = [], SourceFileLoader.source_to_code\n"
            "def spy(self, data, path, *args, **kwargs):\n"
            "    compiled.append(path)\n"
            "    return real(self, data, path, *args, **kwargs)\n"
            "SourceFileLoader.source_to_code = spy\n"
            "import srlkit.cli\n"
            "package = os.path.dirname(srlkit.__file__)\n"
            "print(getattr(srlkit.cli, 'EDITED', False),\n"
            "      *sorted(os.path.relpath(p, package) for p in compiled if p.startswith(package)))\n")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(tmp_path / "src")}

    def import_cli():
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, check=True)
        return proc.stdout.split()

    assert import_cli() == ["False"]
    with open(tmp_path / "src" / "srlkit" / "cli.py", "a", encoding="utf-8") as handle:
        handle.write("EDITED = True\n")
    assert import_cli() == ["True", "cli.py"]


# a command that fails leaves every one of its outputs as it was: both
# targets are checked, or both files written, before either is replaced.
# The blocked path is a directory, or, when it ends in ".tmp", a file that
# another run left where this process would write a temporary file
@pytest.mark.parametrize(
    "command, corpus, blocked",
    [
        ("extract", "badptr", "x/d.csv.skiplog"),
        ("extract", "corpus", "x/d.csv.skiplog"),
        ("extract", "badptr", "x/d.csv.skiplog.{pid}.tmp"),
        ("stats", None, "rep/stats.txt"),
    ],
    ids=["extract-skips", "extract-no-skips", "extract-skiplog-tmp", "stats"],
)
def test_failed_command_changes_no_output(command, corpus, blocked, fixtures_dir, tmp_path,
                                          monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if command == "extract":
        argv = ["extract", *flags(fixtures_dir, corpus), "--out", "x/d.csv"]
        outputs = ["x/d.csv", "x/d.csv.skiplog"]
    else:
        argv = ["stats", "--csv", str(fixtures_dir / "stats_mini.csv"), "--out", "rep"]
        outputs = ["rep/stats.json", "rep/stats.txt"]
    blocked = Path(blocked.format(pid=os.getpid()))
    other_runs_tmp = [tmp_path / blocked] if blocked.suffix == ".tmp" else []
    left = {Path(path): b"an earlier run's output\n" for path in outputs if Path(path) != blocked}
    if other_runs_tmp:
        left[blocked] = b"another run's temporary file\n"
    else:
        blocked.mkdir(parents=True)
    for path, data in left.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(r"error: IoError: [^\n]*\n", captured.err)
    assert captured.out == ""
    assert {path: path.read_bytes() for path in left} == left
    assert list(tmp_path.rglob("*.tmp")) == other_runs_tmp


def _roots(corpus, leave_out=None):
    return [
        arg for sub in ("prop", "onf", "parse") if sub != leave_out
        for arg in (f"--{sub}", f"{corpus}/{sub}")
    ]


def _text_or_none(path):
    return Path(path).read_text(encoding="utf-8") if Path(path).exists() else None


def _root_case(sub):
    def case(fixtures_dir):
        missing = "error: MissingRoot: corpus root does not exist: "
        return (
            ["extract", *_roots(fixtures_dir / "corpus", leave_out=sub)], sub,
            ("nowhere_config", "nowhere_config"), [f"--{sub}", "nowhere_flag"],
            lambda rc, out, err: err,
            (f"error: ConfigError: missing required corpus roots: --{sub}\n",
             f"{missing}nowhere_config\n", f"{missing}nowhere_flag\n"),
        )
    return case


def _trace_mode_case(fixtures_dir):
    # the corpus's one trace, `*-2`, made the null complementizer `0`,
    # which only tree-guided trace removal drops
    shutil.copytree(fixtures_dir / "corpus", "zero")
    for path in (Path("zero/parse/00/wsj_0001.parse"), Path("zero/onf/00/wsj_0001.onf")):
        path.write_text(path.read_text(encoding="utf-8").replace("*-2", "0"), encoding="utf-8")
    return (
        ["extract", *_roots("zero")], "trace-mode", ("pattern", "pattern"),
        ["--trace-mode", "tree"],
        lambda rc, out, err: "0 Smith Jones" in Path("dataset.csv").read_text(encoding="utf-8"),
        (False, True, False),
    )


def _exclude_case(fixtures_dir):
    Path("c.txt").write_text("00/wsj_0001\n", encoding="utf-8")
    Path("f.txt").write_text("00/wsj_0002\n", encoding="utf-8")
    return (
        ["extract", *_roots(fixtures_dir / "corpus")], "exclude", ("c.txt", "c.txt"),
        ["--exclude", "f.txt"],
        lambda rc, out, err: _text_or_none("dataset.csv.skiplog"),
        (None, "00/wsj_0001\texcluded by configuration\n",
         "00/wsj_0002\texcluded by configuration\n"),
    )


def _stats_argv(fixtures_dir):
    return ["stats", "--csv", str(fixtures_dir / "golden" / "dataset_srl.csv")]


def _threshold_case(key, default, config, flag):
    def case(fixtures_dir):
        return (
            _stats_argv(fixtures_dir), key, (config, config), [f"--{key}", flag],
            lambda rc, out, err: json.loads(_text_or_none("stats.json"))["sentiment"][key],
            (default, float(config), float(flag)),
        )
    return case


# a case id -> a function of the fixtures directory, called in an empty
# working directory, giving (argv, config key, the key's config value in
# the config and in the flag case, the flag, what a run shows, what it
# should show with the default, the config value and the flag)
PRECEDENCE = {
    "extract-prop": _root_case("prop"),
    "extract-onf": _root_case("onf"),
    "extract-parse": _root_case("parse"),
    "extract-out": lambda fixtures_dir: (
        ["extract", *_roots(fixtures_dir / "corpus")], "out", ("c.csv", "c.csv"),
        ["--out", "f.csv"], lambda rc, out, err: out.splitlines()[-1],
        ("wrote dataset.csv (srl schema)", "wrote c.csv (srl schema)",
         "wrote f.csv (srl schema)"),
    ),
    "extract-schema": lambda fixtures_dir: (
        ["extract", *_roots(fixtures_dir / "corpus")], "schema", ("orl", "orl"),
        ["--schema", "srl"], lambda rc, out, err: out.splitlines()[-1],
        ("wrote dataset.csv (srl schema)", "wrote dataset.csv (orl schema)",
         "wrote dataset.csv (srl schema)"),
    ),
    "extract-trace-mode": _trace_mode_case,
    # a flag can only turn --strict on, so it wins over `strict = false`
    "extract-strict": lambda fixtures_dir: (
        ["extract", *_roots(fixtures_dir / "badptr")], "strict", ("true", "false"),
        ["--strict"], lambda rc, out, err: rc, (0, 1, 1),
    ),
    "extract-exclude": _exclude_case,
    "stats-out": lambda fixtures_dir: (
        _stats_argv(fixtures_dir), "out", ("c", "c"), ["--out", "f"],
        lambda rc, out, err: out.splitlines()[-1],
        ("wrote stats.json and stats.txt", "wrote c/stats.json and c/stats.txt",
         "wrote f/stats.json and f/stats.txt"),
    ),
    "stats-lexicon": lambda fixtures_dir: (
        _stats_argv(fixtures_dir), "lexicon", ("c.tsv", "c.tsv"), ["--lexicon", "f.tsv"],
        lambda rc, out, err: err,
        ("", "error: IoError: [Errno 2] No such file or directory: 'c.tsv'\n",
         "error: IoError: [Errno 2] No such file or directory: 'f.tsv'\n"),
    ),
    "stats-t1": _threshold_case("t1", 0.05, "0.1", "0.2"),
    "stats-t2": _threshold_case("t2", 0.5, "0.6", "0.7"),
}


class TestConfigPrecedence:
    """Every config key, on each command that reads it: a flag wins over
    the config file, which wins over the flag's default."""

    @pytest.mark.parametrize("source", ["default", "config", "flag"])
    @pytest.mark.parametrize("case", list(PRECEDENCE))
    def test_precedence(self, case, source, fixtures_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv, key, config_values, flag, observe, expected = PRECEDENCE[case](fixtures_dir)
        if source != "default":
            value = config_values[source == "flag"]
            Path("run.conf").write_text(f"{key} = {value}\n", encoding="utf-8")
            argv = [*argv, "--config", "run.conf"]
        if source == "flag":
            argv = [*argv, *flag]
        rc = main(argv)
        captured = capsys.readouterr()
        shown = observe(rc, captured.out, captured.err)
        assert shown == expected[("default", "config", "flag").index(source)]


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

    @pytest.mark.parametrize(
        "text, err",
        [
            ("a,b\n1,2\n", "error: HeaderMismatch: expected header "
             "'sentence,treebanked_sentence,predicate,arg0,arg1,merged_arguments', got ['a', 'b']\n"),
            ("sentence,treebanked_sentence,predicate,arg0,arg1,merged_arguments\n"
             "s,t,p,a,b,a|b\na,b,c,d\n",
             "error: HeaderMismatch: row with 4 fields: ['a', 'b', 'c', 'd']\n"),
        ],
        ids=["header", "short-row"],
    )
    def test_header_mismatch(self, text, err, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(text, encoding="utf-8")
        out = tmp_path / "reports"
        rc = main(["stats", "--csv", str(bad), "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == err
        assert captured.out == ""
        assert not out.exists()

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

    def test_field_over_reader_limit(self, tmp_path, capsys):
        # the csv module reads no field longer than 131,072 characters
        path = tmp_path / "big.csv"
        header = "sentence,treebanked_sentence,predicate,arg0,arg1,merged_arguments\n"
        path.write_text(header + "s,t,p,a,b,a|b\n" + f"s,t,p,{'x' * 131_073},b,x|b\n",
                        encoding="utf-8")
        out = tmp_path / "reports"
        assert main(["stats", "--csv", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: MalformedDataset: {path}: line 3: field larger than field limit (131072)\n"
        )
        assert captured.out == ""
        assert not out.exists()

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

    def test_unparseable_files(self, read_fault_dir, tmp_path, capsys):
        assert main(["validate", *flags(read_fault_dir, "readfault")]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "file_id\ttree\tdetail",
            "00/wsj_0001\t-\tunparseable file: field '1::2-ARG1': bad pointer '1::2' in '1::2'",
            "01/wsj_0101\t-\tunparseable file: content after the root tree",
            "02/wsj_0201\t-\tunparseable file: plain sentence without a treebanked sentence",
            "3 violations",
        ]
        # extract skips each of them in the same words, or stops on the
        # first under --strict
        out = tmp_path / "d.csv"
        assert main(["extract", *flags(read_fault_dir, "readfault"), "--out", str(out)]) == 0
        assert (tmp_path / "d.csv.skiplog").read_text(encoding="utf-8").splitlines() == [
            "00/wsj_0001\tfield '1::2-ARG1': bad pointer '1::2' in '1::2'",
            "01/wsj_0101\tcontent after the root tree",
            "02/wsj_0201\tplain sentence without a treebanked sentence",
        ]
        capsys.readouterr()
        argv = ["extract", *flags(read_fault_dir, "readfault"), "--strict", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: ExtractionError: 00/wsj_0001: field '1::2-ARG1': bad pointer '1::2' in '1::2'\n"
        )

    @pytest.mark.parametrize("name", ["badptr", "misaligned", "partial", "swapped", "readfault"])
    def test_reports_every_extract_skip(self, name, fixtures_dir, tmp_path, request, capsys):
        corpora = request.getfixturevalue("read_fault_dir") if name == "readfault" else fixtures_dir
        out = tmp_path / "dataset.csv"
        assert main(["extract", *flags(corpora, name), "--out", str(out)]) == 0
        skipped = {
            skip_key(*line.split("\t"))
            for line in (tmp_path / "dataset.csv.skiplog").read_text().splitlines()
        }
        capsys.readouterr()
        assert main(["validate", *flags(corpora, name)]) == 1
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

    def test_out_of_range_tree_index_listed(self, fixtures_dir, tmp_path, capsys):
        # extract skips a proposition whose tree does not exist and validate
        # reports it; no tree shows it, so each tree's listing ends with it
        shutil.copytree(fixtures_dir / "corpus", tmp_path / "corpus")
        prop_path = tmp_path / "corpus" / "prop" / "00" / "wsj_0001.prop"
        with prop_path.open("a", encoding="utf-8") as f:
            f.write("f 5 2 x 0:1-ARG0 2:0-rel\n")
        unplaced = (
            "\n"
            "propositions with no tree: 1\n"
            "  line 5: f 5 2 x 0:1-ARG0 2:0-rel\n"
            "    error: AlignmentError: tree index 5 out of range (2 trees)\n"
        )
        good = (fixtures_dir / "golden" / "inspect_wsj_0001_tree1.txt").read_text(encoding="utf-8")
        assert main(["inspect", *flags(tmp_path), "--file", "00/wsj_0001", "--tree", "1"]) == 0
        assert capsys.readouterr().out == good + unplaced
        assert main(["inspect", *flags(tmp_path), "--file", "00/wsj_0001", "--tree", "0"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("-> 'the merger'\n" + unplaced)
        assert out.count("f 5 2 x") == 1

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


def spoil(path):
    """Append the bytes ff fe, which are not UTF-8, to a file; return the
    fault reading it gives."""
    offset = path.stat().st_size
    with open(path, "ab") as handle:
        handle.write(b"\xff\xfe")
    return f"{path}: not UTF-8 at byte offset {offset} (invalid start byte)"


class TestNotUtf8:
    """Input that is not UTF-8 is one fault that names the file and the
    byte offset, never a traceback."""

    def test_corpus_file(self, fixtures_dir, tmp_path, capsys):
        shutil.copytree(fixtures_dir / "corpus", tmp_path / "corpus")
        fault = spoil(tmp_path / "corpus" / "prop" / "00" / "wsj_0002.prop")
        # extract skips the file, or stops on it under --strict
        out = tmp_path / "d.csv"
        assert main(["extract", *flags(tmp_path), "--out", str(out)]) == 0
        assert "files skipped:       1\n" in capsys.readouterr().out
        assert (tmp_path / "d.csv.skiplog").read_text(encoding="utf-8") == (
            f"00/wsj_0002\t{fault}\n"
        )
        assert main(["extract", *flags(tmp_path), "--strict", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: ExtractionError: 00/wsj_0002: {fault}\n"
        assert main(["validate", *flags(tmp_path)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "file_id\ttree\tdetail",
            f"00/wsj_0002\t-\tunparseable file: {fault}",
            "1 violations",
        ]
        assert main(["inspect", *flags(tmp_path), "--file", "00/wsj_0002", "--tree", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: DecodeError: {fault}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--config", "--exclude", "--lexicon", "--csv"])
    def test_run_input(self, flag, fixtures_dir, golden_srl_csv, tmp_path, capsys):
        path = tmp_path / "input"
        if flag == "--config":
            path.write_text("schema = srl\n", encoding="utf-8")
        elif flag == "--exclude":
            path.write_text("00/wsj_0001\n", encoding="utf-8")
        else:
            shutil.copy(fixtures_dir / "lexicon.tsv" if flag == "--lexicon" else golden_srl_csv, path)
        fault = spoil(path)
        command = {
            "--config": ["extract", *flags(fixtures_dir)],
            "--exclude": ["extract", *flags(fixtures_dir)],
            "--lexicon": ["stats", "--csv", str(golden_srl_csv)],
            "--csv": ["stats"],
        }[flag]
        out = tmp_path / "out"
        assert main([*command, flag, str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: DecodeError: {fault}\n"
        assert captured.out == ""
        assert not out.exists()


class TestCollectorPause:
    """Each command runs with the cyclic collector paused, and `main`
    hands the collector back as it found it, however the command ends."""

    @pytest.mark.parametrize("command", ["extract", "validate", "stats"])
    def test_paused_while_the_command_runs(
        self, command, fixtures_dir, golden_srl_csv, tmp_path, monkeypatch, capsys
    ):
        module, name, argv = {
            "extract": (cli, "extract_corpus",
                        ["extract", *flags(fixtures_dir), "--out", str(tmp_path / "d.csv")]),
            "validate": (cli, "read_corpus", ["validate", *flags(fixtures_dir)]),
            "stats": (statsmod, "compute_stats",
                      ["stats", "--csv", str(golden_srl_csv), "--out", str(tmp_path)]),
        }[command]
        real, seen = getattr(module, name), []

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        assert gc.isenabled()
        assert main(argv) == 0
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("collecting", [True, False], ids=["caller-on", "caller-off"])
    @pytest.mark.parametrize("outcome", ["rc-0", "domain-error", "io-error", "help", "missing-flag"])
    def test_state_restored(self, outcome, collecting, fixtures_dir, tmp_path, capsys):
        argv, rc, err = {
            "rc-0": (["validate", *flags(fixtures_dir)], 0, ""),
            "domain-error": (["validate", *_roots(tmp_path / "nope")], 1, "error: MissingRoot:"),
            "io-error": (["stats", "--csv", str(tmp_path / "none.csv"), "--out", str(tmp_path)],
                         1, "error: IoError:"),
            "help": (["extract", "--help"], 0, ""),
            "missing-flag": (["stats"], 2, "usage: srlkit stats"),
        }[outcome]
        was_on = gc.isenabled()
        if not collecting:
            gc.disable()
        try:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's exit, for --help and a usage error
                code = exc.code
            assert (code, gc.isenabled()) == (rc, collecting)
            assert capsys.readouterr().err.startswith(err)
        finally:
            if was_on:
                gc.enable()

    @pytest.mark.parametrize("command", ["extract", "validate", "stats"])
    def test_garbage_left_does_not_grow_with_the_corpus(
        self, command, fixtures_dir, oracle_corpus, tmp_path, capsys
    ):
        """With the collector off, what a command leaves for it is a fixed
        amount (argparse's parser, and json's encoder for stats), the same
        on the small fixture corpus as on the larger oracle corpus."""

        def left(corpus, run):
            out = tmp_path / run
            out.mkdir()
            extract = ["extract", *_roots(corpus), "--out", str(out / "d.csv")]
            argv = {
                "extract": extract,
                "validate": ["validate", *_roots(corpus)],
                "stats": ["stats", "--csv", str(out / "d.csv"),
                          "--lexicon", str(fixtures_dir / "lexicon.tsv"), "--out", str(out)],
            }[command]
            if command == "stats":
                assert main(extract) == 0
            count = support.cyclic_garbage(lambda: main(argv))
            capsys.readouterr()
            return count

        assert left(fixtures_dir / "corpus", "fixture") == left(oracle_corpus, "oracle")
