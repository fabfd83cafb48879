import contextlib
import csv
import io
import json
import math
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import support
from srlkit.cli import main
from srlkit.errors import (
    BadThresholds,
    DecodeError,
    EmptyInput,
    HeaderMismatch,
    LexiconError,
    MalformedDataset,
)
from srlkit.pipeline import (
    SRL_HEADER,
    CorpusLayout,
    SrlRecord,
    csv_lines,
    export_csv,
    extract_corpus,
    read_text,
)
from srlkit.stats import (
    ALPHA,
    SentimentLexicon,
    arg_breakdown,
    compute_stats,
    emit_report,
    predicate_frequencies,
    read_dataset_csv,
    sentiment_bucket,
    sentiment_score,
    span_length_stats,
)


def rec(predicate="p", arg0="", arg1="", sentence="s"):
    return SrlRecord(sentence, sentence, predicate, arg0, arg1, f"{arg0}|{arg1}")


class TestArgBreakdown:
    def test_mini_fixture(self, fixtures_dir):
        records = read_dataset_csv(fixtures_dir / "stats_mini.csv")
        b = arg_breakdown(records)
        assert (b.both_pct, b.only_arg1_pct, b.only_arg0_pct) == (50.0, 25.0, 25.0)
        assert (b.both, b.only_arg1, b.only_arg0) == (2, 1, 1)

    def test_single_record(self):
        b = arg_breakdown([rec(arg0="a", arg1="b")])
        assert (b.both_pct, b.only_arg1_pct, b.only_arg0_pct) == (100.0, 0.0, 0.0)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            arg_breakdown([])

    def test_golden_breakdown(self, golden_records):
        b = arg_breakdown(golden_records)
        assert (b.both_pct, b.only_arg1_pct, b.only_arg0_pct) == (55.0, 40.0, 5.0)
        assert abs(b.both_pct + b.only_arg1_pct + b.only_arg0_pct - 100.0) <= 0.2


class TestPredicateFrequencies:
    def test_example(self):
        records = [rec("said"), rec("said"), rec("is")]
        assert predicate_frequencies(records, 2) == [("said", 2), ("is", 1)]

    def test_k_larger_than_vocabulary(self):
        records = [rec("a"), rec("b")]
        assert predicate_frequencies(records, 10) == [("a", 1), ("b", 1)]

    def test_tie_broken_lexicographically(self):
        records = [rec("zebra"), rec("apple")]
        assert predicate_frequencies(records, 2) == [("apple", 1), ("zebra", 1)]

    def test_counts_sum_to_total(self, golden_records):
        full = predicate_frequencies(golden_records, 10**6)
        assert sum(count for _, count in full) == len(golden_records)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            predicate_frequencies([rec()], 0)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            predicate_frequencies([], 3)


class TestSpanLengthStats:
    def test_example(self):
        records = [rec(arg0="He"), rec(arg0="The old man")]
        s = span_length_stats(records)
        assert s.mean_arg0 == 2.0
        assert s.arg1_undefined

    def test_undefined_class_flagged(self):
        s = span_length_stats([rec(arg1="a b")])
        assert s.mean_arg0 == 0.0
        assert s.arg0_undefined
        assert s.mean_arg1 == 2.0
        assert not s.arg1_undefined

    def test_single_one_word_span(self):
        s = span_length_stats([rec(arg0="He")])
        assert s.mean_arg0 == 1.0

    def test_no_spans_at_all(self):
        with pytest.raises(EmptyInput):
            span_length_stats([rec(), rec()])

    def test_matches_bruteforce_on_golden_csv(self, golden_srl_csv):
        records = read_dataset_csv(golden_srl_csv)
        s = span_length_stats(records)
        arg0 = [len(r.arg0.split()) for r in records if r.arg0]
        arg1 = [len(r.arg1.split()) for r in records if r.arg1]
        assert s.mean_arg0 == round(sum(arg0) / len(arg0), 1)
        assert s.mean_arg1 == round(sum(arg1) / len(arg1), 1)


class TestSentimentScore:
    def test_unknown_token_scores_zero(self):
        assert sentiment_score("unseen", SentimentLexicon({})) == 0.0

    def test_normalization_formula(self):
        lexicon = SentimentLexicon({"good": 1.9})
        expected = 1.9 / math.sqrt(1.9 * 1.9 + ALPHA)
        assert abs(sentiment_score("good", lexicon) - expected) < 1e-9

    def test_case_insensitive_lookup(self):
        lexicon = SentimentLexicon({"Good": 1.9})
        assert sentiment_score("GOOD", lexicon) == sentiment_score("good", lexicon)

    def test_multi_token_sum(self):
        lexicon = SentimentLexicon({"very": 0.5, "good": 1.9})
        total = 2.4
        assert abs(
            sentiment_score("very good", lexicon) - total / math.sqrt(total**2 + ALPHA)
        ) < 1e-9

    @given(st.floats(min_value=0.01, max_value=4.0))
    def test_antisymmetry(self, v):
        pos = sentiment_score("tok", SentimentLexicon({"tok": v}))
        neg = sentiment_score("tok", SentimentLexicon({"tok": -v}))
        assert abs(pos + neg) < 1e-12

    @given(st.floats(min_value=-4.0, max_value=4.0))
    def test_bounded(self, v):
        score = sentiment_score("tok", SentimentLexicon({"tok": v}))
        assert -1.0 <= score <= 1.0
        if v != 0:
            assert abs(score) < 1.0

    def test_strictly_increasing_in_valence(self):
        scores = [
            sentiment_score("tok", SentimentLexicon({"tok": v / 10}))
            for v in range(-40, 41)
        ]
        assert all(a < b for a, b in zip(scores, scores[1:]))


class TestSentimentBucket:
    def test_neutral_center(self):
        assert sentiment_bucket(0.0) == 0

    def test_boundary_inclusivity(self):
        t1, t2 = 0.05, 0.5
        assert sentiment_bucket(t1, t1, t2) == 0
        assert sentiment_bucket(-t1, t1, t2) == 0
        assert sentiment_bucket(t2, t1, t2) == 1
        assert sentiment_bucket(-t2, t1, t2) == -1
        assert sentiment_bucket(math.nextafter(t2, 2), t1, t2) == 2
        assert sentiment_bucket(math.nextafter(-t2, -2), t1, t2) == -2

    def test_bad_thresholds(self):
        for t1, t2 in ((0.5, 0.05), (0.0, 0.5), (0.05, 1.5), (-0.1, 0.5), (0.3, 0.3)):
            with pytest.raises(BadThresholds):
                sentiment_bucket(0.0, t1, t2)

    def test_monotone(self):
        prev = -2
        for i in range(-100, 101):
            cls = sentiment_bucket(i / 100)
            assert cls >= prev
            prev = cls

    def test_all_five_classes_reachable(self):
        seen = {sentiment_bucket(s) for s in (-0.9, -0.3, 0.0, 0.3, 0.9)}
        assert seen == {-2, -1, 0, 1, 2}


class TestSentimentLexicon:
    def test_load_fixture(self, fixtures_dir):
        lexicon = SentimentLexicon.load(fixtures_dir / "lexicon.tsv")
        assert lexicon.valence("applauded") == 1.6
        assert lexicon.valence("APPLAUDED") == 1.6
        assert lexicon.valence("missing") == 0.0
        assert len(lexicon) == 7

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("good\t1.9\t0.5\t[2, 2, 1]\n", encoding="utf-8")
        assert SentimentLexicon.load(path).valence("good") == 1.9

    @pytest.mark.parametrize(
        "bom, eol",
        [("", "\n"), ("", "\r\n"), ("\ufeff", "\n"), ("\ufeff", "\r\n")],
        ids=["lf", "crlf", "bom-lf", "bom-crlf"],
    )
    def test_skipped_lines_are_counted(self, bom, eol, tmp_path):
        # each line is stripped; blank, whitespace-only and `#` lines,
        # indented or not, are skipped, and an error's line number counts
        # them; a leading byte-order mark is dropped
        path = tmp_path / "lex.tsv"
        skipped = ["# comment", "  # indented", " \t ", ""]
        path.write_bytes((bom + eol.join([*skipped, "  good\t1.9 ", ""])).encode("utf-8"))
        lexicon = SentimentLexicon.load(path)
        assert (len(lexicon), lexicon.valence("good")) == (1, 1.9)
        path.write_bytes((bom + eol.join(["good\t1.9", ""])).encode("utf-8"))
        assert SentimentLexicon.load(path).valence("good") == 1.9
        path.write_bytes((bom + eol.join([*skipped, "good\t1.9", "tok\t4.5", ""])).encode("utf-8"))
        with pytest.raises(LexiconError, match=r"^line 6: valence 4\.5 outside \[-4, 4\]$"):
            SentimentLexicon.load(path)

    def test_bad_line(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("just-a-token\n", encoding="utf-8")
        with pytest.raises(LexiconError):
            SentimentLexicon.load(path)

    def test_bad_valence(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("tok\tnot-a-number\n", encoding="utf-8")
        with pytest.raises(LexiconError):
            SentimentLexicon.load(path)

    def test_out_of_range_valence(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("tok\t4.5\n", encoding="utf-8")
        with pytest.raises(LexiconError):
            SentimentLexicon.load(path)


class TestComputeStats:
    def test_golden_with_lexicon(self, golden_records, fixtures_dir):
        lexicon = SentimentLexicon.load(fixtures_dir / "lexicon.tsv")
        stats = compute_stats(golden_records, lexicon=lexicon)
        assert stats.total_records == 20
        assert stats.top_predicates[:2] == [("said", 4), ("is", 2)]
        assert stats.distinct_predicates == 16
        # applauded -> +1; rejected, fail, fell, collapsed -> -1; rest neutral
        assert stats.class_counts_types == {-2: 0, -1: 4, 0: 11, 1: 1, 2: 0}
        assert stats.class_counts_tokens == {-2: 0, -1: 4, 0: 15, 1: 1, 2: 0}

    def test_type_histogram_sums_to_distinct_predicates(self, golden_records):
        stats = compute_stats(golden_records)
        assert sum(c for _, _, c in stats.score_histogram_types) == stats.distinct_predicates
        assert sum(stats.class_counts_types.values()) == stats.distinct_predicates
        assert sum(stats.class_counts_tokens.values()) == stats.total_records


class TestEmitReport:
    def test_breakdown_section_matches_operation(self, golden_records, tmp_path):
        stats = compute_stats(golden_records)
        json_path, _ = emit_report(stats, tmp_path)
        data = json.loads(json_path.read_text(encoding="utf-8"))
        b = arg_breakdown(golden_records)
        assert data["argument_presence"]["both_pct"] == b.both_pct
        assert data["argument_presence"]["only_arg1_pct"] == b.only_arg1_pct
        assert data["argument_presence"]["only_arg0_pct"] == b.only_arg0_pct

    def test_deterministic(self, golden_records, tmp_path):
        stats = compute_stats(golden_records)
        j1, t1 = emit_report(stats, tmp_path / "a")
        j2, t2 = emit_report(stats, tmp_path / "b")
        assert j1.read_bytes() == j2.read_bytes()
        assert t1.read_bytes() == t2.read_bytes()

    def test_zero_count_histogram_section_present(self, tmp_path):
        stats = compute_stats([rec("said", arg0="He", arg1="it")])
        _, txt_path = emit_report(stats, tmp_path)
        text = txt_path.read_text(encoding="utf-8")
        assert "compound score histogram" in text
        assert "class frequencies" in text

    def test_thresholds_echoed(self, golden_records, tmp_path):
        stats = compute_stats(golden_records, t1=0.1, t2=0.6)
        json_path, _ = emit_report(stats, tmp_path)
        data = json.loads(json_path.read_text(encoding="utf-8"))
        assert data["sentiment"]["t1"] == 0.1
        assert data["sentiment"]["t2"] == 0.6


class TestReadDatasetCsv:
    def test_golden_roundtrip(self, golden_records, golden_srl_csv):
        loaded = read_dataset_csv(golden_srl_csv)
        assert [(r.predicate, r.arg0, r.arg1) for r in loaded] == [
            (r.predicate, r.arg0, r.arg1) for r in golden_records
        ]

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sentence,predicate\nfoo,bar\n", encoding="utf-8")
        with pytest.raises(HeaderMismatch):
            read_dataset_csv(path)

    def test_reader_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(
            "sentence,treebanked_sentence,predicate,arg0,arg1,merged_arguments\n"
            f'"{"x" * 200_000}",t,p,a,b,a|b\n',
            encoding="utf-8",
        )
        message = f"{path}: line 2: field larger than field limit (131072)"
        with pytest.raises(MalformedDataset) as caught:
            read_dataset_csv(path)
        assert str(caught.value) == message


HEADER_LINE = ",".join(SRL_HEADER) + "\n"
# the characters that steer csv.reader, and a few it passes through
CSV_ALPHABET = ',"\n\r\x00\x0b é'


def _whole_file_read(path):
    """read_dataset_csv as one csv.reader over the whole file: the rows
    and errors its per-line reader must keep."""
    reader = csv.reader(io.StringIO(path.read_bytes().decode("utf-8"), newline=""))
    try:
        header = next(reader, None)
        if header != SRL_HEADER:
            raise HeaderMismatch(f"expected header {','.join(SRL_HEADER)!r}, got {header!r}")
        records = []
        for row in reader:
            if len(row) != len(SRL_HEADER):
                raise HeaderMismatch(f"row with {len(row)} fields: {row!r}")
            records.append(SrlRecord(*row))
    except csv.Error as exc:
        raise MalformedDataset(f"{path}: line {reader.line_num}: {exc}") from None
    return records


def _outcome(read, path):
    """read(path)'s records, or the class and message of what it raised."""
    try:
        return read(path)
    except (HeaderMismatch, MalformedDataset) as exc:
        return type(exc), str(exc)


def _same_as_reader(path, text):
    """Write text to path; read_dataset_csv gives what the whole-file
    reader gives."""
    path.write_text(text, encoding="utf-8", newline="")
    assert _outcome(read_dataset_csv, path) == _outcome(_whole_file_read, path)


@contextlib.contextmanager
def _field_limit(limit):
    old = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("split") / "d.csv"


_fields = st.text(CSV_ALPHABET, max_size=5)
_texts = st.one_of(
    # what export_csv writes, of rows with about the header's field count
    st.lists(st.lists(_fields, min_size=5, max_size=7), max_size=6).map(
        lambda rows: csv_lines([SRL_HEADER, *rows])),
    # the header, then lines of six unquoted fields
    st.lists(st.lists(_fields, min_size=6, max_size=6).map(",".join), max_size=6).map(
        lambda lines: HEADER_LINE + "\n".join(lines)),
    # anything
    st.tuples(st.sampled_from(["", HEADER_LINE]), st.text(CSV_ALPHABET, max_size=60)).map("".join),
)


class TestSplitPath:
    """read_dataset_csv splits each line that needs no quoting at "," and
    hands any other line to csv.reader, which reads that line's record
    from the file; its rows and errors are the whole-file reader's."""

    @settings(max_examples=300)
    @given(text=_texts, limit=st.sampled_from([None, 6]))
    def test_reads_what_the_reader_reads(self, csv_path, text, limit):
        with _field_limit(limit if limit is not None else csv.field_size_limit()):
            _same_as_reader(csv_path, text)

    def test_splits_written_csv(self, csv_path, golden_srl_csv):
        text = golden_srl_csv.read_bytes().decode("utf-8")
        assert '"' in text
        _same_as_reader(csv_path, text)

    def test_splits_header_only(self, csv_path):
        _same_as_reader(csv_path, HEADER_LINE)
        assert read_dataset_csv(csv_path) == []

    @pytest.mark.parametrize(
        "body",
        [
            "s,t,p,a,b,a|b",  # no final line end
            "s,t,p,a,b,a|b\r\n",  # the reader ends lines at CR too
            "\ns,t,p,a,b,a|b\n",  # an empty line, which the reader reads as []
            'a,b,c,d,e,"\nx,y\n',  # a quote opened at the end of its line runs on
            'ab"c,"d\nx,y\n',  # two quotes, and still a field that runs on
            '"s,t\np\nq",a,b,a|b\n',  # two quoted lines read as one row
        ],
        ids=["no-final-newline", "cr", "empty-line", "quote-at-line-end",
             "even-quotes-run-on", "quoted-lines-join"],
    )
    def test_falls_back(self, csv_path, body):
        _same_as_reader(csv_path, HEADER_LINE + body)

    def test_falls_back_on_a_line_over_the_field_limit(self, csv_path):
        # no field is over the limit, one line is; the header line is 66 long
        with _field_limit(70):
            line = "s,t,p,a,b," + "x" * 60
            _same_as_reader(csv_path, HEADER_LINE + line + "\n")
            _same_as_reader(csv_path, HEADER_LINE + line + "y\n")

    def test_falls_back_when_the_quoted_lines_raise(self, csv_path):
        # each line is within the limit, but the field the two quoted
        # lines join into is not
        with _field_limit(70):
            text = HEADER_LINE + '"' + "a" * 40 + "\n" + "b" * 40 + '",t,p,a,b,a|b\n'
            _same_as_reader(csv_path, text)
            assert _outcome(read_dataset_csv, csv_path) == (
                MalformedDataset, f"{csv_path}: line 3: field larger than field limit (70)")

    def test_nul_reads_as_the_reader_reads(self, csv_path):
        # Python 3.10's reader rejects NUL; later ones read it as a character
        _same_as_reader(csv_path, HEADER_LINE + "s\x00,t,p,a,b,a|b\n")
        if sys.version_info < (3, 11):
            assert _outcome(read_dataset_csv, csv_path) == (
                MalformedDataset, f"{csv_path}: line 2: line contains NUL")
        else:
            assert read_dataset_csv(csv_path) == [SrlRecord("s\x00", "t", "p", "a", "b", "a|b")]

    def test_a_bad_row_before_a_reader_error_wins(self, csv_path):
        text = HEADER_LINE + "s,t\n" + f'"{"x" * 200_000}",t,p,a,b,a|b\n'
        _same_as_reader(csv_path, text)
        assert _outcome(read_dataset_csv, csv_path) == (
            HeaderMismatch, "row with 2 fields: ['s', 't']")

    @pytest.mark.parametrize("shift", range(-2, 3))
    @pytest.mark.parametrize("end", ["\r\n", "\r", "\n"], ids=["crlf", "lone-cr", "quoted"])
    def test_line_end_at_the_read_chunk(self, csv_path, end, shift):
        # the text layer reads a file 8,192 bytes at a time, here 8,192
        # characters; put a CRLF, a lone CR or a quoted field's line end
        # at that boundary, give or take a few characters
        if end == "\n":
            row = '"s' + "x" * (8_192 + shift - len(HEADER_LINE) - 2) + '\nmore",t,p,a,b,c\n'
        else:
            row = "s" + "x" * (8_192 + shift - len(HEADER_LINE) - 11) + ",t,p,a,b,c" + end
        text = HEADER_LINE + row + "u,v,w,x,y,z\n"
        assert text.index(end, len(HEADER_LINE)) == 8_192 + shift
        _same_as_reader(csv_path, text)
        assert len(read_dataset_csv(csv_path)) == 2


class TestDecodeErrorFirst:
    """Bytes that are not UTF-8 anywhere in the dataset are read_text's
    DecodeError, with its whole-file offset, also when a header or row
    fault comes before them."""

    @pytest.mark.parametrize(
        "head",
        [
            "sentence,predicate\n",
            HEADER_LINE + "s,t\n",
            HEADER_LINE + f'"{"x" * 200_000}",t,p,a,b,a|b\n',
        ],
        ids=["bad-header", "short-row", "field-over-limit"],
    )
    def test_decode_error_wins(self, head, tmp_path, capsys):
        path = tmp_path / "d.csv"
        data = (head + "s,t,p,a,b,a|b\n" * 1_000).encode("utf-8")
        assert len(data) > 8_192  # past the text layer's first read
        path.write_bytes(data + b"\xff" + b"s,t,p,a,b,a|b\n")
        fault = f"{path}: not UTF-8 at byte offset {len(data)} (invalid start byte)"
        for read in (read_text, read_dataset_csv):
            with pytest.raises(DecodeError) as caught:
                read(path)
            assert str(caught.value) == fault
        assert main(["stats", "--csv", str(path), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: DecodeError: {fault}\n"
        assert captured.out == ""


def test_read_holds_little_beyond_its_records(tmp_path):
    # the file is read a line at a time, so what the read holds at its
    # peak beyond the records it returns is small next to the file
    rows = [[f"the sentence {i} of the set", "the treebanked sentence", f"p{i % 50}",
             "a, b" if i % 10 == 0 else "a b", "c", "a|c"] for i in range(15_000)]
    path = tmp_path / "d.csv"
    path.write_text(csv_lines([SRL_HEADER, *rows]), encoding="utf-8", newline="")
    size = path.stat().st_size
    assert size > 1_000_000
    tracemalloc.start()
    try:
        records = read_dataset_csv(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == len(rows)
    assert peak - held < size / 4


def test_stats_make_no_garbage_cycles(any_corpus, fixtures_dir, tmp_path):
    # what the stats command runs, over the CSV extract writes from each corpus
    layout = CorpusLayout(*(any_corpus / ext for ext in ("prop", "onf", "parse")))
    csv_path = tmp_path / "d.csv"
    export_csv(extract_corpus(layout).records, csv_path)

    def run():
        records = read_dataset_csv(csv_path)
        lexicon = SentimentLexicon.load(fixtures_dir / "lexicon.tsv")
        try:
            compute_stats(records, lexicon=lexicon)
        except EmptyInput:  # every proposition of the corpus was skipped
            assert not records

    assert support.cyclic_garbage(run) == 0
