import contextlib
import csv
import io
import json
import math
import sys
import tracemalloc
from collections import Counter

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
    DEFAULT_T1,
    DEFAULT_T2,
    ArgBreakdown,
    DatasetStats,
    SentimentLexicon,
    SpanLengthStats,
    compute_stats,
    emit_report,
    iter_dataset_csv,
    read_dataset_csv,
    sentiment_bucket,
    sentiment_score,
)


def rec(predicate="p", arg0="", arg1="", sentence="s"):
    return SrlRecord(sentence, sentence, predicate, arg0, arg1, f"{arg0}|{arg1}")


def top_predicates(*predicates):
    """compute_stats' top predicates over one record per predicate, each
    with an ARG0, so the fold has a span to measure."""
    return compute_stats([rec(p, arg0="a") for p in predicates]).top_predicates


class TestArgBreakdown:
    def test_mini_fixture(self, fixtures_dir):
        records = read_dataset_csv(fixtures_dir / "stats_mini.csv")
        b = compute_stats(records).breakdown
        assert (b.both_pct, b.only_arg1_pct, b.only_arg0_pct) == (50.0, 25.0, 25.0)
        assert (b.both, b.only_arg1, b.only_arg0) == (2, 1, 1)

    def test_single_record(self):
        b = compute_stats([rec(arg0="a", arg1="b")]).breakdown
        assert (b.both_pct, b.only_arg1_pct, b.only_arg0_pct) == (100.0, 0.0, 0.0)

    def test_empty_input(self):
        with pytest.raises(EmptyInput, match="^no records to break down$"):
            compute_stats([])

    def test_golden_breakdown(self, golden_records):
        b = compute_stats(golden_records).breakdown
        assert (b.both_pct, b.only_arg1_pct, b.only_arg0_pct) == (55.0, 40.0, 5.0)
        assert abs(b.both_pct + b.only_arg1_pct + b.only_arg0_pct - 100.0) <= 0.2


class TestPredicateFrequencies:
    def test_example(self):
        assert top_predicates("said", "said", "is") == [("said", 2), ("is", 1)]

    def test_k_larger_than_vocabulary(self):
        # fewer than ten predicates: each is listed
        assert top_predicates("a", "b") == [("a", 1), ("b", 1)]

    def test_ten_listed(self):
        predicates = [f"p{i:02}" for i in range(12)]
        assert top_predicates("p11", *predicates) == [
            ("p11", 2), *((p, 1) for p in predicates[:9])]

    def test_tie_broken_lexicographically(self):
        assert top_predicates("zebra", "apple") == [("apple", 1), ("zebra", 1)]

    def test_counts_sum_to_total(self, golden_records):
        stats = compute_stats(golden_records)
        assert stats.total_records == len(golden_records)
        assert sum(stats.class_counts_tokens.values()) == len(golden_records)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            compute_stats([])


class TestSpanLengthStats:
    def test_example(self):
        records = [rec(arg0="He"), rec(arg0="The old man")]
        s = compute_stats(records).span_lengths
        assert s.mean_arg0 == 2.0
        assert s.arg1_undefined

    def test_undefined_class_flagged(self):
        s = compute_stats([rec(arg1="a b")]).span_lengths
        assert s.mean_arg0 == 0.0
        assert s.arg0_undefined
        assert s.mean_arg1 == 2.0
        assert not s.arg1_undefined

    def test_single_one_word_span(self):
        s = compute_stats([rec(arg0="He")]).span_lengths
        assert s.mean_arg0 == 1.0

    def test_no_spans_at_all(self):
        with pytest.raises(EmptyInput, match="^no non-empty spans$"):
            compute_stats([rec(), rec()])

    def test_matches_bruteforce_on_golden_csv(self, golden_srl_csv):
        records = read_dataset_csv(golden_srl_csv)
        s = compute_stats(records).span_lengths
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


def _list_stats(records, lexicon=None, t1=DEFAULT_T1, t2=DEFAULT_T2):
    """The statistics bundle from list formulas, a walk per value: the
    reference compute_stats' one fold is held to."""
    records = list(records)
    if not records:
        raise EmptyInput("no records to break down")
    total = len(records)
    both = sum(1 for r in records if r.arg0 and r.arg1)
    only1 = sum(1 for r in records if not r.arg0 and r.arg1)
    only0 = sum(1 for r in records if r.arg0 and not r.arg1)
    breakdown = ArgBreakdown(both, only1, only0, round(100.0 * both / total, 1),
                             round(100.0 * only1 / total, 1), round(100.0 * only0 / total, 1))
    type_counts = Counter(r.predicate for r in records)
    top = sorted(type_counts.items(), key=lambda item: (-item[1], item[0]))[:10]
    arg0_lengths = [len(r.arg0.split()) for r in records if r.arg0]
    arg1_lengths = [len(r.arg1.split()) for r in records if r.arg1]
    if not arg0_lengths and not arg1_lengths:
        raise EmptyInput("no non-empty spans")
    spans = SpanLengthStats(
        round(sum(arg0_lengths) / len(arg0_lengths), 1) if arg0_lengths else 0.0,
        round(sum(arg1_lengths) / len(arg1_lengths), 1) if arg1_lengths else 0.0,
        not arg0_lengths,
        not arg1_lengths,
    )
    lexicon = lexicon or SentimentLexicon({})
    scores = {pred: sentiment_score(pred, lexicon) for pred in sorted(type_counts)}
    buckets = {pred: sentiment_bucket(score, t1, t2) for pred, score in scores.items()}
    classes = (-2, -1, 0, 1, 2)
    width = 2.0 / 20
    bins = [min(19, max(0, int((score + 1.0) / width))) for score in scores.values()]
    return DatasetStats(
        total_records=total,
        breakdown=breakdown,
        top_predicates=top,
        span_lengths=spans,
        t1=t1,
        t2=t2,
        distinct_predicates=len(type_counts),
        class_counts_types={c: sum(1 for b in buckets.values() if b == c) for c in classes},
        class_counts_tokens={c: sum(type_counts[p] for p, b in buckets.items() if b == c)
                             for c in classes},
        score_histogram_types=[
            (round(-1.0 + i * width, 2), round(-1.0 + (i + 1) * width, 2), bins.count(i))
            for i in range(20)],
    )


def _stats_outcome(stats, records, *args):
    """stats(records, *args), or the class and message of what it raised."""
    try:
        return stats(records, *args)
    except (EmptyInput, BadThresholds) as exc:
        return type(exc), str(exc)


# empty, whitespace-only, one-word and multi-word spans
_spans = st.one_of(st.sampled_from(["", " ", "\t \n", "He", "the old man"]),
                   st.text(" \tab", max_size=6))
_record = st.builds(
    rec,
    # few predicates, so they repeat, and often more than the ten listed
    predicate=st.one_of(st.sampled_from(["said", "good news", "bad"]),
                        st.integers(0, 14).map("p{}".format), st.text("ab", max_size=2)),
    arg0=_spans,
    arg1=_spans,
)
_records = st.one_of(st.lists(_record, max_size=8), st.lists(_record, min_size=11, max_size=20))
_lexicon = SentimentLexicon({"good": 1.9, "bad": -2.5, "said": 0.3, "a": 0.1, "b": -4.0})


class TestFold:
    """compute_stats reads its records once, and gives what the list
    formulas give, outcome for outcome."""

    @settings(max_examples=200)
    @given(records=_records, lexicon=st.sampled_from([None, _lexicon]),
           thresholds=st.sampled_from([(DEFAULT_T1, DEFAULT_T2), (0.1, 0.6), (0.5, 0.05)]))
    def test_matches_the_list_formulas(self, records, lexicon, thresholds):
        expected = _stats_outcome(_list_stats, records, lexicon, *thresholds)
        assert _stats_outcome(compute_stats, records, lexicon, *thresholds) == expected
        one_shot = (r for r in records)
        assert _stats_outcome(compute_stats, one_shot, lexicon, *thresholds) == expected
        assert next(one_shot, None) is None

    def test_streamed_read_gives_the_listed_bundle(self, fixtures_dir, golden_srl_csv):
        lexicon = SentimentLexicon.load(fixtures_dir / "lexicon.tsv")
        for path in (golden_srl_csv, fixtures_dir / "stats_mini.csv"):
            assert compute_stats(iter_dataset_csv(path), lexicon) == compute_stats(
                read_dataset_csv(path), lexicon)


class TestEmitReport:
    def test_breakdown_section_matches_operation(self, golden_records, tmp_path):
        stats = compute_stats(golden_records)
        json_path, _ = emit_report(stats, tmp_path)
        data = json.loads(json_path.read_text(encoding="utf-8"))
        b = stats.breakdown
        assert (b.both_pct, b.only_arg1_pct, b.only_arg0_pct) == (55.0, 40.0, 5.0)
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


def test_stats_peak_memory_does_not_grow_with_the_csv(fixtures_dir, tmp_path, capsys):
    """The stats command folds each row as it reads it, so its peak traced
    memory on a 12,000-row CSV exceeds that on a 3,000-row one by little.
    Keeping every row first cost 6.6 times the CSV's growth; folding them
    as they are read, nothing measurable on either kernel."""

    def run(n):
        rows = [[f"the sentence {i} of the set", "the treebanked sentence", f"p{i % 50}",
                 "a, b" if i % 10 == 0 else "a b", "c", "a|c"] for i in range(n)]
        path = tmp_path / f"d{n}.csv"
        path.write_text(csv_lines([SRL_HEADER, *rows]), encoding="utf-8", newline="")
        del rows
        argv = ["stats", "--csv", str(path), "--lexicon", str(fixtures_dir / "lexicon.tsv"),
                "--out", str(tmp_path / f"out{n}")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        return peak, path.stat().st_size

    run(100)  # imports and first-call caches are not the dataset's
    (peak, csv_bytes), (peak4, csv_bytes4) = run(3_000), run(12_000)
    assert peak4 - peak < 0.3 * (csv_bytes4 - csv_bytes)


def _stats_run(csv_path, lexicon_path):
    """What the stats command computes, in its order: the lexicon, then
    the fold over the streamed read."""
    lexicon = SentimentLexicon.load(lexicon_path)
    return compute_stats(iter_dataset_csv(csv_path), lexicon=lexicon)


def test_stats_make_no_garbage_cycles(any_corpus, fixtures_dir, tmp_path):
    # what the stats command runs, over the CSV extract writes from each corpus
    layout = CorpusLayout(*(any_corpus / ext for ext in ("prop", "onf", "parse")))
    csv_path = tmp_path / "d.csv"
    export_csv(extract_corpus(layout).records, csv_path)
    empty = not read_dataset_csv(csv_path)  # every proposition of the corpus was skipped

    def run():
        try:
            _stats_run(csv_path, fixtures_dir / "lexicon.tsv")
        except EmptyInput:
            assert empty

    assert support.cyclic_garbage(run) == 0


@pytest.mark.parametrize("fault", [b"s,t\n", b"\xff"], ids=["bad-row", "not-utf8"])
def test_a_failed_stats_read_makes_no_garbage_cycles(fault, fixtures_dir, tmp_path):
    # the read raises midway, out of the generator the fold is reading
    path = tmp_path / "d.csv"
    rows = b"s,t,p,a,b,a|b\n" * 1_000
    path.write_bytes(HEADER_LINE.encode("utf-8") + rows + fault + rows)

    def run():
        try:
            _stats_run(path, fixtures_dir / "lexicon.tsv")
        except (HeaderMismatch, DecodeError):
            pass
        else:
            raise AssertionError("the read did not fail")

    assert support.cyclic_garbage(run) == 0


# each case has two faults, and the one the command reports comes first;
# the lexicon is b"..." bytes, MISSING (a path with no file) or None (no flag)
MISSING = object()
_ERROR_ORDER = {
    # the lexicon is read before the dataset
    "lexicon-before-header": ("sentence,predicate\n", b"tok\n", [], "LexiconError"),
    "lexicon-decode-before-malformed": (
        HEADER_LINE + f'"{"x" * 200_000}",t,p,a,b,a|b\n', b"\xff\n", [], "DecodeError"),
    "lexicon-missing-before-decode": (b"\xff", MISSING, [], "IoError"),
    # the thresholds are checked after the dataset is read
    "empty-before-thresholds": (HEADER_LINE, b"good\t1.9\n", ["--t1", "0.6"], "EmptyInput"),
    "header-before-thresholds": ("sentence,predicate\n", None, ["--t1", "0.6"], "HeaderMismatch"),
    "lexicon-before-thresholds": (HEADER_LINE + "s,t,p,a,b,a|b\n", b"tok\n", ["--t1", "0.6"],
                                  "LexiconError"),
}


@pytest.mark.parametrize("case", list(_ERROR_ORDER))
def test_stats_error_order(case, tmp_path, capsys):
    dataset, lexicon, flags, error = _ERROR_ORDER[case]
    csv_path, lexicon_path, out = tmp_path / "d.csv", tmp_path / "lex.tsv", tmp_path / "out"
    csv_path.write_bytes(dataset.encode("utf-8") if isinstance(dataset, str) else dataset)
    if isinstance(lexicon, bytes):
        lexicon_path.write_bytes(lexicon)
    if lexicon is not None:
        flags = [*flags, "--lexicon", str(lexicon_path)]
    assert main(["stats", "--csv", str(csv_path), "--out", str(out), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {error}: ")
    if error in ("DecodeError", "IoError"):  # the class either file could raise
        assert str(lexicon_path) in captured.err
    assert str(csv_path) not in captured.err
    assert not out.exists()
