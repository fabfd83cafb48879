"""Dataset statistics: argument-presence breakdown, predicate frequencies,
span lengths, and lexicon-based predicate sentiment with five-class
bucketing.

`compute_stats` is one fold: it reads each record once and keeps only
counts, a word sum per argument and a `Counter` of predicates, so over
`iter_dataset_csv`'s stream its memory grows with the distinct
predicates, not with the rows.

The sentiment scorer is the lexicon-sum core: token valences are summed
and normalized as s / sqrt(s^2 + 15), clamped to [-1, 1]. Buckets are
-2 below -t2, -1 in [-t2, -t1), 0 in [-t1, t1], +1 in (t1, t2], +2 above
t2; scores exactly at +-t1 are neutral, exactly at +-t2 are +-1.
"""

import itertools
import json
import math
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from srlkit.errors import (
    BadThresholds,
    EmptyInput,
    HeaderMismatch,
    LexiconError,
    MalformedDataset,
)
from srlkit.pipeline import (
    DEFAULT_T1,
    DEFAULT_T2,
    SRL_HEADER,
    SrlRecord,
    open_replacing,
    read_lines,
    read_text,
)

__all__ = [
    "ALPHA",
    "DEFAULT_T1",
    "DEFAULT_T2",
    "ArgBreakdown",
    "SpanLengthStats",
    "SentimentLexicon",
    "DatasetStats",
    "sentiment_score",
    "sentiment_bucket",
    "compute_stats",
    "emit_report",
    "iter_dataset_csv",
    "read_dataset_csv",
]

ALPHA = 15.0
SENTIMENT_CLASSES = (-2, -1, 0, 1, 2)
SCORE_BINS = 20  # fixed-width bins over [-1, 1]
TOP_K = 10  # predicates listed in the report


class ArgBreakdown(NamedTuple):
    both: int
    only_arg1: int
    only_arg0: int
    both_pct: float
    only_arg1_pct: float
    only_arg0_pct: float


class SpanLengthStats(NamedTuple):
    mean_arg0: float
    mean_arg1: float
    arg0_undefined: bool
    arg1_undefined: bool


class SentimentLexicon:
    """Case-insensitive token -> valence map; unknown tokens score 0."""

    def __init__(self, valences: dict[str, float]):
        self._valences = {tok.lower(): float(v) for tok, v in valences.items()}

    def valence(self, token: str) -> float:
        return self._valences.get(token.lower(), 0.0)

    def __len__(self) -> int:
        return len(self._valences)

    @classmethod
    def load(cls, path) -> "SentimentLexicon":
        """Read a `token<TAB>valence` file; `#` comments; extra columns ignored."""
        valences: dict[str, float] = {}
        for i, line in read_lines(path):
            fields = line.split("\t")
            if len(fields) < 2:
                raise LexiconError(f"line {i}: expected token<TAB>valence: {line!r}")
            try:
                value = float(fields[1])
            except ValueError:
                raise LexiconError(f"line {i}: bad valence {fields[1]!r}") from None
            if not -4.0 <= value <= 4.0:
                raise LexiconError(f"line {i}: valence {value} outside [-4, 4]")
            valences[fields[0]] = value
        return cls(valences)


class DatasetStats(NamedTuple):
    total_records: int
    breakdown: ArgBreakdown
    top_predicates: list[tuple[str, int]]
    span_lengths: SpanLengthStats
    t1: float
    t2: float
    distinct_predicates: int
    class_counts_types: dict[int, int]
    class_counts_tokens: dict[int, int]
    score_histogram_types: list[tuple[float, float, int]]


def sentiment_score(predicate: str, lexicon: SentimentLexicon) -> float:
    """Summed token valences normalized to a compound score in [-1, 1]."""
    total = sum(lexicon.valence(tok) for tok in predicate.split())
    if total == 0.0:
        return 0.0
    compound = total / math.sqrt(total * total + ALPHA)
    return max(-1.0, min(1.0, compound))


def sentiment_bucket(score: float, t1: float = DEFAULT_T1, t2: float = DEFAULT_T2) -> int:
    """Five-class bucket for a compound score; see module docstring."""
    if not (0.0 < t1 < t2 <= 1.0):
        raise BadThresholds(f"need 0 < t1 < t2 <= 1, got t1={t1} t2={t2}")
    if score < -t2:
        return -2
    if score < -t1:
        return -1
    if score <= t1:
        return 0
    if score <= t2:
        return 1
    return 2


def _score_histogram(scores) -> list[tuple[float, float, int]]:
    width = 2.0 / SCORE_BINS
    counts = [0] * SCORE_BINS
    for s in scores:
        idx = min(SCORE_BINS - 1, max(0, int((s + 1.0) / width)))
        counts[idx] += 1
    bins = []
    for i, count in enumerate(counts):
        bins.append((round(-1.0 + i * width, 2), round(-1.0 + (i + 1) * width, 2), count))
    return bins


def compute_stats(
    records,
    lexicon: SentimentLexicon | None = None,
    t1: float = DEFAULT_T1,
    t2: float = DEFAULT_T2,
) -> DatasetStats:
    """Fold the full statistics bundle over post-filter records, reading
    each record once as `records` yields it, so a one-shot iterator such
    as `iter_dataset_csv`'s gives what a list gives. A span counts when
    it is not empty; its length is its whitespace-token count."""
    total = n0 = n1 = both = words0 = words1 = 0
    type_counts = Counter()
    for r in records:
        total += 1
        type_counts[r.predicate] += 1
        if r.arg0:
            n0 += 1
            words0 += len(r.arg0.split())
        if r.arg1:
            n1 += 1
            words1 += len(r.arg1.split())
            if r.arg0:
                both += 1
    if not total:
        raise EmptyInput("no records to break down")
    if not (n0 or n1):
        raise EmptyInput("no non-empty spans")
    breakdown = ArgBreakdown(
        both=both,
        only_arg1=n1 - both,
        only_arg0=n0 - both,
        both_pct=round(100.0 * both / total, 1),
        only_arg1_pct=round(100.0 * (n1 - both) / total, 1),
        only_arg0_pct=round(100.0 * (n0 - both) / total, 1),
    )
    spans = SpanLengthStats(
        mean_arg0=round(words0 / n0, 1) if n0 else 0.0,
        mean_arg1=round(words1 / n1, 1) if n1 else 0.0,
        arg0_undefined=not n0,
        arg1_undefined=not n1,
    )
    # the TOP_K largest counts, ties broken lexicographically
    top = sorted(type_counts.items(), key=lambda item: (-item[1], item[0]))[:TOP_K]
    lexicon = lexicon or SentimentLexicon({})
    type_scores = {pred: sentiment_score(pred, lexicon) for pred in type_counts}
    class_types = {c: 0 for c in SENTIMENT_CLASSES}
    class_tokens = {c: 0 for c in SENTIMENT_CLASSES}
    for pred, score in type_scores.items():
        bucket = sentiment_bucket(score, t1, t2)
        class_types[bucket] += 1
        class_tokens[bucket] += type_counts[pred]
    return DatasetStats(
        total_records=total,
        breakdown=breakdown,
        top_predicates=top,
        span_lengths=spans,
        t1=t1,
        t2=t2,
        distinct_predicates=len(type_counts),
        class_counts_types=class_types,
        class_counts_tokens=class_tokens,
        score_histogram_types=_score_histogram(type_scores.values()),
    )


def _bar(count: int, peak: int, width: int = 40) -> str:
    if peak <= 0:
        return ""
    return "#" * max(0, round(width * count / peak))


def _stats_dict(stats: DatasetStats) -> dict:
    return {
        "total_records": stats.total_records,
        "argument_presence": stats.breakdown._asdict(),
        "top_predicates": [
            {"predicate": pred, "count": count} for pred, count in stats.top_predicates
        ],
        "span_lengths": stats.span_lengths._asdict(),
        "sentiment": {
            "t1": stats.t1,
            "t2": stats.t2,
            "distinct_predicates": stats.distinct_predicates,
            "class_counts_types": {str(c): stats.class_counts_types[c] for c in SENTIMENT_CLASSES},
            "class_counts_tokens": {str(c): stats.class_counts_tokens[c] for c in SENTIMENT_CLASSES},
            "score_histogram_types": [
                {"lo": lo, "hi": hi, "count": count}
                for lo, hi, count in stats.score_histogram_types
            ],
        },
    }


def _stats_text(stats: DatasetStats) -> str:
    lines = []
    b = stats.breakdown
    lines.append("argument presence")
    peak = max(b.both, b.only_arg1, b.only_arg0, 1)
    lines.append(f"  both ARG0 & ARG1  {b.both:>8}  {b.both_pct:>5.1f}%  {_bar(b.both, peak)}")
    lines.append(f"  only ARG1         {b.only_arg1:>8}  {b.only_arg1_pct:>5.1f}%  {_bar(b.only_arg1, peak)}")
    lines.append(f"  only ARG0         {b.only_arg0:>8}  {b.only_arg0_pct:>5.1f}%  {_bar(b.only_arg0, peak)}")
    lines.append("")
    lines.append("top predicates")
    peak = max((count for _, count in stats.top_predicates), default=1)
    for pred, count in stats.top_predicates:
        lines.append(f"  {pred:<20} {count:>8}  {_bar(count, peak)}")
    lines.append("")
    s = stats.span_lengths
    lines.append("mean span length (words)")
    lines.append(f"  arg0  {s.mean_arg0:>6.1f}{'  (undefined)' if s.arg0_undefined else ''}")
    lines.append(f"  arg1  {s.mean_arg1:>6.1f}{'  (undefined)' if s.arg1_undefined else ''}")
    lines.append("")
    lines.append(f"predicate sentiment (t1={stats.t1}, t2={stats.t2})")
    lines.append(f"  distinct predicates scored: {stats.distinct_predicates}")
    lines.append("  compound score histogram (types)")
    peak = max((count for _, _, count in stats.score_histogram_types), default=1)
    for lo, hi, count in stats.score_histogram_types:
        lines.append(f"    [{lo:>5.2f}, {hi:>5.2f})  {count:>8}  {_bar(count, peak)}")
    lines.append("  class frequencies")
    for basis, counts in (
        ("types", stats.class_counts_types),
        ("tokens", stats.class_counts_tokens),
    ):
        peak = max(list(counts.values()) + [1])
        lines.append(f"    by {basis}")
        for cls in SENTIMENT_CLASSES:
            lines.append(f"      {cls:>3}  {counts[cls]:>8}  {_bar(counts[cls], peak)}")
    lines.append("")
    return "\n".join(lines)


def emit_report(stats: DatasetStats, out_dir) -> tuple[Path, Path]:
    """Write stats.json and stats.txt under out_dir; deterministic output."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "stats.json"
    txt_path = out / "stats.txt"
    # nested, so both files are written before either replaces its target
    with open_replacing(json_path) as json_file, open_replacing(txt_path) as txt_file:
        json_file.write(json.dumps(_stats_dict(stats), indent=2) + "\n")
        txt_file.write(_stats_text(stats))
    return json_path, txt_path


def iter_dataset_csv(path):
    """Yield the records of an exported srl-schema dataset.csv one at a
    time, from the rows `csv.reader` reads as the file is read. A line is
    split at "," when it ends in "\n", is not just "\n" (the reader's []),
    is no longer than the reader's field limit, read as the read starts,
    and holds no '"', CR or NUL (before 3.11 the reader rejects NUL). Any
    other line starts a record that a reader reads from the same stream;
    it takes just the lines of that record, as it never reads past one.
    Text the reader rejects, such as a field over its size limit, is a
    MalformedDataset naming the file and the reader's line number. Bytes
    that are not UTF-8 anywhere in the file are `read_text`'s DecodeError,
    even after a header or row fault earlier in the file; the records
    yielded before a fault stay yielded."""
    import csv  # here, so only a dataset read loads it

    limit = csv.field_size_limit()
    done = 0  # lines consumed
    row, header_read = None, False
    try:
        with open(path, encoding="utf-8", newline="") as lines:
            for line in lines:
                if (line.endswith("\n") and 1 < len(line) <= limit
                        and '"' not in line and "\r" not in line and "\0" not in line):
                    done += 1
                    row = line[:-1].split(",")
                else:
                    reader = csv.reader(itertools.chain((line,), lines))
                    try:
                        row = next(reader)
                    except csv.Error as exc:
                        raise MalformedDataset(f"{path}: line {done + reader.line_num}: {exc}") from None
                    done += reader.line_num
                if header_read:
                    if len(row) != len(SRL_HEADER):
                        raise HeaderMismatch(f"row with {len(row)} fields: {row!r}")
                    yield SrlRecord(*row)
                elif row == SRL_HEADER:
                    header_read = True
                else:
                    break
        if not header_read:  # no lines, or the first row is not the header
            raise HeaderMismatch(f"expected header {','.join(SRL_HEADER)!r}, got {row!r}")
    except (UnicodeDecodeError, HeaderMismatch, MalformedDataset):
        read_text(path)  # bad bytes anywhere in the file: its DecodeError wins
        raise


def read_dataset_csv(path) -> list[SrlRecord]:
    """Load an exported srl-schema dataset.csv back into records; see
    `iter_dataset_csv`."""
    return list(iter_dataset_csv(path))
