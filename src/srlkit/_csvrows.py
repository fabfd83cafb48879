"""The rows `csv.reader` reads from a text, found faster: the lines that
need no quoting are split at ",".

`stats.read_dataset_csv` imports this module when it runs, so a process
that only extracts neither loads it and `csv` nor compiles it.
"""

import csv
import io

from srlkit.errors import MalformedDataset

__all__ = ["csv_rows", "split_rows"]


def split_rows(text: str) -> list[list[str]] | None:
    """The rows `csv.reader` reads from `text`, or None where they may
    differ and the reader must read the whole text. A line with no '"'
    is split at ","; the lines with one are read by one reader, and each
    must give one row whose last field took no line end, else one of
    them opened a quoted field that runs on, which a '"' count cannot
    tell (`ab"c,"d` holds two)."""
    # the reader also ends a line at "\r", and before 3.11 rejects NUL
    if not text.endswith("\n") or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    lines.pop()
    # it reads an empty line as [], not [""]; its field limit is the
    # process's, so it is read at each call, and no field is longer
    # than its line
    if "" in lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    rows = [None if '"' in line else line.split(",") for line in lines]
    quoted = [i for i, row in enumerate(rows) if row is None]
    try:
        parsed = list(csv.reader([lines[i] + "\n" for i in quoted]))
    except csv.Error:
        return None
    if len(parsed) != len(quoted) or any("\n" in row[-1] for row in parsed):
        return None
    for i, row in zip(quoted, parsed):
        rows[i] = row
    return rows


def _reader_rows(text: str, path):
    """`csv.reader`'s rows of the whole text; what it rejects is a
    MalformedDataset naming the file and the reader's line number."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        yield from reader
    except csv.Error as exc:
        raise MalformedDataset(f"{path}: line {reader.line_num}: {exc}") from None


def csv_rows(text: str, path):
    """An iterator over `csv.reader`'s rows of `text`: `split_rows`' when
    it gives them, else the reader's over the whole text."""
    rows = split_rows(text)
    return iter(rows) if rows is not None else _reader_rows(text, path)
