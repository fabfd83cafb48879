"""The rows `csv.reader` reads from a file, found faster: the lines that
need no quoting are split at ",".

`stats.read_dataset_csv` imports this module when it runs, so a process
that only extracts neither loads it and `csv` nor compiles it.
"""

import csv
import itertools

from srlkit.errors import MalformedDataset

__all__ = ["csv_rows"]


def csv_rows(lines, path):
    """An iterator over the rows `csv.reader` reads from `lines`, the
    lines of a file opened with `newline=""`. A line is split at ","
    when it ends in "\n", is not just "\n" (the reader's []), is no
    longer than the reader's field limit, read at each call, and holds
    no '"', CR or NUL (before 3.11 the reader rejects NUL). Any other
    line starts a record that a reader reads from the same stream; it
    takes just the lines of that record, as it never reads past one.
    What the reader rejects is a MalformedDataset naming the file and
    the number of the line it stopped at."""
    limit = csv.field_size_limit()
    done = 0  # lines consumed
    for line in lines:
        if (line.endswith("\n") and 1 < len(line) <= limit
                and '"' not in line and "\r" not in line and "\0" not in line):
            done += 1
            yield line[:-1].split(",")
            continue
        reader = csv.reader(itertools.chain((line,), lines))
        try:
            row = next(reader)
        except csv.Error as exc:
            raise MalformedDataset(f"{path}: line {done + reader.line_num}: {exc}") from None
        done += reader.line_num
        yield row
