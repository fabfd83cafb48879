"""Readers for `.onf` sentence files and `.parse` tree files.

An `.onf` file is a sequence of blank-line-separated blocks. A sentence
section starts with a long hyphen delimiter and carries a "Plain
sentence:" block followed by a "Treebanked sentence:" block; everything
else (Tree, Leaves, Speaker information, coreference, names) is skipped.
Those sections hold most of a file's text, so `parse_onf` reads only the
blocks that contain a header's text: the compiled reader finds them with
a substring search and the pure one (`_onf.parse_onf`) drops the others
before splitting them into lines. Every block that may hold a header
still gets the full line checks.
A `.parse` file is just trees separated by blank lines.
"""

from srlkit._backend import parse_onf
from srlkit._nodes import SentencePair
from srlkit._onf import BLOCK_SPLIT

__all__ = ["SentencePair", "parse_onf", "parse_trees_file"]


def parse_trees_file(text: str) -> list[str]:
    """Blank-line-separated tree strings, trimmed, empty chunks dropped."""
    return [chunk for chunk in map(str.strip, BLOCK_SPLIT.split(text)) if chunk]
