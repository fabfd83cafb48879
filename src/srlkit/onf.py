"""Readers for `.onf` sentence files and `.parse` tree files.

An `.onf` file is a sequence of blank-line-separated blocks. A sentence
section starts with a long hyphen delimiter and carries a "Plain
sentence:" block followed by a "Treebanked sentence:" block; everything
else (Tree, Leaves, Speaker information, coreference, names) is skipped.
Those sections hold most of a file's text, so `parse_onf` reads only the
blocks that contain a header's text: the compiled reader finds them with
a substring search and the pure one (`_pure.parse_onf`) drops the others
before splitting them into lines. Every block that may hold a header
still gets the full line checks.
A `.parse` file is just trees separated by blank lines: runs of
whitespace holding two or more line feeds. `parse_trees_file` splits it
in C when the extension is built, else with `_pure`'s regex.
"""

from srlkit._backend import parse_onf, parse_trees_file
from srlkit._nodes import SentencePair

__all__ = ["SentencePair", "parse_onf", "parse_trees_file"]
