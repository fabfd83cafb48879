"""The tree type, SpanTree, and the sentence type, SentencePair.

Kept in a leaf module so both the pure-Python and the compiled readers
can build the same objects.
"""

from dataclasses import dataclass
from typing import NamedTuple


class SpanTree(NamedTuple):
    """One tree as flat tables, the form extraction resolves pointers on.

    Terminals are numbered left to right, "-NONE-" terminals included, and
    nodes (POS-tagged leaves included) in preorder; node k covers the
    terminals start[k] <= t < end[k].
    """

    tokens: tuple   # terminal -> surface token
    pos: tuple      # terminal -> POS tag
    parent: tuple   # node -> parent node, -1 for the root
    start: tuple    # node -> its first terminal
    end: tuple      # node -> one past its last terminal
    leaf: tuple     # terminal -> its preterminal node


@dataclass(frozen=True)
class SentencePair:
    """Plain and trace-bearing (treebanked) variants of one sentence."""

    plain: str
    treebanked: str
