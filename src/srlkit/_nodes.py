"""The tree type, SpanTree; the sentence type, SentencePair; the
proposition types, RoleLabel, RoleExpr and Proposition; the record types,
Provenance and SrlRecord; and the order a file's records are built in,
ROLE_ORDER and `sort_propositions`.

Kept in a leaf module so both the pure-Python and the compiled kernels
can build the same objects. Each type but the RoleLabel enum is a
NamedTuple, which both kernels build from positional fields.
"""

import enum
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


class SentencePair(NamedTuple):
    """Plain and trace-bearing (treebanked) variants of one sentence."""

    plain: str
    treebanked: str


class RoleLabel(enum.Enum):
    ARG0 = "ARG0"
    ARG1 = "ARG1"
    REL = "REL"

    # members are singletons compared by identity; Enum's own hash is a
    # Python-level hash(self._name_), paid on every `roles` lookup
    __hash__ = object.__hash__


class RoleExpr(NamedTuple):
    """One pointer expression of a role field."""

    parts: list[tuple[int, int]]  # (terminal, height) pairs in source order
    text: str  # the expression as written, e.g. "14:1*16:1*17:1"


class Proposition(NamedTuple):
    """One predicate instance from a `.prop` line."""

    file_id: str
    tree_index: int
    predicate_terminal: int
    roles: dict[RoleLabel, list[RoleExpr]]  # no default, so no dict is shared
    raw_line: str = ""
    line_no: int = 0

    def exprs(self, label: RoleLabel) -> list[RoleExpr]:
        return self.roles.get(label, [])


ROLE_ORDER = (RoleLabel.REL, RoleLabel.ARG0, RoleLabel.ARG1)  # as a record is built


def sort_propositions(props: list[Proposition]) -> list[Proposition]:
    """Stable sort by (tree_index, predicate_terminal)."""
    return sorted(props, key=lambda p: (p.tree_index, p.predicate_terminal))


class Provenance(NamedTuple):
    file_id: str
    tree_index: int
    predicate_terminal: int


class SrlRecord(NamedTuple):
    sentence: str
    treebanked_sentence: str
    predicate: str
    arg0: str
    arg1: str
    merged_arguments: str
    provenance: Provenance | None = None
