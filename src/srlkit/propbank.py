"""Proposition (`.prop`) line parsing.

Each line is whitespace-separated: a file path, a tree ordinal, the
predicate's terminal ordinal, then metadata and role annotations. Role
fields are recognized purely by suffix: anything ending in -ARG0, -ARG1,
or -rel (case-insensitive, split at the last dash) contributes its prefix
as a pointer expression; every other field is ignored.

A role holds its expressions as plain `RoleExpr` records: the
`(terminal, height)` pairs the pointer scanner returns, in source order,
and the expression's source text. Chain (`*`) and split (`,` / `;`)
parts resolve alike, so connectors are not kept. Pointers are canonical
decimal, so the source text is also the expression's one spelling.
"""

import enum
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from srlkit._backend import parse_expr_parts
from srlkit.errors import MalformedLine, MalformedPointer

__all__ = [
    "RoleLabel",
    "RoleExpr",
    "Proposition",
    "parse_prop_line",
    "parse_prop_file",
    "sort_propositions",
]


class RoleLabel(enum.Enum):
    ARG0 = "ARG0"
    ARG1 = "ARG1"
    REL = "REL"


# an annotation field's suffix, upper-cased, to its role
_LABEL_BY_SUFFIX = {label.value: label for label in RoleLabel}


class RoleExpr(NamedTuple):
    """One pointer expression of a role field."""

    parts: list[tuple[int, int]]  # (terminal, height) pairs in source order
    text: str  # the expression as written, e.g. "14:1*16:1*17:1"


@dataclass
class Proposition:
    """One predicate instance from a `.prop` line."""

    file_id: str
    tree_index: int
    predicate_terminal: int
    roles: dict[RoleLabel, list[RoleExpr]] = field(default_factory=dict)
    raw_line: str = ""
    line_no: int = 0

    def exprs(self, label: RoleLabel) -> list[RoleExpr]:
        return self.roles.get(label, [])


# an index field: ASCII decimal digits, "-" admitted so that a negative
# index is reported as one
_INDEX = re.compile(r"-?[0-9]+")


def _index(text: str) -> int:
    """The value of an index field; ValueError unless ASCII decimal, where
    bare int() would also take "+2", "1_0" or non-ASCII digits."""
    if not _INDEX.fullmatch(text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def parse_prop_line(line: str, line_no: int = 0) -> Proposition:
    """Parse one proposition line; unrecognized fields are ignored."""
    fields = line.split()
    if len(fields) < 3:
        raise MalformedLine(f"expected at least 3 fields, got {len(fields)}: {line!r}")
    try:
        tree_index = _index(fields[1])
        predicate_terminal = _index(fields[2])
    except ValueError as exc:
        raise MalformedLine(f"non-integer index in {line!r}: {exc}") from None
    if tree_index < 0 or predicate_terminal < 0:
        raise MalformedLine(f"negative index in {line!r}")
    roles: dict[RoleLabel, list[RoleExpr]] = {}
    for f in fields[3:]:
        prefix, dash, suffix = f.rpartition("-")
        if not dash:
            continue
        label = _LABEL_BY_SUFFIX.get(suffix.upper())
        if label is None:
            continue
        try:
            parts = parse_expr_parts(prefix)
        except MalformedPointer as exc:
            raise MalformedPointer(f"field {f!r}: {exc}") from None
        roles.setdefault(label, []).append(RoleExpr(parts, prefix))
    return Proposition(
        file_id=fields[0],
        tree_index=tree_index,
        predicate_terminal=predicate_terminal,
        roles=roles,
        raw_line=line,
        line_no=line_no,
    )


def parse_prop_file(text: str) -> list[Proposition]:
    """Parse every non-blank line of a `.prop` file, keeping line numbers."""
    out = []
    for i, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            out.append(parse_prop_line(line, line_no=i))
    return out


def sort_propositions(props: list[Proposition]) -> list[Proposition]:
    """Stable sort by (tree_index, predicate_terminal)."""
    return sorted(props, key=lambda p: (p.tree_index, p.predicate_terminal))
