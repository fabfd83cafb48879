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

`parse_prop_file` is the active kernel's reader. The pure kernel's line
parser, `parse_prop_line`, lives in `srlkit._pure`, which the compiled
backend never loads. `sort_propositions`, the order a file's records
are built in, is defined in `srlkit._nodes` beside the types, since
both kernels' record builders call it.
"""

from srlkit._backend import parse_prop_file
from srlkit._nodes import Proposition, RoleExpr, RoleLabel, sort_propositions

__all__ = [
    "RoleLabel",
    "RoleExpr",
    "Proposition",
    "parse_prop_file",
    "sort_propositions",
]
