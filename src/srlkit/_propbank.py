"""Pure-Python `.prop` reader.

`parse_prop_file` is the fallback for, and reference of, the compiled
reader in _speedups.c. Both build the same Propositions and raise the
same MalformedLine and MalformedPointer errors, in the same order and
with the same messages. Lines break where `str.splitlines` breaks them
and fields where `str.split()` splits them.
"""

import re

from srlkit._nodes import Proposition, RoleExpr, RoleLabel
from srlkit._pointers import parse_expr_parts
from srlkit.errors import MalformedLine, MalformedPointer

# an annotation field's suffix, upper-cased, to its role
_LABEL_BY_SUFFIX = {label.value: label for label in RoleLabel}

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
