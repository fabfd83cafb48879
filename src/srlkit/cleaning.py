"""Trace-anchor removal.

Two policies produce surface-true text from treebanked tokens: TreeGuided
drops exactly the tokens sitting under a "-NONE-" preterminal (exact by
construction), PatternOnly drops tokens matching the trace pattern. The
null complementizer "0" is only removed tree-guided, since "0" is a
legitimate numeral elsewhere. `join_untraced` applies either policy; it
is what the pure kernel's resolver (`_pure.resolve_exprs`) runs on each
selected span, and the compiled resolver applies the same two rules.
"""

import enum
import re
from typing import NamedTuple

__all__ = [
    "TraceMode",
    "TracePolicy",
    "TRACE_PATTERN",
    "EMPTY_POS",
    "is_trace_token",
    "join_untraced",
]

EMPTY_POS = "-NONE-"

# A star-enclosed label with an optional numeric index (*, *T*-1, *PRO*-2,
# *U*, *?*). A bare star with an index (*-1) matches too, with the label
# group skipped, so one pattern covers both trace shapes.
TRACE_PATTERN = re.compile(r"\*(?:[^\s]*\*)?(?:-\d+)?\Z")


class TraceMode(enum.Enum):
    TREE_GUIDED = "tree"
    PATTERN_ONLY = "pattern"


class TracePolicy(NamedTuple):
    mode: TraceMode


def is_trace_token(token: str) -> bool:
    """True iff the token matches the trace pattern."""
    return TRACE_PATTERN.match(token) is not None


def join_untraced(tokens, pos, mode: TraceMode) -> str:
    """The tokens, traces dropped as `mode` says (by their POS tags when
    tree-guided), joined with single spaces."""
    if mode is TraceMode.TREE_GUIDED:
        return " ".join([t for t, p in zip(tokens, pos) if p != EMPTY_POS])
    return " ".join([t for t in tokens if not is_trace_token(t)])
