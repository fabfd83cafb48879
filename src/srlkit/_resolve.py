"""Pure-Python span resolution.

`resolve_exprs` is the fallback for, and reference of, the compiled
resolver in _speedups.c. Both select each pointer's node as
`select_node` does, raise its HeightOverflow and TerminalOutOfRange
errors with the same messages, and return the same text.
"""

from srlkit._nodes import SpanTree
from srlkit.cleaning import TraceMode, join_untraced
from srlkit.errors import HeightOverflow, TerminalOutOfRange


def select_node(tree: SpanTree, terminal: int, height: int) -> int:
    """Number of the node reached from the terminal-th preterminal after
    `height` steps up."""
    if height < 0:
        raise HeightOverflow(f"negative height {height}")
    if terminal < 0:
        raise TerminalOutOfRange(f"negative terminal index {terminal}")
    if terminal >= len(tree.leaf):
        raise TerminalOutOfRange(
            f"terminal {terminal} out of range (tree has {len(tree.leaf)} terminals)"
        )
    node = tree.leaf[terminal]
    parent = tree.parent
    for _ in range(height):
        node = parent[node]
        if node < 0:
            raise HeightOverflow(f"height {height} from terminal {terminal} passes the root")
    return node


def resolve_exprs(expr_list, tree: SpanTree, tree_guided: bool) -> str:
    """The text of every part of the expressions, in source order: each
    part's node's tokens with traces dropped (by POS when `tree_guided`,
    else by pattern), parts that come out empty left out, all joined with
    single spaces."""
    mode = TraceMode.TREE_GUIDED if tree_guided else TraceMode.PATTERN_ONLY
    tokens, pos, _, start, end, _ = tree
    pieces = []
    for expr in expr_list:
        for t, h in expr.parts:
            node = select_node(tree, t, h)
            lo, hi = start[node], end[node]
            text = join_untraced(tokens[lo:hi], pos[lo:hi], mode)
            if text:
                pieces.append(text)
    return " ".join(pieces)
