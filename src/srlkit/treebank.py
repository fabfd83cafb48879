"""Constituency trees: parsing, terminal indexing, and subtree selection.

Trees come from `.parse` files as parenthesized text. Terminals are
numbered left to right over ALL preterminals, including empty elements
whose POS is "-NONE-"; a pointer (terminal, height) selects the node
reached by climbing `height` parent links from that preterminal.

A tree has two forms. Extraction and validation read each tree into a
flat SpanTree (`parse_spans`, compiled when the extension is built) and
select nodes by number (`select_node`). The object form (`parse_tree`,
`select`, `render`, `pretty`) is pure Python and serves `inspect` and
the tests; `flatten` turns it into a SpanTree.
"""

from srlkit._backend import backend, parse_spans
from srlkit._nodes import Internal, Preterminal, SpanTree, flatten
from srlkit._sexpr import parse_node
from srlkit.errors import HeightOverflow, TerminalOutOfRange

__all__ = [
    "Internal",
    "Preterminal",
    "ParseTree",
    "SpanTree",
    "backend",
    "parse_tree",
    "parse_spans",
    "flatten",
    "as_spans",
    "select_node",
    "render",
    "pretty",
    "leaves",
    "preterminals",
    "terminal_count",
    "select",
    "subtree_text",
]

ParseTree = Internal | Preterminal


def parse_tree(text: str) -> ParseTree:
    """Parse one parenthesized tree; unwraps the `( (S ...) )` convention."""
    return parse_node(text)


def render(tree: ParseTree) -> str:
    """Canonical parenthesized form: single spaces, no indentation."""
    if isinstance(tree, Preterminal):
        return f"({tree.pos} {tree.token})"
    inner = " ".join(render(child) for child in tree.children)
    return f"({tree.label} {inner})"


def pretty(tree: ParseTree, indent: int = 0) -> str:
    """Indented multi-line rendering for human inspection."""
    pad = "  " * indent
    if isinstance(tree, Preterminal):
        return f"{pad}({tree.pos} {tree.token})"
    lines = [f"{pad}({tree.label}"]
    lines.extend(pretty(child, indent + 1) for child in tree.children)
    lines[-1] += ")"
    return "\n".join(lines)


def preterminals(tree: ParseTree) -> list[Preterminal]:
    """Left-to-right preterminal nodes, "-NONE-" terminals included."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Preterminal):
            out.append(node)
        else:
            stack.extend(reversed(node.children))
    return out


def leaves(tree: ParseTree) -> list[str]:
    """Left-to-right token sequence, trace tokens included."""
    return [p.token for p in preterminals(tree)]


def terminal_count(tree: ParseTree) -> int:
    """Number of preterminals, counting "-NONE-" terminals."""
    return len(preterminals(tree))


def _path_to_terminal(tree: ParseTree, index: int) -> list[ParseTree]:
    """Root-to-preterminal node path for the index-th terminal, or None."""
    if isinstance(tree, Preterminal):
        return [tree] if index == 0 else None
    seen = 0
    # iterative DFS keeping the current path on an explicit stack
    path = [tree]
    iters = [iter(tree.children)]
    while iters:
        try:
            node = next(iters[-1])
        except StopIteration:
            iters.pop()
            path.pop()
            continue
        if isinstance(node, Preterminal):
            if seen == index:
                path.append(node)
                return path
            seen += 1
        else:
            path.append(node)
            iters.append(iter(node.children))
    return None


def select(tree: ParseTree, terminal: int, height: int) -> ParseTree:
    """Node reached from the terminal-th preterminal after `height` steps up."""
    if height < 0:
        raise HeightOverflow(f"negative height {height}")
    if terminal < 0:
        raise TerminalOutOfRange(f"negative terminal index {terminal}")
    path = _path_to_terminal(tree, terminal)
    if path is None:
        raise TerminalOutOfRange(
            f"terminal {terminal} out of range (tree has {terminal_count(tree)} terminals)"
        )
    if height >= len(path):
        raise HeightOverflow(
            f"height {height} from terminal {terminal} passes the root"
        )
    return path[len(path) - 1 - height]


def subtree_text(tree: ParseTree) -> str:
    """Leaves joined with single spaces; traces retained."""
    return " ".join(leaves(tree))


def as_spans(tree) -> SpanTree:
    """The tree as a SpanTree, flattening an object tree."""
    return tree if isinstance(tree, SpanTree) else flatten(tree)


def select_node(tree: SpanTree, terminal: int, height: int) -> int:
    """Number of the node `select` would return, with the same errors."""
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
