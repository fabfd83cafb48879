"""Constituency trees: parsing, terminal indexing, and node selection.

Trees come from `.parse` files as parenthesized text. `parse_tree` is the
active kernel's scanner, `parse_spans`: it reads one tree into a flat
SpanTree and unwraps the `( (S ...) )` convention. Terminals are
numbered left to right over ALL POS-tagged leaves, including empty
elements whose POS is "-NONE-"; a pointer (terminal, height) selects the
node reached by climbing `height` parent links from that leaf
(`select_node`, the kernel's climb, which its resolver uses too).
`pretty` lays a tree's text out for `inspect`.
"""

from srlkit._backend import backend, select_node
from srlkit._backend import parse_spans as parse_tree
from srlkit._nodes import SpanTree

__all__ = ["SpanTree", "backend", "parse_tree", "select_node", "pretty"]


def pretty(text: str) -> str:
    """Indented multi-line rendering of a tree's text for human inspection:
    one node per line, two spaces per level, leaves as `(POS token)`
    and an outer wrapper dropped. Raises as `parse_tree` does."""
    from srlkit._pure import TOKENS  # here, so only inspect loads _pure when compiled

    parse_tree(text)  # the walk below relies on well-formed text
    toks = TOKENS.findall(text)
    if toks[1] == "(":  # the wrapper: its "(" and ")" enclose the root
        toks = toks[1:-1]
    lines = []
    depth = 0
    i = 0
    while i < len(toks):
        if toks[i] == ")":  # closes a node with children
            lines[-1] += ")"
            depth -= 1
            i += 1
        elif toks[i + 2] not in ("(", ")"):  # "(" POS token ")"
            lines.append(f"{'  ' * depth}({toks[i + 1]} {toks[i + 2]})")
            i += 4
        else:  # "(" label, then the children
            lines.append(f"{'  ' * depth}({toks[i + 1]}")
            depth += 1
            i += 2
    return "\n".join(lines)
