"""Constituency-tree types: node objects and the flat SpanTree.

Kept in a leaf module so both the pure-Python and the compiled parser can
build the same objects. Nodes are immutable by convention: nothing in the
toolkit mutates them after construction, so they are safe to share across
threads.
"""

from typing import NamedTuple


class Preterminal:
    """A POS-labeled node holding exactly one surface token."""

    __slots__ = ("pos", "token")

    def __init__(self, pos: str, token: str):
        self.pos = pos
        self.token = token

    def __eq__(self, other):
        return (
            isinstance(other, Preterminal)
            and self.pos == other.pos
            and self.token == other.token
        )

    def __hash__(self):
        return hash((self.pos, self.token))

    def __repr__(self):
        return f"Preterminal({self.pos!r}, {self.token!r})"


class Internal:
    """A labeled node with an ordered, non-empty tuple of child nodes."""

    __slots__ = ("label", "children")

    def __init__(self, label: str, children: tuple):
        self.label = label
        self.children = children

    def __eq__(self, other):
        return (
            isinstance(other, Internal)
            and self.label == other.label
            and self.children == other.children
        )

    def __hash__(self):
        return hash((self.label, self.children))

    def __repr__(self):
        return f"Internal({self.label!r}, {self.children!r})"


class SpanTree(NamedTuple):
    """One tree as flat tables, the form extraction resolves pointers on.

    Terminals are numbered left to right, "-NONE-" terminals included, and
    nodes (preterminals included) in preorder; node k covers the terminals
    start[k] <= t < end[k].
    """

    tokens: tuple   # terminal -> surface token
    pos: tuple      # terminal -> POS tag
    parent: tuple   # node -> parent node, -1 for the root
    start: tuple    # node -> its first terminal
    end: tuple      # node -> one past its last terminal
    leaf: tuple     # terminal -> its preterminal node


def flatten(tree) -> SpanTree:
    """The SpanTree of an Internal/Preterminal tree."""
    tokens, pos, parent, start, end, leaf = [], [], [], [], [], []
    stack = [(tree, -1)]
    while stack:
        node, up = stack.pop()
        if node is None:  # every child of node `up` is numbered
            end[up] = len(tokens)
            continue
        k = len(parent)
        parent.append(up)
        start.append(len(tokens))
        if isinstance(node, Preterminal):
            leaf.append(k)
            tokens.append(node.token)
            pos.append(node.pos)
            end.append(len(tokens))
        else:
            end.append(None)
            stack.append((None, k))
            stack.extend((child, k) for child in reversed(node.children))
    return SpanTree(*map(tuple, (tokens, pos, parent, start, end, leaf)))
