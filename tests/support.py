"""Test helpers: a seeded random-tree generator and independent oracles.

The oracles are object trees (`Preterminal`/`Internal`) with their own
parser (`parse_node`), rendering (`render`, `pretty`) and conversion to
the package's SpanTree (`flatten`), plus a brute-force selection oracle
(explicit parent map, recursive traversal). They are deliberately a
different mechanism from srlkit's flat scanners and `select_node`, which
the tests compare against them.
"""

import random
import re

from srlkit._nodes import SpanTree
from srlkit.errors import EmptyInput, TrailingGarbage, UnbalancedParens

LABELS = ["S", "NP", "VP", "PP", "SBAR", "ADJP", "ADVP", "PRN", "WHNP-1", "NP-SBJ"]
POS_TAGS = ["DT", "NN", "NNS", "VBD", "VBZ", "IN", "JJ", "RB", "CC", "PRP", "NNP", "CD"]
WORDS = [
    "the", "cat", "dog", "ran", "sat", "on", "a", "big", "red", "it",
    "he", "board", "plan", "5", "said", ",", ".", "$", "café", "don't",
]
TRACES = [
    ("-NONE-", "*"),
    ("-NONE-", "*T*-1"),
    ("-NONE-", "*PRO*-2"),
    ("-NONE-", "*-1"),
    ("-NONE-", "*U*"),
]


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


# ASCII whitespace only, as srlkit's scanners read it
_TOKENS = re.compile(r"[()]|[^\s()]+", re.ASCII)

# stack entry slots
_LABEL, _CHILDREN, _TOKEN = 0, 1, 2


def _finish(entry, has_parent: bool):
    label, children, token = entry
    if token is not None:
        return Preterminal(label, token)
    if not children:
        raise UnbalancedParens(f"node ({label or ''}) has no children or token")
    if label == "" or label is None:
        if has_parent:
            raise UnbalancedParens("empty node label below the root")
        if len(children) != 1:
            raise UnbalancedParens(
                f"outer wrapper must have exactly one child, got {len(children)}"
            )
        return children[0]
    return Internal(label, tuple(children))


def parse_node(text: str):
    """Parse one tree into objects, unwrapping a single empty-labeled outer
    wrapper; the same grammar, error types and messages as
    srlkit.treebank.parse_tree."""
    root = None
    stack = []
    for tok in _TOKENS.findall(text):
        if tok == "(":
            if root is not None:
                raise TrailingGarbage("content after the root tree")
            if stack:
                top = stack[-1]
                if top[_LABEL] is None:
                    top[_LABEL] = ""
                if top[_TOKEN] is not None:
                    raise UnbalancedParens("expected ')' after token")
            stack.append([None, [], None])
        elif tok == ")":
            if not stack:
                raise UnbalancedParens("unexpected ')'")
            node = _finish(stack.pop(), bool(stack))
            if stack:
                stack[-1][_CHILDREN].append(node)
            else:
                root = node
        else:
            if root is not None:
                raise TrailingGarbage("content after the root tree")
            if not stack:
                raise UnbalancedParens("expected '('")
            top = stack[-1]
            if top[_LABEL] is None:
                top[_LABEL] = tok
            elif top[_TOKEN] is None and not top[_CHILDREN]:
                top[_TOKEN] = tok
            else:
                raise UnbalancedParens("expected ')'")
    if stack:
        raise UnbalancedParens("unexpected end of input")
    if root is None:
        raise EmptyInput("no tree found in input")
    return root


def render(tree) -> str:
    """Canonical parenthesized form: single spaces, no indentation."""
    if isinstance(tree, Preterminal):
        return f"({tree.pos} {tree.token})"
    inner = " ".join(render(child) for child in tree.children)
    return f"({tree.label} {inner})"


def pretty(tree, indent: int = 0) -> str:
    """Indented multi-line rendering, as `srlkit.treebank.pretty` lays out
    the tree's text."""
    pad = "  " * indent
    if isinstance(tree, Preterminal):
        return f"{pad}({tree.pos} {tree.token})"
    lines = [f"{pad}({tree.label}"]
    lines.extend(pretty(child, indent + 1) for child in tree.children)
    lines[-1] += ")"
    return "\n".join(lines)


def preorder(tree) -> list:
    """Every node, preterminals included, in preorder."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, Internal):
            stack.extend(reversed(node.children))
    return out


def leaves(tree) -> list[str]:
    """Left-to-right tokens, trace tokens included."""
    return [node.token for node in preorder(tree) if isinstance(node, Preterminal)]


def flatten(tree) -> SpanTree:
    """The SpanTree of an object tree."""
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


def random_tree(rng: random.Random, max_depth: int = 8, max_terminals: int = 30,
                with_traces: bool = True):
    """Random well-formed tree; depth and terminal count stay within bounds."""

    def preterminal():
        if with_traces and rng.random() < 0.15:
            return Preterminal(*rng.choice(TRACES))
        return Preterminal(rng.choice(POS_TAGS), rng.choice(WORDS))

    def build(depth: int, budget: int):
        if budget <= 1 or depth >= max_depth or (depth > 0 and rng.random() < 0.3):
            return preterminal(), 1
        k = rng.randint(1, min(4, budget))
        children = []
        used = 0
        for i in range(k):
            reserve = k - i - 1  # keep >= 1 terminal for each remaining sibling
            child, u = build(depth + 1, budget - used - reserve)
            children.append(child)
            used += u
        return Internal(rng.choice(LABELS), tuple(children)), used

    tree, _ = build(0, rng.randint(1, max_terminals))
    return tree


def build_parent_map(tree):
    """(preterminals in order, id-keyed parent map) via recursive traversal."""
    parents = {}
    order = []

    def walk(node):
        if isinstance(node, Preterminal):
            order.append(node)
            return
        for child in node.children:
            parents[id(child)] = node
            walk(child)

    walk(tree)
    return order, parents


def oracle_select_prebuilt(order, parents, index: int, height: int):
    """Ancestor of the index-th preterminal at distance `height`, found by
    walking the explicit id-keyed parent map of `build_parent_map`. Raises
    LookupError when the index is invalid or the ascent passes the root."""
    if index < 0 or index >= len(order):
        raise LookupError(f"no terminal {index}")
    node = order[index]
    for _ in range(height):
        if id(node) not in parents:
            raise LookupError("ascent passed the root")
        node = parents[id(node)]
    return node


def oracle_leaf_count(tree) -> int:
    if isinstance(tree, Preterminal):
        return 1
    return sum(oracle_leaf_count(child) for child in tree.children)
