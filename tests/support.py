"""Test helpers: a seeded random-tree generator and independent oracles.

The tree oracles are object trees (`Preterminal`/`Internal`) with their
own parser (`parse_node`), rendering (`render`, `pretty`) and conversion
to the package's SpanTree (`flatten`), plus a brute-force selection
oracle (explicit parent map, recursive traversal). They are deliberately
a different mechanism from srlkit's flat scanners and `select_node`,
which the tests compare against them.

The reader oracles are the object-building `.prop` parser
(`parse_prop_line` and `parse_prop_file`, with
`PointerExpr`/`TreePointer`/`Connector`, on the active backend's pointer
scanner) and the `.onf` reader that splits
every block into lines (`parse_onf_unfiltered`), with block, line,
delimiter and header rules of its own; both of srlkit's `.prop`
readers (`_pure.parse_prop_file` and the compiled
`parse_prop_file`) and both `.onf` readers (`_pure.parse_onf`
and the compiled `parse_onf`) must match them.

`cyclic_garbage` counts what a call leaves for the cyclic collector,
for the tests that hold the walks free of reference cycles.
"""

import enum
import gc
import random
import re
from dataclasses import dataclass

from srlkit._nodes import SentencePair, SpanTree
from srlkit._backend import kernel
from srlkit.cleaning import is_trace_token
from srlkit.errors import (
    EmptyInput,
    MalformedLine,
    MalformedOnf,
    MalformedPointer,
    TrailingGarbage,
    UnbalancedParens,
)
from srlkit.propbank import Proposition, RoleLabel

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


# --- the object .prop parser -------------------------------------------------

class Connector(enum.Enum):
    """Connector between pointer parts; the value is the source character."""

    CHAIN = "*"
    SPLIT_COMMA = ","
    SPLIT_SEMICOLON = ";"

    @property
    def is_split(self) -> bool:
        return self is not Connector.CHAIN


@dataclass(frozen=True)
class TreePointer:
    """A (terminal ordinal, levels-up) reference into one tree."""

    terminal: int
    height: int

    def format(self) -> str:
        return f"{self.terminal}:{self.height}"

    def __str__(self) -> str:
        return self.format()


@dataclass(frozen=True)
class PointerExpr:
    """Ordered pointer parts with the connectors that joined them."""

    parts: tuple[TreePointer, ...]
    connectors: tuple[Connector, ...] = ()

    def format(self) -> str:
        out = [self.parts[0].format()]
        for conn, part in zip(self.connectors, self.parts[1:]):
            out.append(conn.value)
            out.append(part.format())
        return "".join(out)

    def __str__(self) -> str:
        return self.format()


def parse_pointer(text: str) -> TreePointer:
    """Parse a single `terminal:height` pointer."""
    parts = kernel.parse_expr_parts(text)
    if len(parts) > 1:
        raise MalformedPointer(f"connector in plain pointer {text!r}")
    return TreePointer(*parts[0])


_CONNECTOR_BY_CHAR = {c.value: c for c in Connector}


def parse_pointer_expr(text: str) -> PointerExpr:
    """Parse a chain/split pointer expression, preserving connector kinds."""
    parts = kernel.parse_expr_parts(text)
    # the scanner returns only the pairs; a well-formed expression has a
    # connector between each two, so the connectors are read off the text
    return PointerExpr(
        tuple(TreePointer(t, h) for t, h in parts),
        tuple(_CONNECTOR_BY_CHAR[c] for c in text if c in _CONNECTOR_BY_CHAR),
    )


def from_suffix(suffix: str):
    """Match an annotation-field suffix, case-insensitively; None if other."""
    up = suffix.upper()
    if up in ("ARG0", "ARG1", "REL"):
        return RoleLabel(up)
    return None


def _index(text: str) -> int:
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def parse_prop_line(line: str, line_no: int = 0) -> Proposition:
    """Parse one proposition line into a Proposition whose roles hold
    `PointerExpr` objects; the same errors and messages as
    srlkit.propbank.parse_prop_line."""
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
    roles: dict[RoleLabel, list[PointerExpr]] = {}
    for f in fields[3:]:
        prefix, dash, suffix = f.rpartition("-")
        if not dash:
            continue
        label = from_suffix(suffix)
        if label is None:
            continue
        try:
            expr = parse_pointer_expr(prefix)
        except MalformedPointer as exc:
            raise MalformedPointer(f"field {f!r}: {exc}") from None
        roles.setdefault(label, []).append(expr)
    return Proposition(
        file_id=fields[0],
        tree_index=tree_index,
        predicate_terminal=predicate_terminal,
        roles=roles,
        raw_line=line,
        line_no=line_no,
    )


def parse_prop_file(text: str) -> list[Proposition]:
    """`parse_prop_line` on every non-blank line, numbered from 1 as
    `str.splitlines` counts lines."""
    return [parse_prop_line(line, n) for n, line in enumerate(text.splitlines(), 1) if line.strip()]


# --- the .onf reader without its prefilter ---------------------------------

_PLAIN_HEADER = "Plain sentence:"
_TREEBANKED_HEADER = "Treebanked sentence:"
_BLOCK_SEPARATOR = re.compile(r"\n\s*\n")  # blank lines, spaces on them allowed


def _is_delimiter(line: str) -> bool:
    """A stripped line of ten or more hyphens and nothing else."""
    return len(line) >= 10 and set(line) == {"-"}


def _text_after(lines: list[str], header: str) -> str:
    """The words of the lines after the header's first line, delimiters
    left out, joined with single spaces."""
    after = lines[lines.index(header) + 1 :]
    return " ".join(word for line in after if not _is_delimiter(line) for word in line.split())


def parse_onf_unfiltered(text: str) -> list[SentencePair]:
    """`onf.parse_onf` as it would read every block's lines, header or not."""
    pairs = []
    pending_plain = None
    for block in _BLOCK_SEPARATOR.split(text):
        lines = [stripped for line in block.splitlines() if (stripped := line.strip())]
        if not any(_is_delimiter(line) for line in lines):
            continue
        if _PLAIN_HEADER in lines:
            if pending_plain is not None:
                raise MalformedOnf("plain sentence without a treebanked sentence")
            plain = _text_after(lines, _PLAIN_HEADER)
            if not plain:
                raise MalformedOnf("sentence delimiter with no sentence text")
            if any(is_trace_token(word) for word in plain.split()):
                raise MalformedOnf(f"trace token in plain sentence: {plain!r}")
            pending_plain = plain
        elif _TREEBANKED_HEADER in lines:
            if pending_plain is None:
                raise MalformedOnf("treebanked sentence without a plain sentence")
            treebanked = _text_after(lines, _TREEBANKED_HEADER)
            if not treebanked:
                raise MalformedOnf("sentence delimiter with no sentence text")
            pairs.append(SentencePair(plain=pending_plain, treebanked=treebanked))
            pending_plain = None
    if pending_plain is not None:
        raise MalformedOnf("plain sentence without a treebanked sentence")
    return pairs


def cyclic_garbage(run) -> int:
    """How many unreachable objects `run()` leaves for the cyclic
    collector when it runs with the collector paused, as `cli.main` runs a
    command; the collector's state is restored."""
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if collecting:
            gc.enable()
