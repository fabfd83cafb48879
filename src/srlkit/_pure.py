"""The pure-Python kernel: the fallback for, and reference of, the
compiled kernel `_speedups`.

Both modules define the functions in `__all__`; `_backend` picks one.
For any arguments of the documented types the two return equal results,
or raise the same error types with the same messages, in the same order.

- `parse_spans` reads one tree's text into a SpanTree:

      tree := "(" label (tree+ | token) ")"

  Labels and tokens are maximal runs of non-whitespace, non-paren
  characters. Nodes are numbered in preorder as their label is read, and
  terminals left to right as they close. An empty label is legal only as
  the outermost Penn Treebank wrapper ``( (S ...) )`` with exactly one
  child; the wrapper gets no number and its child is the root.
- `parse_expr_parts` scans a pointer expression: pointers
  ``terminal:height`` in canonical decimal (no leading zeros), joined by
  ``*`` (chain) or ``,`` / ``;`` (split). `roundtrip_exhaustive` sweeps
  parse->format over a range of them.
- `parse_prop_file` breaks lines where `str.splitlines` does and fields
  where `str.split()` does. `parse_onf` drops a blank-line-separated
  block that holds neither header's text before splitting it into lines;
  the compiled reader searches for the headers instead.
  `parse_trees_file` splits a `.parse` file.
- `select_node` climbs from a pointer's terminal to its node;
  `resolve_exprs` joins the selected nodes' tokens, traces dropped by
  `cleaning.join_untraced`'s two rules.
- `build_records` builds a file's rows in `sort_propositions` order and
  `list_faults` lists every fault of its propositions in file order:
  one call per file for `extract` and for `validate`.
"""

import itertools
import re

from srlkit._nodes import (
    ROLE_ORDER,
    Proposition,
    Provenance,
    RoleExpr,
    RoleLabel,
    SentencePair,
    SpanTree,
    SrlRecord,
    sort_propositions,
)
from srlkit.cleaning import TraceMode, is_trace_token, join_untraced
from srlkit.errors import (
    AlignmentError,
    EmptyFragment,
    EmptyInput,
    HeightOverflow,
    MalformedLine,
    MalformedOnf,
    MalformedPointer,
    SrlKitError,
    TerminalOutOfRange,
    TrailingGarbage,
    UnbalancedParens,
)

__all__ = [
    "parse_spans",
    "parse_expr_parts",
    "roundtrip_exhaustive",
    "parse_prop_file",
    "parse_onf",
    "parse_trees_file",
    "select_node",
    "resolve_exprs",
    "build_records",
    "list_faults",
]

# --- tree text -------------------------------------------------------------

# ASCII whitespace only, matching the compiled kernel's byte scanner
TOKENS = re.compile(r"[()]|[^\s()]+", re.ASCII)

# open-frame slots
_NODE, _LABEL, _TOKEN, _CHILDREN = 0, 1, 2, 3


def parse_spans(text: str) -> SpanTree:
    """Parse one tree into its SpanTree, unwrapping a single empty-labeled
    outer wrapper."""
    tokens, pos, parent, start, end, leaf = [], [], [], [], [], []
    frames = []  # open nodes: [number, label, token, children so far]
    done = False
    for tok in TOKENS.findall(text):
        if tok == "(":
            if done:
                raise TrailingGarbage("content after the root tree")
            if frames:
                top = frames[-1]
                if top[_LABEL] is None:
                    top[_LABEL] = ""
                if top[_TOKEN] is not None:
                    raise UnbalancedParens("expected ')' after token")
            frames.append([-1, None, None, 0])
        elif tok == ")":
            if not frames:
                raise UnbalancedParens("unexpected ')'")
            node, label, token, children = frames.pop()
            if token is not None:
                leaf.append(node)
                tokens.append(token)
                pos.append(label)
            elif not children:
                raise UnbalancedParens(f"node ({label or ''}) has no children or token")
            elif label == "":  # the outer wrapper: checked, never numbered
                if frames:
                    raise UnbalancedParens("empty node label below the root")
                if children != 1:
                    raise UnbalancedParens(
                        f"outer wrapper must have exactly one child, got {children}"
                    )
                done = True
                continue
            end[node] = len(tokens)
            if frames:
                frames[-1][_CHILDREN] += 1
            done = not frames
        else:
            if done:
                raise TrailingGarbage("content after the root tree")
            if not frames:
                raise UnbalancedParens("expected '('")
            top = frames[-1]
            if top[_LABEL] is None:
                top[_LABEL] = tok
                top[_NODE] = len(parent)
                parent.append(frames[-2][_NODE] if len(frames) > 1 else -1)
                start.append(len(tokens))
                end.append(None)
            elif top[_TOKEN] is None and not top[_CHILDREN]:
                top[_TOKEN] = tok
            else:
                raise UnbalancedParens("expected ')'")
    if frames:
        raise UnbalancedParens("unexpected end of input")
    if not done:
        raise EmptyInput("no tree found in input")
    return SpanTree(*map(tuple, (tokens, pos, parent, start, end, leaf)))


# --- pointer expressions ---------------------------------------------------

CONNECTOR_CHARS = "*,;"
_CONNECTOR = re.compile(f"[{CONNECTOR_CHARS}]")
# at most 18 digits, so every value fits the compiled kernel's long long
_POINTER = re.compile(r"(0|[1-9][0-9]{0,17}):(0|[1-9][0-9]{0,17})\Z")


def parse_expr_parts(text: str) -> list[tuple[int, int]]:
    """Scan a pointer expression into its (terminal, height) pairs."""
    if text == "":
        raise MalformedPointer("empty pointer expression")
    parts = []
    for frag in _CONNECTOR.split(text):
        if frag == "":
            raise EmptyFragment(f"empty pointer fragment in {text!r}")
        m = _POINTER.match(frag)
        if m is None:
            raise MalformedPointer(f"bad pointer {frag!r} in {text!r}")
        parts.append((int(m.group(1)), int(m.group(2))))
    return parts


def format_parts(parts, connectors) -> str:
    out = [f"{parts[0][0]}:{parts[0][1]}"]
    for conn, (t, h) in zip(connectors, parts[1:]):
        out.append(conn)
        out.append(f"{t}:{h}")
    return "".join(out)


def roundtrip_exhaustive(max_terminal: int, max_height: int, max_parts: int):
    """Check parse->format identity over every expression whose parts range
    over terminals 0..max_terminal and heights 0..max_height, with every
    connector combination up to max_parts parts.

    Returns (checked, mismatches, first_bad). Slow; the compiled kernel
    does the same enumeration, in the same order (the last piece varies
    fastest), in C.
    """
    if not 1 <= max_parts <= 3:
        raise ValueError("exhaustive enumeration supports 1..3 parts")
    singles = [f"{t}:{h}" for t in range(max_terminal + 1) for h in range(max_height + 1)]
    checked = 0
    mismatches = 0
    first_bad = None
    for parts in range(1, max_parts + 1):
        for pieces in itertools.product(singles, *[CONNECTOR_CHARS, singles] * (parts - 1)):
            s = "".join(pieces)
            checked += 1
            if format_parts(parse_expr_parts(s), pieces[1::2]) != s:
                mismatches += 1
                if first_bad is None:
                    first_bad = s
    return checked, mismatches, first_bad


# --- .prop files -----------------------------------------------------------

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


# --- .onf and .parse files -------------------------------------------------

PLAIN_HEADER = "Plain sentence:"
TREEBANKED_HEADER = "Treebanked sentence:"

# "long sequence of hyphens"; 10+ excludes in-text dashes and the short
# underlines of Tree:/Leaves: sections
_DELIMITER = re.compile(r"-{10,}\s*$")
BLOCK_SPLIT = re.compile(r"\n\s*\n")


def _block_lines(block: str) -> list[str]:
    return [line.strip() for line in block.splitlines() if line.strip()]


def _text_after_header(lines: list[str], header: str) -> str:
    idx = lines.index(header)
    content = [l for l in lines[idx + 1 :] if not _DELIMITER.match(l)]
    return " ".join(" ".join(content).split())


def parse_onf(text: str) -> list[SentencePair]:
    """Extract (plain, treebanked) sentence pairs in document order."""
    pairs: list[SentencePair] = []
    pending_plain: str | None = None
    for block in BLOCK_SPLIT.split(text):
        # a block holding neither header text cannot be a sentence block
        if PLAIN_HEADER not in block and TREEBANKED_HEADER not in block:
            continue
        lines = _block_lines(block)
        if not lines or not any(_DELIMITER.match(l) for l in lines):
            continue
        if PLAIN_HEADER in lines:
            if pending_plain is not None:
                raise MalformedOnf("plain sentence without a treebanked sentence")
            plain = _text_after_header(lines, PLAIN_HEADER)
            if not plain:
                raise MalformedOnf("sentence delimiter with no sentence text")
            # every trace token starts with "*"
            if "*" in plain and any(is_trace_token(tok) for tok in plain.split()):
                raise MalformedOnf(f"trace token in plain sentence: {plain!r}")
            pending_plain = plain
        elif TREEBANKED_HEADER in lines:
            if pending_plain is None:
                raise MalformedOnf("treebanked sentence without a plain sentence")
            treebanked = _text_after_header(lines, TREEBANKED_HEADER)
            if not treebanked:
                raise MalformedOnf("sentence delimiter with no sentence text")
            pairs.append(SentencePair(plain=pending_plain, treebanked=treebanked))
            pending_plain = None
        # other underlined sections (Speaker information, names, ...) are skipped
    if pending_plain is not None:
        raise MalformedOnf("plain sentence without a treebanked sentence")
    return pairs


def parse_trees_file(text: str) -> list[str]:
    """Blank-line-separated tree strings, trimmed, empty chunks dropped."""
    return [chunk for chunk in map(str.strip, BLOCK_SPLIT.split(text)) if chunk]


# --- spans -----------------------------------------------------------------


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


# --- a file's records and faults -------------------------------------------


def _in_range(index, n: int) -> bool:
    """Whether 0 <= index < n. An index that is not an int (a bool is
    one) is a TypeError."""
    if not isinstance(index, int):
        raise TypeError(f"a Proposition's indices must be ints, got {type(index).__name__}")
    return 0 <= index < n


def _locate(prop: Proposition, trees: list[SpanTree]) -> tuple[SpanTree | None, SrlKitError | None]:
    """The proposition's tree (None if its index is out of range) and the
    fault of its tree index or predicate terminal, or None. A negative
    index, which only a hand-built Proposition can hold, is out of range;
    what is not a Proposition, or an index that is not an int, is a
    TypeError, as in the compiled kernel."""
    if not isinstance(prop, Proposition):
        raise TypeError(f"expected a Proposition, got {type(prop).__name__}")
    if not _in_range(prop.tree_index, len(trees)):
        return None, AlignmentError(
            f"tree index {prop.tree_index} out of range ({len(trees)} trees)"
        )
    tree = trees[prop.tree_index]
    if not _in_range(prop.predicate_terminal, len(tree.tokens)):
        return tree, TerminalOutOfRange(
            f"predicate terminal {prop.predicate_terminal} out of range "
            f"(tree has {len(tree.tokens)} terminals)"
        )
    return tree, None


def build_records(
    props: list[Proposition],
    trees: list[SpanTree],
    sentences: list[SentencePair],
    file_id: str,
    tree_guided: bool,
) -> tuple[list[SrlRecord], list[tuple[Proposition, SrlKitError]]]:
    """The file's rows, before filtering, and its failing propositions,
    each with its first fault, both in `sort_propositions` order. A row's
    roles are resolved in ROLE_ORDER; a "|" in ARG0 or ARG1 becomes "/",
    so the one in merged_arguments parts them."""
    records, failures = [], []
    props, trees = sort_propositions(props), tuple(trees)
    for prop in props:
        tree, fault = _locate(prop, trees)
        if fault is None:
            pair = sentences[prop.tree_index]
            try:
                predicate, arg0, arg1 = [
                    resolve_exprs(prop.exprs(label), tree, tree_guided) for label in ROLE_ORDER
                ]
            except SrlKitError as exc:
                fault = exc.with_traceback(None)  # kept, so it holds no frame
        if fault is not None:
            failures.append((prop, fault))
            continue
        arg0 = arg0.replace("|", "/")
        arg1 = arg1.replace("|", "/")
        records.append(SrlRecord(
            pair.plain,
            pair.treebanked,
            predicate,
            arg0,
            arg1,
            f"{arg0}|{arg1}",
            Provenance(file_id, prop.tree_index, prop.predicate_terminal),
        ))
    return records, failures


def list_faults(
    props: list[Proposition], trees: list[SpanTree]
) -> list[tuple[Proposition, str, SrlKitError]]:
    """Every reason each proposition gives no row, as (proposition, where,
    error), propositions in file order. A proposition's faults come in the
    order `build_records` meets them: a tree index out of range (alone,
    since nothing else can be checked), a predicate terminal out of range,
    then each pointer of ROLE_ORDER's roles that selects no node, in
    source order within a role. `where` names the pointer, e.g. "ARG0
    pointer 9:1", and is "" for the two index faults."""
    faults = []
    props, trees = tuple(props), tuple(trees)
    for prop in props:
        tree, fault = _locate(prop, trees)
        if fault is not None:
            faults.append((prop, "", fault))
        if tree is None:
            continue
        for label in ROLE_ORDER:
            for expr in prop.exprs(label):
                for t, h in expr.parts:
                    try:
                        select_node(tree, t, h)
                    except SrlKitError as exc:
                        where = f"{label.value} pointer {t}:{h}"
                        faults.append((prop, where, exc.with_traceback(None)))
    return faults
