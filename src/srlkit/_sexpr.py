"""Pure-Python scanner for parenthesized tree text.

`parse_spans` is the fallback for, and reference of, the hand-written C
scanner in _speedups.c. Both read the text straight into a SpanTree,
implement the same grammar and numbering, and raise the same error types
with the same messages:

    tree := "(" label (tree+ | token) ")"

with labels and tokens being maximal runs of non-whitespace, non-paren
characters. Nodes are numbered in preorder as their label is read, and
terminals left to right as they close. An empty label is legal only as
the outermost Penn Treebank wrapper ``( (S ...) )`` with exactly one
child; the wrapper gets no number and its child is the root.
"""

import re

from srlkit._nodes import SpanTree
from srlkit.errors import EmptyInput, TrailingGarbage, UnbalancedParens

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
