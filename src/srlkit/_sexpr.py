"""Pure-Python parser for parenthesized tree text.

`parse_node` builds Internal/Preterminal objects, the tree API's form.
`parse_spans` is the fallback for, and reference of, the hand-written C
scanner in _speedups.c; both implement the same grammar and raise the
same error types with the same messages:

    tree := "(" label (tree+ | token) ")"

with labels and tokens being maximal runs of non-whitespace, non-paren
characters. An empty label is legal only as the outermost Penn Treebank
wrapper ``( (S ...) )`` with exactly one child, which is unwrapped.
"""

import re

from srlkit._nodes import Internal, Preterminal, SpanTree, flatten
from srlkit.errors import EmptyInput, TrailingGarbage, UnbalancedParens

# ASCII whitespace only, matching the compiled kernel's byte scanner
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
    """Parse one tree, unwrapping a single empty-labeled outer wrapper."""
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


def parse_spans(text: str) -> SpanTree:
    """Parse one tree into its SpanTree, as `parse_node` reads it."""
    return flatten(parse_node(text))
