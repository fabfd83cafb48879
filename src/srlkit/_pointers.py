"""The pure-Python pointer scanner.

A pointer is ``terminal:height`` in canonical decimal (no leading zeros).
An expression is one or more pointers joined by ``*`` (chain) or ``,`` /
``;`` (split). The hand-written C kernel in _speedups.c implements the
same ``parse_expr_parts`` / ``roundtrip_exhaustive`` contract, with the
same results, error types and messages; this module is the fallback
backend and the compiled scanner's reference.
"""

import re

from srlkit.errors import EmptyFragment, MalformedPointer

_POINTER = re.compile(r"(0|[1-9][0-9]*):(0|[1-9][0-9]*)\Z")
_CONNECTOR = re.compile(r"[*,;]")

CONNECTOR_CHARS = "*,;"


def parse_expr_parts(text: str) -> list[tuple[int, int]]:
    """Scan a pointer expression into its (terminal, height) pairs."""
    if text == "":
        raise MalformedPointer("empty pointer expression")
    parts = []
    for frag in _CONNECTOR.split(text):
        if frag == "":
            raise EmptyFragment(f"empty pointer fragment in {text!r}")
        m = _POINTER.match(frag)
        # 18-digit cap keeps values inside a C long for the compiled kernel
        if m is None or len(m.group(1)) > 18 or len(m.group(2)) > 18:
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
    does the same enumeration, in the same order, in C.
    """
    if not 1 <= max_parts <= 3:
        raise ValueError("exhaustive enumeration supports 1..3 parts")
    singles = [
        f"{t}:{h}"
        for t in range(max_terminal + 1)
        for h in range(max_height + 1)
    ]
    checked = 0
    mismatches = 0
    first_bad = None

    def check(s: str):
        nonlocal checked, mismatches, first_bad
        checked += 1
        # the connectors come from the text, as in the compiled sweep
        if format_parts(parse_expr_parts(s), _CONNECTOR.findall(s)) != s:
            mismatches += 1
            if first_bad is None:
                first_bad = s

    for a in singles:
        check(a)
    if max_parts >= 2:
        for a in singles:
            for c1 in CONNECTOR_CHARS:
                prefix = a + c1
                for b in singles:
                    check(prefix + b)
    if max_parts >= 3:
        for a in singles:
            for c1 in CONNECTOR_CHARS:
                for b in singles:
                    prefix = a + c1 + b
                    for c2 in CONNECTOR_CHARS:
                        prefix2 = prefix + c2
                        for c in singles:
                            check(prefix2 + c)
    return checked, mismatches, first_bad
