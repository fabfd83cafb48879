"""Pure-Python `.onf` sentence reader and `.parse` file splitter.

`parse_onf` is the fallback for, and reference of, the compiled reader in
_speedups.c. Both return the same pairs and raise the same MalformedOnf
errors, in the same order and with the same messages. The pure reader
splits the text into blank-line-separated blocks and drops a block whose
text contains neither header before splitting it into lines; the
compiled one searches for the headers and reads only the blocks around
them. `parse_trees_file` is the reference of the compiled splitter.
"""

import re

from srlkit._nodes import SentencePair
from srlkit.cleaning import is_trace_token
from srlkit.errors import MalformedOnf

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
