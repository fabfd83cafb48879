"""Exception types shared across the toolkit.

Everything raised on a domain error derives from SrlKitError, so callers
can catch one type at pipeline level and still tell the cases apart.
"""


class SrlKitError(Exception):
    """Base class for all toolkit errors."""


class DecodeError(SrlKitError):
    """A text input is not UTF-8; the message names the file and the byte offset."""


# --- tree text parsing ---

class EmptyInput(SrlKitError):
    """No content where a tree (or dataset) was expected."""


class UnbalancedParens(SrlKitError):
    """Mismatched delimiters or any structural violation of the node grammar."""


class TrailingGarbage(SrlKitError):
    """Non-whitespace content left over after a complete root tree."""


# --- tree selection ---

class TerminalOutOfRange(SrlKitError):
    """Terminal index is not a valid preterminal ordinal for the tree."""


class HeightOverflow(SrlKitError):
    """Pointer ascent went past the root of the tree."""


# --- pointer grammar / proposition lines ---

class MalformedPointer(SrlKitError):
    """Pointer text does not match ``terminal:height``."""


class EmptyFragment(MalformedPointer):
    """Two adjacent connectors (or a leading/trailing one) in a pointer expression."""


class MalformedLine(SrlKitError):
    """Proposition line with too few fields or non-integer indices."""


# --- .onf files ---

class MalformedOnf(SrlKitError):
    """Sentence section delimiter found but no usable sentence text."""


# --- corpus discovery / pipeline ---

class MissingRoot(SrlKitError):
    """A corpus root directory does not exist."""


class EmptyCorpus(SrlKitError):
    """Discovery produced zero complete file triples."""


class AlignmentError(SrlKitError):
    """Sentence/tree/proposition ordinals do not line up for a file."""


class ExtractionError(SrlKitError):
    """Strict-mode failure while building records; message carries provenance."""


# --- statistics / CLI ---

class ConfigError(SrlKitError):
    """Unreadable run-configuration file or value."""



class BadThresholds(SrlKitError):
    """Sentiment bucket thresholds violate 0 < t1 < t2 <= 1."""


class HeaderMismatch(SrlKitError):
    """A dataset CSV does not carry the expected header row."""


class MalformedDataset(SrlKitError):
    """The CSV reader cannot read a dataset CSV; the message names the file and the line."""


class LexiconError(SrlKitError):
    """Unreadable or out-of-range sentiment lexicon entry."""


class UnknownFile(SrlKitError):
    """Requested file id is not present in the corpus."""


class IndexOutOfRange(SrlKitError):
    """Requested tree index is beyond the file's sentence count."""
