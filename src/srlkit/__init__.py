"""srlkit: extract predicate-argument spans from PropBank/OntoNotes-style
corpora and compute dataset statistics.

The hot scanners (tree text, pointer expressions, `.onf` sentence
blocks) run from a compiled extension when it is built, with a
pure-Python fallback selected at import; `srlkit.backend()` reports
which one is active.
"""

from srlkit._backend import backend

__version__ = "0.1.0"

__all__ = ["backend", "__version__"]
