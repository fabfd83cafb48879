"""srlkit: extract predicate-argument spans from PropBank/OntoNotes-style
corpora and compute dataset statistics.

The hot paths (tree text, pointer expressions, `.prop` lines, `.onf`
sentence blocks, `.parse` files, span resolution, the per-file record
builder and fault lister, and the exhaustive pointer round-trip sweep)
run from a compiled extension when it is built, with a pure-Python
fallback selected at import; `srlkit.backend()` reports which one is
active.
"""

from srlkit._backend import backend

__version__ = "0.1.0"

__all__ = ["backend", "__version__"]
