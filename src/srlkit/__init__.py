"""srlkit: extract predicate-argument spans from PropBank/OntoNotes-style
corpora and compute dataset statistics.

The hot paths (tree text, pointer expressions, `.prop` lines, `.onf`
sentence blocks, `.parse` files and span resolution) run from a compiled
extension when it is built, with a pure-Python fallback selected at
import; `srlkit.backend()` reports
which one is active.
"""

from srlkit._backend import backend

__version__ = "0.1.0"

__all__ = ["backend", "__version__"]
