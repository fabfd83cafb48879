"""Kernel selection: the compiled _speedups extension when built, pure
Python otherwise. Set SRLKIT_PURE=1 to force the pure path."""

import os

from srlkit import _onf, _pointers, _propbank, _resolve, _sexpr

_impl = None
if not os.environ.get("SRLKIT_PURE"):
    try:
        from srlkit import _speedups as _impl
    except ImportError:
        _impl = None

if _impl is not None:
    BACKEND = "compiled"
    parse_spans = _impl.parse_spans
    parse_expr_parts = _impl.parse_expr_parts
    parse_prop_file = _impl.parse_prop_file
    parse_onf = _impl.parse_onf
    parse_trees_file = _impl.parse_trees_file
    resolve_exprs = _impl.resolve_exprs
else:
    BACKEND = "pure"
    parse_spans = _sexpr.parse_spans
    parse_expr_parts = _pointers.parse_expr_parts
    parse_prop_file = _propbank.parse_prop_file
    parse_onf = _onf.parse_onf
    parse_trees_file = _onf.parse_trees_file
    resolve_exprs = _resolve.resolve_exprs


def backend() -> str:
    """Name of the active scanning backend: 'compiled' or 'pure'."""
    return BACKEND
