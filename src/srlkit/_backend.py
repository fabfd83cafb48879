"""Kernel selection: `kernel` is the compiled `_speedups` module when it is
built, else the pure `_pure` module; SRLKIT_PURE=1 forces the pure one.
Both define the functions of `_pure.__all__`. The ones the package calls
are bound here once; tests reach the others through `kernel`."""

import os

if os.environ.get("SRLKIT_PURE"):
    from srlkit import _pure as kernel
else:
    try:
        from srlkit import _speedups as kernel
    except ImportError:
        from srlkit import _pure as kernel

BACKEND = "pure" if kernel.__name__ == "srlkit._pure" else "compiled"
parse_spans = kernel.parse_spans
parse_prop_file = kernel.parse_prop_file
parse_onf = kernel.parse_onf
parse_trees_file = kernel.parse_trees_file
select_node = kernel.select_node
resolve_exprs = kernel.resolve_exprs
build_records = kernel.build_records
list_faults = kernel.list_faults


def backend() -> str:
    """Name of the active scanning backend: 'compiled' or 'pure'."""
    return BACKEND
