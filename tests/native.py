"""What building the compiled extension needs, checked without building it.

Kept free of srlkit imports: conftest consults it before the build, and
srlkit fixes its backend at import.
"""

import os
import shlex
import shutil
import sysconfig
from pathlib import Path

import pytest


def c_compiler() -> list[str]:
    """The C compiler command setuptools would call, split into words."""
    return shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")


def missing_build_tool():
    """Why the C extension cannot be built on this machine, or None."""
    cc = c_compiler()
    if shutil.which(cc[0]) is None:
        return f"no C compiler ({shlex.join(cc)!r} not found)"
    if not (Path(sysconfig.get_paths()["include"]) / "Python.h").is_file():
        return "no Python headers (Python.h not found)"
    return None


# skips only when a build tool is absent; with the tools present, a failed
# build makes the marked test fail on its import of srlkit._speedups
requires_build_tools = pytest.mark.skipif(
    missing_build_tool() is not None,
    reason=f"compiled extension cannot be built: {missing_build_tool()}",
)
