import compileall
from pathlib import Path

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

PACKAGE = Path(__file__).resolve().parent / "src" / "srlkit"

# _speedups.c is hand-written CPython C-API source, edited and built as is
speedups = Extension("srlkit._speedups", ["src/srlkit/_speedups.c"])

# the package works without the extension (pure-Python fallback), so a
# failed compile must not fail the install
speedups.optional = True


class build_ext_bytecode(build_ext):
    """build_ext that, when building in place, also writes the package's
    bytecode, so a fresh interpreter imports srlkit without compiling its
    source even where bytecode writing is off (PYTHONDONTWRITEBYTECODE).

    It runs after a failed optional compile too, since `super().run()`
    returns then. A module that cannot be byte-compiled is left to the
    import system, and an edited module no longer matches its
    timestamp-checked bytecode, so Python compiles it as before. A wheel
    build is not in place; pip writes the bytecode at install.
    """

    def run(self):
        super().run()
        if self.inplace:
            compileall.compile_dir(PACKAGE, force=self.force, quiet=1)


setup(ext_modules=[speedups], cmdclass={"build_ext": build_ext_bytecode})
