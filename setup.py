from setuptools import Extension, setup

# _speedups.c is hand-written CPython C-API source, edited and built as is
speedups = Extension("srlkit._speedups", ["src/srlkit/_speedups.c"])

# the package works without the extension (pure-Python fallback), so a
# failed compile must not fail the install
speedups.optional = True

setup(ext_modules=[speedups])
