"""The package version, resolved when ``repro.__version__`` is first read.

Deployed copies (``pip install``) report the version recorded by
packaging metadata; a source checkout without metadata falls back to
the pyproject default so ``repro --version`` always answers.
"""

from importlib.metadata import PackageNotFoundError, version

try:
    __version__ = version("repro-rsg")
except PackageNotFoundError:
    __version__ = "1.0.0"
