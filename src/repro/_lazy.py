"""Package exports that load on first use (PEP 562).

A package ``__init__`` lists what it exports and which submodule
defines each name; nothing is imported until a name is read::

    __all__ = ["Box", "Vec2"]
    __getattr__, __dir__ = lazy_exports(__name__, {
        ".box": ["Box"],
        ".vector": ["Vec2"],
    })

The first read of ``package.Box`` imports ``package.box`` and stores
the value in the package namespace, so later reads are plain attribute
hits and ``setattr`` on the package (the way tracing wraps a function)
replaces the stored value as it would an eager import.  ``from package
import *`` still binds every ``__all__`` name, and an unknown name
raises :class:`AttributeError`, so ``from package import submodule``
falls back to importing the submodule.

A submodule whose name is also an exported name (``repro.route.compose``
defines ``compose``) rebinds the package attribute to itself when it is
first imported; such a package binds the export eagerly instead.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, Iterable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps a submodule (``".box"``, relative to the package,
    or absolute) to the names it defines that the package exports.
    """
    owners: Dict[str, str] = {
        name: package + submodule if submodule.startswith(".") else submodule
        for submodule, names in exports.items()
        for name in names
    }

    def __getattr__(name: str) -> object:
        try:
            submodule = owners[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        # The import statement's path, so ``python -X importtime`` lists
        # the submodule under the import that first read the name.
        __import__(submodule)
        value = getattr(sys.modules[submodule], name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owners))

    return __getattr__, __dir__
