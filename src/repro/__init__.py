"""repro — a reproduction of Bamji's Design-by-Example Regular Structure
Generator (MIT RLE TR 507 / DAC 1985).

The package implements the full RSG stack:

* :mod:`repro.geometry` — integer-grid geometry and the D4 orientation
  group (paper section 2.6);
* :mod:`repro.core` — cells, instances, the interface calculus and table
  (chapter 2), connectivity graphs and expansion (chapter 3);
* :mod:`repro.lang` — the Lisp-subset design-file language, parameter
  files, and interpreter (chapter 4, appendix A);
* :mod:`repro.layout` — sample-layout ingestion (design by example), the
  layout database, CIF input/output, rendering;
* :mod:`repro.multiplier` — the pipelined Baugh-Wooley array multiplier
  case study (chapter 5, appendices B-E);
* :mod:`repro.pla` — a PLA generator built on the RSG plus an HPLA-style
  relocation baseline (section 1.2.2);
* :mod:`repro.compact` — the leaf-cell compactor study (chapter 6).

Quickstart::

    from repro import Rsg, Vec2, NORTH

    rsg = Rsg()
    cell = rsg.define_cell("tile")
    cell.add_box("metal", 0, 0, 10, 10)
    rsg.interface_by_example("tile", Vec2(0, 0), NORTH,
                             "tile", Vec2(12, 0), NORTH, index=1)
    nodes = [rsg.mk_instance("tile") for _ in range(8)]
    rsg.chain(nodes, index=1)
    row = rsg.mk_cell("row", nodes[0])
"""

from .core import (
    CellDefinition,
    CellTable,
    Instance,
    Interface,
    InterfaceTable,
    Node,
    Rsg,
    RsgError,
    derive_interface,
    inherit_interface,
    propagate_placement,
)
from .geometry import (
    EAST,
    FLIP_EAST,
    FLIP_NORTH,
    FLIP_SOUTH,
    FLIP_WEST,
    NORTH,
    SOUTH,
    WEST,
    Box,
    Orientation,
    Transform,
    Vec2,
)

def _resolve_version() -> str:
    """Package version from installed metadata, with a source fallback.

    Deployed copies (``pip install``) report the version recorded by
    packaging metadata; a source checkout without metadata falls back
    to the pyproject default so ``repro --version`` always answers.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version
    except ImportError:  # pragma: no cover - Python < 3.8 only
        return "1.0.0"
    try:
        return version("repro-rsg")
    except PackageNotFoundError:
        return "1.0.0"


def __getattr__(name: str):
    """Resolve ``__version__`` on first read, not at import.

    ``importlib.metadata`` pulls in ``email`` and ``socket``; a run that
    never asks for the version does not pay for them.
    """
    if name == "__version__":
        value = globals()["__version__"] = _resolve_version()
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Rsg",
    "CellDefinition",
    "CellTable",
    "Instance",
    "Interface",
    "InterfaceTable",
    "Node",
    "RsgError",
    "derive_interface",
    "inherit_interface",
    "propagate_placement",
    "Box",
    "Orientation",
    "Transform",
    "Vec2",
    "NORTH",
    "EAST",
    "SOUTH",
    "WEST",
    "FLIP_NORTH",
    "FLIP_EAST",
    "FLIP_SOUTH",
    "FLIP_WEST",
    "__version__",
]
