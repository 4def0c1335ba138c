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

from ._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(__name__, {
    ".core": [
        "Rsg", "CellDefinition", "CellTable", "Instance", "Interface",
        "InterfaceTable", "Node", "RsgError", "derive_interface",
        "inherit_interface", "propagate_placement",
    ],
    ".geometry": [
        "Box", "Orientation", "Transform", "Vec2", "NORTH", "EAST", "SOUTH",
        "WEST", "FLIP_NORTH", "FLIP_EAST", "FLIP_SOUTH", "FLIP_WEST",
    ],
    # importlib.metadata pulls in email and socket: a run that never
    # asks for the version does not pay for them.
    "._version": ["__version__"],
})
