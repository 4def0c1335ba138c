"""The wiring subsystem: routing between placed cells (beyond abutment).

The RSG composes cells by interface-calculus abutment — ports must land
exactly on top of each other.  This package is the missing enabler for
multi-block designs: it connects *non-abutting* placed cells by drawing
wires as ordinary geometry.

* :mod:`repro.route.river` — order-preserving planar wiring between
  two facing edges on a single layer (the abutment generator's classic
  companion);
* :mod:`repro.route.channel` — general two-sided channel routing:
  constrained left-edge track assignment with dogleg handling of
  vertical constraints, trunks/branches/vias on two layers;
* :mod:`repro.route.compose` — the ``compose()`` API: place two cells,
  derive the channel from their bounding boxes, route the requested
  nets and emit a composite cell;
* :mod:`repro.route.extract` — connectivity extraction *through* the
  routed wires, the round-trip oracle;
* :mod:`repro.route.style` / :mod:`repro.route.wiring` — the derived
  technology table and the routers' common geometry output.
"""

from .._lazy import lazy_exports

__all__ = [
    "Pin",
    "channel_route",
    "river_route",
    "NetRequest",
    "WiringPlan",
    "compose",
    "verify_composite",
    "compose_from_netfile",
    "parse_net_file",
    "routed_netlist",
    "wire_components",
    "RouteStyle",
    "RoutingError",
    "Wiring",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".channel": ["Pin", "channel_route"],
    ".compose": [
        "NetRequest", "WiringPlan", "compose", "compose_from_netfile",
        "parse_net_file", "verify_composite",
    ],
    ".extract": ["routed_netlist", "wire_components"],
    ".river": ["river_route"],
    ".style": ["RouteStyle", "RoutingError"],
    ".wiring": ["Wiring"],
})

# ``compose`` is also the name of its submodule, and a first import of
# ``repro.route.compose`` rebinds the package attribute to that module;
# bound here, the attribute is the function before any such import.
from .compose import compose  # noqa: E402
