"""Wiring styles: which layers wires use and how far apart they sit.

The routers draw ordinary mask geometry — the same boxes the rest of
the RSG works with — so the only technology knowledge they need is a
small derived table: wire width, wire-to-wire spacing, and the layers a
channel's trunks (horizontal runs), branches (vertical runs) and vias
(trunk/branch junctions) are drawn on.  :class:`RouteStyle` carries
that table and the two constructors derive it from a
:class:`~repro.compact.rules.DesignRules` so routed channels pass the
same :func:`~repro.compact.drc.check_layout` oracle compaction uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..compact.rules import DesignRules
from ..core.errors import RsgError

__all__ = ["RouteStyle", "RoutingError"]


class RoutingError(RsgError):
    """A wiring request the routers cannot satisfy (bad pins, cycles)."""


@dataclass(frozen=True)
class RouteStyle:
    """Layer choice and derived metrics for one routed channel.

    ``wire_width`` is shared by every wire (trunk, branch, via) so that
    junction squares align on the integer grid; it is the maximum of
    the participating layers' minimum widths.  ``spacing`` is likewise
    the maximum of their minimum spacings, and ``pitch`` (width +
    spacing) is both the track pitch and the minimum pin separation
    along a channel edge.  ``margin`` is the clearance kept between
    channel wiring and the cell edges that bound the channel.
    """

    trunk_layer: str = "metal1"
    branch_layer: str = "poly"
    via_layer: str = "contact"
    wire_width: int = 4
    spacing: int = 3
    margin: int = 7

    @property
    def pitch(self) -> int:
        """Center-to-center separation of parallel wires (width + spacing)."""
        return self.wire_width + self.spacing

    @property
    def is_single_layer(self) -> bool:
        """True for river-style wiring (no branch layer, no vias)."""
        return self.branch_layer == self.trunk_layer and not self.via_layer

    def span(self, center: int) -> tuple:
        """The ``[low, high)`` extent of a wire centred on ``center``."""
        low = center - self.wire_width // 2
        return (low, low + self.wire_width)

    @classmethod
    def from_rules(
        cls,
        rules: DesignRules,
        trunk_layer: str = "metal1",
        branch_layer: str = "poly",
        via_layer: str = "contact",
    ) -> "RouteStyle":
        """Derive a two-layer channel style from a design-rule table.

        The channel margin is ``spacing + wire_width`` because pin pads
        (pin-layer landing squares under the edge vias) extend one wire
        width into the channel before the first track may start.
        """
        layers = [trunk_layer, branch_layer]
        if via_layer:
            layers.append(via_layer)
        width = max(rules.width(layer) for layer in layers)
        spacing = max(rules.min_spacing.get(layer, 1) for layer in layers)
        return cls(
            trunk_layer=trunk_layer,
            branch_layer=branch_layer,
            via_layer=via_layer,
            wire_width=width,
            spacing=spacing,
            margin=spacing + width,
        )

    @classmethod
    def single_layer(cls, rules: DesignRules, layer: str = "metal1") -> "RouteStyle":
        """Derive a one-layer (river) style: no branches, no vias."""
        width = rules.width(layer)
        spacing = rules.min_spacing.get(layer, 1)
        return cls(
            trunk_layer=layer,
            branch_layer=layer,
            via_layer="",
            wire_width=width,
            spacing=spacing,
            margin=spacing,
        )
