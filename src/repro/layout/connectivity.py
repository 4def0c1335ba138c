"""Port-level connectivity extraction (the EXCL substitute).

The paper verified generated multiplier layouts with EXCL circuit
extraction.  Our cells carry named ports; when the RSG places two
instances so that ports coincide (same position, compatible layer), the
signals are connected.  This module extracts that port graph from a
placed hierarchy and reports nets — enough to check that interfaces
really carry the connectivity the architecture intends (e.g. each cell's
``sout`` lands on its lower neighbour's ``sin``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from ..core.cell import CellDefinition
from ..geometry import Transform, Vec2

__all__ = ["PortNetlist", "extract_ports"]


class PortNetlist:
    """Flattened ports grouped into nets by coincidence.

    A port-name -> net-index dict is maintained alongside ``nets`` so
    :meth:`net_of` and :meth:`connected` are O(1) dict lookups instead
    of an O(nets x ports) scan — extraction-heavy callers (the routing
    round-trip, the multiplier seam checks) query thousands of times.
    Wildcard (layerless) ports can appear on several nets; the index
    records the first, matching the old scan's answer.
    """

    def __init__(self) -> None:
        #: hierarchical port name -> position
        self.ports: Dict[str, Vec2] = {}
        #: net id -> sorted list of hierarchical port names
        self.nets: List[List[str]] = []
        #: port name -> index into ``nets`` (first net holding the port)
        self._net_index: Dict[str, int] = {}

    def add_net(self, names: List[str]) -> int:
        """Append one net (sorted port names) and index it; returns its id."""
        index = len(self.nets)
        self.nets.append(names)
        for name in names:
            self._net_index.setdefault(name, index)
        return index

    def net_of(self, port_name: str) -> Optional[int]:
        """Index of the (first) net holding ``port_name``, or None."""
        return self._net_index.get(port_name)

    def connected(self, a: str, b: str) -> bool:
        """True when ports a and b share a net."""
        net = self.net_of(a)
        if net is None:
            return False
        if b in self.nets[net]:
            return True
        # Wildcard ports may sit on several nets; fall back to b's net.
        other = self.net_of(b)
        return other is not None and a in self.nets[other]

    def merge(self, other: "PortNetlist") -> "PortNetlist":
        """Append another netlist's ports and nets into this one.

        Nets are renumbered after this netlist's own; ports present in
        both keep this netlist's position and their *first* net index,
        matching the wildcard convention (the index records the first
        net holding a port).  Returns ``self`` for chaining.
        """
        for name, position in other.ports.items():
            self.ports.setdefault(name, position)
        for net in other.nets:
            self.add_net(list(net))
        return self

    def multi_terminal_nets(self) -> List[List[str]]:
        """Nets joining two or more ports (the ones a router must wire)."""
        return [net for net in self.nets if len(net) >= 2]

    def dangling_ports(self) -> List[str]:
        """Ports alone on their net (unconnected terminals)."""
        return [net[0] for net in self.nets if len(net) == 1]

    def __repr__(self) -> str:
        return (
            f"PortNetlist({len(self.ports)} ports,"
            f" {len(self.multi_terminal_nets())} connected nets)"
        )


def extract_ports(cell: CellDefinition) -> PortNetlist:
    """Extract the coincidence port netlist of a placed hierarchy.

    Ports connect when they occupy the same grid point and either share
    a layer or at least one of them is layerless.
    """
    netlist = PortNetlist()
    by_position: Dict[Tuple[int, int], List[Tuple[str, str]]] = defaultdict(list)
    for port in cell.flatten_ports(Transform()):
        netlist.ports[port.name] = port.position
        by_position[(port.position.x, port.position.y)].append(
            (port.name, port.layer)
        )
    for _, items in sorted(by_position.items()):
        # Partition by layer compatibility: layerless ports join any group.
        groups: Dict[str, List[str]] = defaultdict(list)
        wildcards: List[str] = []
        for name, layer in items:
            if layer:
                groups[layer].append(name)
            else:
                wildcards.append(name)
        if groups:
            for layer, names in sorted(groups.items()):
                netlist.add_net(sorted(names + wildcards))
        else:
            netlist.add_net(sorted(wildcards))
    return netlist
