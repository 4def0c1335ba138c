"""Switch-level netlists: the common substrate of extraction and LVS.

A :class:`SwitchNetlist` is a flat electrical graph: numbered nets
carrying the names that ports, labels and rails attached to them, and
:class:`Device` records connecting nets through typed, role-labelled
pins.  Two device vocabularies share the structure:

* **transistor level** — kinds ``"enh"`` (enhancement NMOS) and
  ``"dep"`` (depletion load), pins ``("g", net)`` for the gate and two
  ``("ch", net)`` channel terminals (source/drain are interchangeable,
  so both carry the same role); depletion loads drop their gate pin
  entirely (the gate is tied to a terminal by convention and carries no
  information);
* **cell level** — kinds naming a personalised leaf cell (``"csI"``,
  ``"reg"``, ...), pins labelled with the cell's port roles.  The
  multiplier study verifies at this level because its sample layout is
  stylised above the transistor level (see ``docs/architecture.md``).

The simulator (:mod:`repro.verify.switchsim`) consumes the transistor
vocabulary; LVS (:mod:`repro.verify.lvs`) is vocabulary-agnostic — it
only compares kinds, roles and graph shape.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = ["Device", "SwitchNetlist", "GLOBAL_SUFFIX"]

#: net names ending with this character are power-style globals: every
#: net carrying the same global name is one electrical node even when
#: the mask geometry leaves the rails physically disjoint (the extractor
#: merges them, :func:`repro.verify.extract.extract_netlist`).
GLOBAL_SUFFIX = "!"


class Device:
    """One netlist element: a kind plus role-labelled pins.

    ``pins`` is a tuple of ``(role, net)`` pairs.  Pins sharing a role
    are interchangeable (a transistor's two channel terminals both use
    role ``"ch"``); distinct roles are ordered connections.
    """

    __slots__ = ("kind", "pins")

    def __init__(self, kind: str, pins: Sequence[Tuple[str, int]]) -> None:
        self.kind = kind
        self.pins = tuple(pins)

    def pins_with_role(self, role: str) -> Tuple[int, ...]:
        """Nets attached through pins of the given role."""
        return tuple(net for r, net in self.pins if r == role)

    def __repr__(self) -> str:
        joined = ", ".join(f"{role}={net}" for role, net in self.pins)
        return f"Device({self.kind!r}, {joined})"


class SwitchNetlist:
    """A flat electrical graph of numbered nets and typed devices."""

    def __init__(self) -> None:
        #: net id -> sorted set of names attached to the net
        self.net_names: List[Set[str]] = []
        #: net id -> representative (x, y) position of a name attachment
        self.net_positions: Dict[int, Tuple[int, int]] = {}
        self.devices: List[Device] = []
        #: ordered primary input net ids (set by the extractor/builder)
        self.inputs: List[int] = []
        #: ordered primary output net ids
        self.outputs: List[int] = []
        #: nets forced high / low (power rails)
        self.vdd_nets: Set[int] = set()
        self.gnd_nets: Set[int] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_net(self, *names: str) -> int:
        """Append a net (optionally named); returns its id."""
        self.net_names.append(set(names))
        return len(self.net_names) - 1

    def name_net(self, net: int, name: str, position: Optional[Tuple[int, int]] = None) -> None:
        """Attach a name (and optionally a position) to a net."""
        self.net_names[net].add(name)
        if position is not None and net not in self.net_positions:
            self.net_positions[net] = position

    def add_device(self, kind: str, pins: Sequence[Tuple[str, int]]) -> Device:
        """Append a device; returns it."""
        device = Device(kind, pins)
        self.devices.append(device)
        return device

    def add_transistor(self, gate: Optional[int], a: int, b: int, depletion: bool = False) -> Device:
        """Append a transistor; depletion loads drop the gate pin."""
        if depletion:
            return self.add_device("dep", [("ch", a), ("ch", b)])
        if gate is None:
            raise ValueError("enhancement device needs a gate net")
        return self.add_device("enh", [("g", gate), ("ch", a), ("ch", b)])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_nets(self) -> int:
        return len(self.net_names)

    def names_of(self, net: int) -> Tuple[str, ...]:
        """Sorted names attached to a net."""
        return tuple(sorted(self.net_names[net]))

    def find_net(self, name: str) -> Optional[int]:
        """First net carrying ``name`` exactly, or None."""
        for net, names in enumerate(self.net_names):
            if name in names:
                return net
        return None

    def nets_with_suffix(self, suffix: str) -> List[int]:
        """Nets with a name whose last path component equals ``suffix``.

        Hierarchical names look like ``inst#3/sub/out``; the query
        matches on the component after the final ``/``.  Results are
        ordered by the net's recorded position (x, then y, then id) so
        callers get a stable left-to-right pin order.
        """
        hits = []
        for net, names in enumerate(self.net_names):
            if any(name.rsplit("/", 1)[-1] == suffix for name in names):
                hits.append(net)
        return sorted(
            hits, key=lambda n: (self.net_positions.get(n, (0, 0)), n)
        )

    def device_count(self, kind: Optional[str] = None) -> int:
        """Number of devices (of one kind, when given)."""
        if kind is None:
            return len(self.devices)
        return sum(1 for device in self.devices if device.kind == kind)

    def classify_rails(self) -> None:
        """Fill ``vdd_nets``/``gnd_nets`` from attached rail names."""
        for net, names in enumerate(self.net_names):
            for name in names:
                leaf = name.rsplit("/", 1)[-1].lower().rstrip(GLOBAL_SUFFIX)
                if leaf == "vdd":
                    self.vdd_nets.add(net)
                elif leaf == "gnd":
                    self.gnd_nets.add(net)

    def __repr__(self) -> str:
        return (
            f"SwitchNetlist(nets={self.num_nets},"
            f" devices={len(self.devices)})"
        )
