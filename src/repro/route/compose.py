"""Composition beyond abutment: place two cells, route the gap.

:func:`compose` is the subsystem's front door.  It takes a *bottom*
and a *top* cell plus a list of net requests naming ports on the
facing edges, derives the channel geometry from the cells' bounding
boxes, picks a router (river when the request is order-preserving and
single-layer-compatible, the general channel router otherwise), and
emits the wires as ordinary geometry in a child wiring cell of a new
composite.  The vertical gap between the cells is *derived from the
routing result* — the top cell is placed exactly one channel height
above the bottom cell — which is what makes non-abutting composition
automatic: no manual spacing, no hand-drawn wires.

The module also parses the CLI's net-request files (``--route``)::

    # datapath.net
    bottom controller
    top datapath 12          # optional x offset for the top cell
    net c0 controller/out0 datapath/ctl0
    net c1 controller/out1 datapath/ctl1
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..compact.rules import TECH_A, DesignRules
from ..core.cell import CellDefinition, CellTable
from ..core.errors import ParseError
from ..geometry import NORTH, Box, Vec2
from .channel import Pin, channel_route
from .river import river_route
from .style import RouteStyle, RoutingError
from .wiring import Wiring

__all__ = [
    "NetRequest",
    "WiringPlan",
    "compose",
    "parse_net_file",
    "compose_from_netfile",
    "verify_composite",
]

NetsArgument = Union[
    Mapping[str, Sequence[Tuple[str, str]]],
    Sequence["NetRequest"],
]


@dataclass(frozen=True)
class NetRequest:
    """One requested connection: a net name and its (instance, port) terminals."""

    name: str
    terminals: Tuple[Tuple[str, str], ...]


@dataclass
class WiringPlan:
    """Everything :func:`compose` decided: channel, router, wires, stats."""

    name: str
    bottom_name: str
    top_name: str
    nets: Tuple[NetRequest, ...]
    channel: Box
    wiring: Wiring

    @property
    def router(self) -> str:
        """Which router ran (``"river"`` or ``"channel"``)."""
        return self.wiring.router

    @property
    def style(self) -> RouteStyle:
        """The wiring style the channel was routed with."""
        return self.wiring.style

    @property
    def tracks(self) -> int:
        """Horizontal track levels used in the channel."""
        return self.wiring.tracks

    @property
    def height(self) -> int:
        """Channel height in lambda (the derived cell gap)."""
        return self.wiring.height

    @property
    def vias(self) -> int:
        """Trunk/branch junction squares emitted."""
        return self.wiring.vias

    def wirelength(self) -> int:
        """Total routed wirelength in lambda."""
        return self.wiring.wirelength()

    def requested_groups(self) -> List[List[str]]:
        """The request as sorted hierarchical port-name groups."""
        return sorted(
            sorted(f"{instance}/{port}" for instance, port in net.terminals)
            for net in self.nets
        )

    def summary(self) -> str:
        """One printable line describing the routed channel."""
        return (
            f"composed {self.bottom_name!r} + {self.top_name!r} via"
            f" {self.wiring.summary()}"
        )


def verify_composite(composite: CellDefinition, plan: WiringPlan) -> List[str]:
    """Connectivity round-trip of a routed composite.

    Re-extracts the wire geometry (:func:`repro.route.extract.routed_netlist`)
    and compares the recovered port groups against the request; returns
    human-readable mismatch strings (empty = the wiring carries exactly
    the requested connectivity).  This is the verification hook the
    ``--verify`` CLI flow runs on routed composites, where the output
    is wiring plus two opaque blocks rather than a single generated
    structure.
    """
    from .extract import routed_netlist

    extracted = routed_netlist(composite, plan.style)
    requested = plan.requested_groups()
    mismatches: List[str] = []
    for group in requested:
        if group not in extracted:
            mismatches.append(f"requested net {group} not recovered from wires")
    for group in extracted:
        if group not in requested:
            mismatches.append(f"wires connect unrequested group {group}")
    return mismatches


def _normalise_nets(nets: NetsArgument) -> Tuple[NetRequest, ...]:
    """Accept a mapping or NetRequest sequence; always return requests."""
    if isinstance(nets, Mapping):
        return tuple(
            NetRequest(name, tuple(tuple(t) for t in terminals))
            for name, terminals in nets.items()
        )
    return tuple(
        net
        if isinstance(net, NetRequest)
        else NetRequest(net[0], tuple(tuple(t) for t in net[1]))
        for net in nets
    )


def _river_eligible(
    nets: Sequence[NetRequest],
    pins: Sequence[Pin],
    river_style: RouteStyle,
) -> bool:
    """True when the request is a planar, order-preserving two-pin match."""
    by_net: Dict[str, Dict[str, Pin]] = {}
    for pin in pins:
        by_net.setdefault(pin.net, {})[pin.side] = pin
        if pin.layer and pin.layer != river_style.trunk_layer:
            return False
    pairs = []
    for net in nets:
        sides = by_net.get(net.name, {})
        if len(net.terminals) != 2 or set(sides) != {"bottom", "top"}:
            return False
        pairs.append((sides["bottom"].x, sides["top"].x))
    pairs.sort()
    bottoms = [a for a, _ in pairs]
    tops = [b for _, b in pairs]
    pitch = river_style.pitch
    if any(b - a < pitch for a, b in zip(bottoms, bottoms[1:])):
        return False
    if any(b - a < pitch for a, b in zip(tops, tops[1:])):
        return False
    return tops == sorted(tops)


def compose(
    name: str,
    bottom: CellDefinition,
    top: CellDefinition,
    nets: NetsArgument,
    rules: DesignRules = TECH_A,
    router: str = "auto",
    style: Optional[RouteStyle] = None,
    top_x: int = 0,
    bottom_name: str = "",
    top_name: str = "",
) -> Tuple[CellDefinition, WiringPlan]:
    """Stack ``top`` above ``bottom`` and route the nets between them.

    Terminals name ports that must sit on the bottom cell's top edge or
    the top cell's bottom edge (in each cell's own coordinates); the
    top cell may be shifted horizontally with ``top_x``.  ``router`` is
    ``"auto"`` (river when possible), ``"river"`` or ``"channel"``.
    Returns ``(composite, plan)``; the composite holds both cells plus
    a ``wires`` child cell whose geometry realises every net.

    The channel derivation leans on the cells' memoized bounding boxes,
    so re-composing large arrays does not re-flatten them.
    """
    requests = _normalise_nets(nets)
    seen_names = set()
    for request in requests:
        if request.name in seen_names:
            raise RoutingError(f"duplicate net name {request.name!r}")
        seen_names.add(request.name)
    bottom_name = bottom_name or bottom.name
    top_name = top_name or top.name
    if bottom_name == top_name:
        raise RoutingError(
            f"instance names collide ({bottom_name!r}); pass bottom_name/top_name"
        )
    bb_bottom = bottom.bounding_box()
    bb_top = top.bounding_box()
    if bb_bottom is None or bb_top is None:
        raise RoutingError("cannot compose empty cells")
    y0 = bb_bottom.ymax

    pins: List[Pin] = []
    for request in requests:
        if len(request.terminals) < 2:
            raise RoutingError(f"net {request.name!r} needs at least two terminals")
        for instance_name, port_name in request.terminals:
            if instance_name == bottom_name:
                port = bottom.port(port_name)
                if port.position.y != bb_bottom.ymax:
                    raise RoutingError(
                        f"port {bottom_name}/{port_name} is not on the bottom"
                        f" cell's top edge (y={port.position.y}, edge at"
                        f" y={bb_bottom.ymax})"
                    )
                pins.append(Pin(port.position.x, "bottom", request.name, port.layer))
            elif instance_name == top_name:
                port = top.port(port_name)
                if port.position.y != bb_top.ymin:
                    raise RoutingError(
                        f"port {top_name}/{port_name} is not on the top cell's"
                        f" bottom edge (y={port.position.y}, edge at"
                        f" y={bb_top.ymin})"
                    )
                pins.append(Pin(port.position.x + top_x, "top", request.name, port.layer))
            else:
                raise RoutingError(
                    f"net {request.name!r} names unknown instance"
                    f" {instance_name!r} (have {bottom_name!r}, {top_name!r})"
                )

    if router not in ("auto", "river", "channel"):
        raise RoutingError(f"router must be auto, river or channel, not {router!r}")
    # An explicit style constrains the router choice: a single-layer
    # style can only drive the river router, a two-layer style only the
    # channel router — silently substituting a derived default would
    # route on layers the caller never asked for.
    if style is not None:
        if style.is_single_layer and router == "channel":
            raise RoutingError(
                "a single-layer style cannot drive the channel router"
                " (it needs distinct trunk/branch layers)"
            )
        if not style.is_single_layer and router == "river":
            raise RoutingError(
                "a two-layer style cannot drive the river router"
                " (pass a RouteStyle.single_layer style)"
            )
    river_style = (
        style
        if style is not None and style.is_single_layer
        else RouteStyle.single_layer(rules)
    )
    use_river = (
        (style is None or style.is_single_layer)
        and router in ("auto", "river")
        and _river_eligible(requests, pins, river_style)
    )
    if use_river:
        bottom_pins = {p.net: p.x for p in pins if p.side == "bottom"}
        top_pins = {p.net: p.x for p in pins if p.side == "top"}
        pairs = [(r.name, bottom_pins[r.name], top_pins[r.name]) for r in requests]
        wiring = river_route(pairs, river_style, y0=y0)
    elif router == "river" or (style is not None and style.is_single_layer):
        raise RoutingError(
            "request is not river-routable (needs order-preserving two-pin"
            " nets on a single layer); use router='channel'"
        )
    else:
        channel_style = style if style is not None else RouteStyle.from_rules(rules)
        wiring = channel_route(pins, channel_style, y0=y0)

    composite = CellDefinition(name)
    composite.add_instance(bottom, Vec2(0, 0), NORTH, name=bottom_name)
    composite.add_instance(
        top, Vec2(top_x, y0 + wiring.height - bb_top.ymin), NORTH, name=top_name
    )
    wires = wiring.as_cell(f"{name}_wires")
    composite.add_instance(wires, Vec2(0, 0), NORTH, name="wires")

    xs = [pin.x for pin in pins] or [bb_bottom.xmin, bb_bottom.xmax]
    channel = Box(min(xs), y0, max(xs), y0 + wiring.height)
    plan = WiringPlan(
        name=name,
        bottom_name=bottom_name,
        top_name=top_name,
        nets=requests,
        channel=channel,
        wiring=wiring,
    )
    return composite, plan


def parse_net_file(text: str) -> Tuple[str, str, int, Tuple[NetRequest, ...]]:
    """Parse a ``--route`` net-request file (see module docstring).

    Returns ``(bottom_cell, top_cell, top_x, net_requests)``.
    """
    bottom = top = ""
    top_x = 0
    requests: List[NetRequest] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0].lower()
        if keyword == "bottom" and len(tokens) == 2:
            bottom = tokens[1]
        elif keyword == "top" and len(tokens) in (2, 3):
            top = tokens[1]
            if len(tokens) == 3:
                try:
                    top_x = int(tokens[2])
                except ValueError:
                    raise ParseError(
                        f"line {line_number}: top offset must be an integer"
                    ) from None
        elif keyword == "net" and len(tokens) >= 4:
            terminals = []
            for token in tokens[2:]:
                if "/" not in token:
                    raise ParseError(
                        f"line {line_number}: terminal {token!r} must be"
                        " instance/port"
                    )
                instance_name, port_name = token.split("/", 1)
                terminals.append((instance_name, port_name))
            requests.append(NetRequest(tokens[1], tuple(terminals)))
        else:
            raise ParseError(
                f"line {line_number}: expected 'bottom <cell>', 'top <cell>"
                " [x]' or 'net <name> <inst/port> <inst/port>...'"
            )
    if not bottom or not top:
        raise ParseError("net file must name both a bottom and a top cell")
    if not requests:
        raise ParseError("net file declares no nets")
    return bottom, top, top_x, tuple(requests)


def compose_from_netfile(
    text: str,
    cells: CellTable,
    name: str = "composite",
    rules: DesignRules = TECH_A,
    router: str = "auto",
) -> Tuple[CellDefinition, WiringPlan]:
    """Run :func:`compose` from net-file text against a cell table."""
    bottom_name, top_name, top_x, requests = parse_net_file(text)
    return compose(
        name,
        cells.lookup(bottom_name),
        cells.lookup(top_name),
        requests,
        rules=rules,
        router=router,
        top_x=top_x,
    )
