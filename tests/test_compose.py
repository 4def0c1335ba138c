"""Tests for compose(): routed composites, round-trips, the net file."""

import pytest

from repro.compact import TECH_A, check_layout
from repro.core import CellDefinition, Rsg
from repro.core.errors import ParseError
from repro.geometry import Vec2
from repro.layout import flatten_cell, loads_sample, read_cif, cif_text, svg_render
from repro.route import (
    NetRequest,
    RoutingError,
    compose,
    compose_from_netfile,
    parse_net_file,
    routed_netlist,
)


def block(name, port_specs, port_y, width=80, height=20):
    """A block with ports on one horizontal edge (y=0 or y=height)."""
    cell = CellDefinition(name)
    cell.add_box("metal1", 0, 0, width, height)
    for port_name, x in port_specs:
        cell.add_port(port_name, x, port_y, "metal1")
    return cell


@pytest.fixture
def blocks():
    bottom = block("south", [("a", 7), ("b", 28), ("c", 49)], port_y=20)
    top = block("north", [("x", 7), ("y", 28), ("z", 49)], port_y=0)
    return bottom, top


ALIGNED = {
    "n0": [("south", "a"), ("north", "x")],
    "n1": [("south", "b"), ("north", "y")],
    "n2": [("south", "c"), ("north", "z")],
}
CROSSED = {
    "n0": [("south", "a"), ("north", "z")],
    "n1": [("south", "b"), ("north", "x")],
    "n2": [("south", "c"), ("north", "y")],
}


class TestCompose:
    def test_auto_picks_river_for_aligned_bus(self, blocks):
        composite, plan = compose("combo", *blocks, ALIGNED)
        assert plan.router == "river"
        assert plan.vias == 0
        assert plan.tracks == plan.wiring.tracks
        assert plan.wirelength() == plan.wiring.wirelength() > 0

    def test_auto_picks_channel_for_crossings(self, blocks):
        composite, plan = compose("combo", *blocks, CROSSED)
        assert plan.router == "channel"
        assert plan.vias > 0
        assert plan.tracks == plan.wiring.tracks > 0
        assert plan.wirelength() == plan.wiring.wirelength()

    @pytest.mark.parametrize("nets", [ALIGNED, CROSSED], ids=["river", "channel"])
    def test_connectivity_round_trip(self, blocks, nets):
        composite, plan = compose("combo", *blocks, nets)
        assert routed_netlist(composite, plan.style) == plan.requested_groups()

    @pytest.mark.parametrize("nets", [ALIGNED, CROSSED], ids=["river", "channel"])
    def test_routed_channel_is_drc_clean(self, blocks, nets):
        composite, plan = compose("combo", *blocks, nets)
        assert check_layout(plan.wiring.layers(), TECH_A) == []

    def test_top_cell_placed_one_channel_above(self, blocks):
        bottom, top = blocks
        composite, plan = compose("combo", bottom, top, ALIGNED)
        placed_top = next(i for i in composite.instances if i.name == "north")
        assert placed_top.location == Vec2(0, 20 + plan.height)
        bbox = composite.bounding_box()
        assert bbox.height == 20 + plan.height + 20

    def test_top_x_offset_still_routes(self, blocks):
        bottom, top = blocks
        composite, plan = compose("combo", bottom, top, ALIGNED, top_x=14)
        assert routed_netlist(composite, plan.style) == plan.requested_groups()

    def test_explicit_channel_router_on_aligned_bus(self, blocks):
        composite, plan = compose("combo", *blocks, ALIGNED, router="channel")
        assert plan.router == "channel"
        assert routed_netlist(composite, plan.style) == plan.requested_groups()

    def test_river_refused_for_crossings(self, blocks):
        with pytest.raises(RoutingError, match="river"):
            compose("combo", *blocks, CROSSED, router="river")

    def test_net_request_sequence_form(self, blocks):
        nets = [NetRequest("n0", (("south", "a"), ("north", "x")))]
        composite, plan = compose("combo", *blocks, nets)
        assert plan.requested_groups() == [["north/x", "south/a"]]

    def test_cif_round_trip_preserves_geometry_and_port_layers(self, blocks):
        composite, plan = compose("combo", *blocks, CROSSED)
        table = read_cif(cif_text(composite))
        again = table.lookup("combo")
        assert flatten_cell(again).same_geometry(flatten_cell(composite))
        assert table.lookup("south").port("a").layer == "metal1"

    def test_svg_renders_net_labels(self, blocks):
        composite, plan = compose("combo", *blocks, ALIGNED)
        svg = svg_render(composite, show_labels=True)
        assert "<text" in svg and "n1" in svg

    def test_port_off_edge_rejected(self, blocks):
        bottom, top = blocks
        bottom.add_port("inner", 60, 10, "metal1")
        nets = {"bad": [("south", "inner"), ("north", "x")]}
        with pytest.raises(RoutingError, match="top edge"):
            compose("combo", bottom, top, nets)

    def test_unknown_instance_rejected(self, blocks):
        nets = {"bad": [("nowhere", "a"), ("north", "x")]}
        with pytest.raises(RoutingError, match="unknown instance"):
            compose("combo", *blocks, nets)

    def test_colliding_instance_names_rejected(self, blocks):
        bottom, top = blocks
        with pytest.raises(RoutingError, match="collide"):
            compose("combo", bottom, top, ALIGNED,
                    bottom_name="same", top_name="same")

    def test_duplicate_net_names_rejected(self, blocks):
        nets = [
            NetRequest("w", (("south", "a"), ("north", "x"))),
            NetRequest("w", (("south", "b"), ("north", "y"))),
        ]
        with pytest.raises(RoutingError, match="duplicate net name"):
            compose("combo", *blocks, nets)

    def test_explicit_single_layer_style_is_honoured(self, blocks):
        from repro.compact.rules import TECH_B
        from repro.route import RouteStyle

        # TECH_B metal1 is wider than the default TECH_A style; the
        # routed wires must carry the caller's width, not the default.
        style = RouteStyle.single_layer(TECH_B, layer="metal1")
        assert style.wire_width == 4
        composite, plan = compose("combo", *blocks, ALIGNED, style=style)
        assert plan.router == "river"
        assert plan.style is style
        boxes = plan.wiring.layers()["metal1"]
        assert all(min(b.width, b.height) == 4 for b in boxes)

    def test_explicit_two_layer_style_forces_channel(self, blocks):
        from repro.route import RouteStyle
        from repro.compact import TECH_A

        style = RouteStyle.from_rules(TECH_A)
        composite, plan = compose("combo", *blocks, ALIGNED, style=style)
        assert plan.router == "channel"
        assert plan.style is style

    def test_style_router_kind_mismatch_rejected(self, blocks):
        from repro.route import RouteStyle
        from repro.compact import TECH_A

        with pytest.raises(RoutingError, match="single-layer style"):
            compose("combo", *blocks, ALIGNED, router="channel",
                    style=RouteStyle.single_layer(TECH_A))
        with pytest.raises(RoutingError, match="two-layer style"):
            compose("combo", *blocks, ALIGNED, router="river",
                    style=RouteStyle.from_rules(TECH_A))

    def test_single_layer_style_with_unroutable_request_rejected(self, blocks):
        from repro.route import RouteStyle
        from repro.compact import TECH_A

        with pytest.raises(RoutingError, match="not river-routable"):
            compose("combo", *blocks, CROSSED,
                    style=RouteStyle.single_layer(TECH_A))


NETFILE = """
# a comment
bottom south
top north 14
net n0 south/a north/x
net n1 south/b north/y
"""


class TestNetFile:
    def test_parse(self):
        bottom, top, top_x, requests = parse_net_file(NETFILE)
        assert (bottom, top, top_x) == ("south", "north", 14)
        assert requests[0] == NetRequest("n0", (("south", "a"), ("north", "x")))

    @pytest.mark.parametrize(
        "text",
        [
            "net n0 a/b c/d",                      # no bottom/top
            "bottom s\ntop n",                     # no nets
            "bottom s\ntop n\nnet n0 a b",         # terminal without /
            "bottom s\ntop n x\nnet",              # short net line
            "bottom s\ntop n oops\nnet n0 a/b c/d",  # bad offset
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse_net_file(text)

    def test_compose_from_netfile_uses_cell_table(self, blocks):
        bottom, top = blocks
        rsg = Rsg()
        rsg.cells.define(bottom)
        rsg.cells.define(top)
        composite, plan = compose_from_netfile(NETFILE, rsg.cells, name="combo")
        assert composite.name == "combo"
        assert routed_netlist(composite, plan.style) == plan.requested_groups()


class TestDatapathDemo:
    """The acceptance scenario: PLA controller + multiplier datapath."""

    def test_demo_composites_verify(self, capsys):
        import importlib.util
        import pathlib

        path = pathlib.Path(__file__).parent.parent / "examples" / "datapath_demo.py"
        spec = importlib.util.spec_from_file_location("datapath_demo", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main()  # asserts round-trip nets and zero DRC internally
        out = capsys.readouterr().out
        assert "DRC: 0 violations" in out
        assert "river" in out and "channel" in out
