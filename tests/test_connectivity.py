"""The multiplier's interfaces carry its connectivity (the EXCL substitute).

The paper verified generated multiplier layouts with EXCL circuit
extraction.  Here the cell-level netlist the verifier compares against
its golden (:func:`repro.verify.cellgraph.cell_graph_netlist` over
:func:`~repro.verify.cellgraph.collect_occurrences`) joins ports that
the RSG placed on one grid point; these checks read its nets.
"""

import pytest

from repro.core import CellDefinition
from repro.geometry import NORTH, SOUTH, Vec2
from repro.verify.cellgraph import cell_graph_netlist, collect_occurrences


def port_nets(cell):
    """The port names of each net of ``cell``'s cell-level netlist."""
    occurrences, strays = collect_occurrences(cell)
    assert strays == []
    return cell_graph_netlist(occurrences).net_names


def seams(nets, first, second):
    """The nets joining a ``first`` port to a ``second`` port."""
    return [
        names for names in nets
        if any(name.endswith(f"/{first}") for name in names)
        and any(name.endswith(f"/{second}") for name in names)
    ]


def basiccell_pair(sample_text):
    """Two basic cells joined through vertical interface 2."""
    from repro.core import Rsg
    from repro.layout import loads_sample

    rsg = Rsg()
    loads_sample(sample_text, rsg)
    a = rsg.mk_instance("basiccell")
    b = rsg.mk_instance("basiccell")
    rsg.connect(a, b, 2)
    return rsg.mk_cell("pair", a)


def wire_cell(name="seg"):
    """A one-wire host cell with a port at each end."""
    cell = CellDefinition(name)
    cell.add_box("metal1", 0, 4, 10, 6)
    cell.add_port("left", 0, 5, "metal1")
    cell.add_port("right", 10, 5, "metal1")
    return cell


def netlist_of(top, hosts=("seg",)):
    """The cell-level netlist of ``top`` with ``hosts`` as its devices."""
    occurrences, strays = collect_occurrences(top, hosts=hosts, masks=())
    assert strays == []
    return cell_graph_netlist(occurrences)


def joined(netlist, first, second):
    """Whether ports ``first`` and ``second`` sit on one net."""
    return any({first, second} <= names for names in netlist.net_names)


class TestPortCoincidence:
    """The convention the cell-level netlist joins ports by: one net per
    grid point that a placed host's port lands on."""

    def test_abutting_ports_connect(self):
        seg = wire_cell()
        top = CellDefinition("top")
        top.add_instance(seg, Vec2(0, 0), NORTH, name="u0")
        top.add_instance(seg, Vec2(10, 0), NORTH, name="u1")
        netlist = netlist_of(top)
        assert joined(netlist, "u0/right", "u1/left")
        assert not joined(netlist, "u0/left", "u1/right")

    def test_ports_apart_do_not_connect(self):
        seg = wire_cell()
        top = CellDefinition("top")
        top.add_instance(seg, Vec2(0, 0), NORTH, name="u0")
        top.add_instance(seg, Vec2(11, 0), NORTH, name="u1")
        netlist = netlist_of(top)
        assert [names for names in netlist.net_names if len(names) > 1] == []
        assert netlist.num_nets == 4

    def test_oriented_instance_ports(self):
        """A south-turned instance's ports land at their turned
        positions: its ``right`` end (10, 5) turns to (-10, -5) and,
        placed at (20, 10), meets the north instance's ``right``."""
        seg = wire_cell()
        top = CellDefinition("top")
        top.add_instance(seg, Vec2(0, 0), NORTH, name="u0")
        top.add_instance(seg, Vec2(20, 10), SOUTH, name="u1")
        netlist = netlist_of(top)
        positions = {
            name: netlist.net_positions[net]
            for net, names in enumerate(netlist.net_names) for name in names
        }
        assert positions["u1/left"] == (20, 5)
        assert positions["u1/right"] == (10, 5)
        assert joined(netlist, "u0/right", "u1/right")

    def test_ports_join_whatever_their_layers(self):
        """The stylised seams mix layers, so coincidence alone joins."""
        a = CellDefinition("a")
        a.add_port("p", 5, 5, "metal1")
        b = CellDefinition("b")
        b.add_port("q", 5, 5, "poly")
        c = CellDefinition("c")
        c.add_port("w", 5, 5, "")
        top = CellDefinition("top")
        top.add_instance(a, Vec2(0, 0), NORTH, name="ua")
        top.add_instance(b, Vec2(0, 0), NORTH, name="ub")
        top.add_instance(c, Vec2(0, 0), NORTH, name="uc")
        netlist = netlist_of(top, hosts=("a", "b", "c"))
        assert netlist.net_names == [{"ua/p", "ub/q", "uc/w"}]

    def test_dangling_ports_are_nets_of_one_name(self):
        seg = wire_cell()
        top = CellDefinition("top")
        top.add_instance(seg, Vec2(0, 0), NORTH, name="u0")
        netlist = netlist_of(top)
        assert sorted(netlist.net_names, key=sorted) == [{"u0/left"}, {"u0/right"}]

    def test_one_device_per_host_with_its_ports_as_pins(self):
        seg = wire_cell()
        top = CellDefinition("top")
        for index in range(3):
            top.add_instance(seg, Vec2(10 * index, 0), NORTH, name=f"u{index}")
        netlist = netlist_of(top)
        assert [device.kind for device in netlist.devices] == ["seg"] * 3
        assert netlist.num_nets == 4
        for first, second in zip(netlist.devices, netlist.devices[1:]):
            assert dict(first.pins)["right"] == dict(second.pins)["left"]

    def test_nested_ports_are_named_by_instance_path(self):
        seg = wire_cell()
        row = CellDefinition("row")
        row.add_instance(seg, Vec2(0, 0), NORTH, name="a")
        row.add_instance(seg, Vec2(10, 0), NORTH)
        top = CellDefinition("top")
        top.add_instance(row, Vec2(0, 0), NORTH, name="r0")
        top.add_instance(row, Vec2(20, 0), NORTH, name="r1")
        netlist = netlist_of(top)
        # the unnamed instance is tagged by its cell type and its
        # position in the row's instance list
        assert joined(netlist, "r0/a/right", "r0/seg#1/left")
        assert joined(netlist, "r0/seg#1/right", "r1/a/left")

    def test_cells_that_are_not_hosts_carry_no_ports(self):
        seg = wire_cell()
        other = wire_cell("other")
        top = CellDefinition("top")
        top.add_instance(seg, Vec2(0, 0), NORTH, name="u0")
        top.add_instance(other, Vec2(10, 0), NORTH, name="u1")
        netlist = netlist_of(top)
        assert [device.kind for device in netlist.devices] == ["seg"]
        assert not any(name.startswith("u1/") for names in netlist.net_names for name in names)

    def test_empty_cell_has_no_nets(self):
        netlist = netlist_of(CellDefinition("empty"))
        assert netlist.net_names == [] and netlist.devices == []


class TestMultiplierConnectivity:
    """The interfaces carry the architecture's connectivity: sum chains
    run vertically, carry chains horizontally."""

    def test_sum_chain_through_array(self):
        from repro.multiplier import generate_multiplier

        nets = port_nets(generate_multiplier(3, 3))
        # 3 columns x 3 inter-row seams inside the 4-row array: every
        # row-r cell's sout meets the row-(r+1) cell's sin.
        chain = seams(nets, "sout", "sin")
        assert len(chain) >= 9
        for names in chain:
            assert len({name.rsplit("/", 1)[0] for name in names}) >= 2

    def test_carry_chain_along_rows(self):
        from repro.multiplier import generate_multiplier

        nets = port_nets(generate_multiplier(3, 3))
        # Two cin/cout seams per row, 4 rows.
        assert len(seams(nets, "cout", "cin")) >= 8

    def test_interface_mismatch_breaks_connectivity(self):
        """Control: shifting the vertical interface by one lambda breaks
        every seam — connectivity really is carried by interfaces."""
        from repro.multiplier import MULTIPLIER_SAMPLE

        joined = port_nets(basiccell_pair(MULTIPLIER_SAMPLE))
        assert seams(joined, "sout", "sin")
        shifted = port_nets(basiccell_pair(MULTIPLIER_SAMPLE.replace(
            "inst basiccell 0 -20 north", "inst basiccell 1 -20 north"
        )))
        assert [names for names in shifted if len(names) > 1] == []

    @pytest.mark.parametrize("size", [(2, 2), (4, 2), (2, 4), (4, 4), (5, 3)])
    def test_seam_counts_follow_the_array(self, size):
        """An x-by-y multiplier's array has y + 1 rows of x cells: x * y
        sout/sin seams between rows and (x - 1) * (y + 1) cout/cin seams
        within them, each joining exactly two ports."""
        from repro.multiplier import generate_multiplier

        xsize, ysize = size
        nets = port_nets(generate_multiplier(xsize, ysize))
        assert len(seams(nets, "sout", "sin")) == xsize * ysize
        assert len(seams(nets, "cout", "cin")) == (xsize - 1) * (ysize + 1)
        assert max(len(names) for names in nets) == 2

    @pytest.mark.parametrize("at", ["-1 -20", "0 -19", "0 -21"])
    def test_any_one_lambda_shift_breaks_the_seam(self, at):
        """The control above, shifted left, up and down instead."""
        from repro.multiplier import MULTIPLIER_SAMPLE

        shifted = port_nets(basiccell_pair(MULTIPLIER_SAMPLE.replace(
            "inst basiccell 0 -20 north", f"inst basiccell {at} north"
        )))
        assert [names for names in shifted if len(names) > 1] == []
