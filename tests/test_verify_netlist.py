"""Unit tests for the switch netlist: the ``SwitchNetlist`` building
blocks the extractor sits on."""

import pytest

from repro.verify.netlist import Device, SwitchNetlist


class TestSwitchNetlist:
    def test_transistor_roles(self):
        netlist = SwitchNetlist()
        g, a, b = (netlist.add_net() for _ in range(3))
        device = netlist.add_transistor(g, a, b)
        assert device.kind == "enh"
        assert device.pins_with_role("g") == (g,)
        assert sorted(device.pins_with_role("ch")) == sorted((a, b))

    def test_depletion_drops_gate(self):
        netlist = SwitchNetlist()
        a, b = netlist.add_net(), netlist.add_net()
        device = netlist.add_transistor(None, a, b, depletion=True)
        assert device.kind == "dep"
        assert device.pins_with_role("g") == ()

    def test_enhancement_requires_gate(self):
        netlist = SwitchNetlist()
        a, b = netlist.add_net(), netlist.add_net()
        with pytest.raises(ValueError):
            netlist.add_transistor(None, a, b)

    def test_nets_with_suffix_ordered_by_position(self):
        netlist = SwitchNetlist()
        right = netlist.add_net()
        left = netlist.add_net()
        netlist.name_net(right, "b#1/in", (20, 0))
        netlist.name_net(left, "a#0/in", (10, 0))
        # Keep both nets alive for the query.
        netlist.inputs = [left, right]
        assert netlist.nets_with_suffix("in") == [left, right]
