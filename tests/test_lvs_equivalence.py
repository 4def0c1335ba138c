"""The union-refinement LVS against its per-netlist oracle.

:func:`~repro.verify.lvs.compare_netlists` refines the disjoint union
of both netlists with integer colours;
:func:`~repro.verify.lvs.compare_netlists_reference` refines each side
on its own through content hashes.  Every report field must agree —
verdict, mismatch lines and refinement rounds — on cell-level
multiplier mutants, random small netlists and their relabellings, and
the degenerate shapes (empty netlists, isolated nets, pinless devices,
pin-count mismatches, graphs refinement cannot tell apart).  The PLA
mutants are covered by the mutation guard in ``test_verify_examples``.
"""

import functools
import random

import pytest
from oracles.lvs import compare_netlists_reference

from repro.multiplier import generate_multiplier
from repro.multiplier.generator import intended_multiplier_netlist
from repro.verify import SwitchNetlist, cell_graph_netlist, collect_occurrences
from repro.verify.lvs import compare_netlists
from repro.verify.netlist import Device


def assert_same_report(extracted, golden):
    """Both builds give one report; returns it."""
    report = compare_netlists(extracted, golden)
    assert report.to_dict() == compare_netlists_reference(extracted, golden).to_dict()
    return report


def ring(sizes):
    """Two-pin ``"r"`` devices closing one cycle of nets per size."""
    netlist = SwitchNetlist()
    for size in sizes:
        nets = [netlist.add_net() for _ in range(size)]
        for k in range(size):
            netlist.add_device("r", [("t", nets[k]), ("t", nets[(k + 1) % size])])
    return netlist


def random_netlist(rng, nets, devices):
    """Random kinds, roles, rails and primary pins over ``nets`` nets."""
    netlist = SwitchNetlist()
    for _ in range(nets):
        netlist.add_net()
    for _ in range(devices):
        pins = [
            (rng.choice("abc"), rng.randrange(nets))
            for _ in range(rng.randrange(4) if nets else 0)
        ]
        netlist.add_device(rng.choice(["enh", "dep", "cell"]), pins)
    if nets:
        netlist.vdd_nets = {rng.randrange(nets)}
        netlist.gnd_nets = {rng.randrange(nets)}
        netlist.inputs = [rng.randrange(nets) for _ in range(rng.randrange(3))]
        netlist.outputs = [rng.randrange(nets) for _ in range(rng.randrange(3))]
    return netlist


def relabelled(netlist, rng):
    """The same graph with nets and devices renumbered and pins shuffled."""
    order = list(range(netlist.num_nets))
    rng.shuffle(order)
    new = {old: k for k, old in enumerate(order)}
    copy = SwitchNetlist()
    for _ in order:
        copy.add_net()
    devices = list(netlist.devices)
    rng.shuffle(devices)
    for device in devices:
        pins = [(role, new[net]) for role, net in device.pins]
        rng.shuffle(pins)
        copy.add_device(device.kind, pins)
    copy.vdd_nets = {new[net] for net in netlist.vdd_nets}
    copy.gnd_nets = {new[net] for net in netlist.gnd_nets}
    copy.inputs = [new[net] for net in netlist.inputs]
    copy.outputs = [new[net] for net in netlist.outputs]
    return copy


def rewire(netlist, rng):
    """Move one random pin to another net; returns False when none can move."""
    pinned = [k for k, device in enumerate(netlist.devices) if device.pins]
    if not pinned or netlist.num_nets < 2:
        return False
    index = rng.choice(pinned)
    pins = list(netlist.devices[index].pins)
    pin = rng.randrange(len(pins))
    role, old = pins[pin]
    pins[pin] = (role, (old + 1 + rng.randrange(netlist.num_nets - 1)) % netlist.num_nets)
    netlist.devices[index] = Device(netlist.devices[index].kind, pins)
    return True


@functools.lru_cache(maxsize=None)
def multiplier_pair(size):
    """A generated multiplier's cell graph and its golden netlist."""
    occurrences, strays = collect_occurrences(generate_multiplier(*size))
    assert strays == []
    return cell_graph_netlist(occurrences), intended_multiplier_netlist(*size)


def device_copy(netlist):
    """A netlist sharing ``netlist``'s nets, with its own device list."""
    copy = SwitchNetlist()
    copy.net_names = netlist.net_names
    copy.devices = list(netlist.devices)
    return copy


class TestMultiplierMutants:
    """Cell-level retypes and rewires of generated multipliers."""

    @pytest.mark.parametrize("size", [(4, 4), (6, 6)])
    def test_unmutated_layout_matches(self, size):
        extracted, golden = multiplier_pair(size)
        assert assert_same_report(extracted, golden).matched

    @pytest.mark.parametrize("size", [(4, 4), (6, 6)])
    @pytest.mark.parametrize("seed", range(12))
    def test_retype_swaps_two_cells(self, size, seed):
        """Two cells of different kinds trade kinds: kind counts still agree.

        The cell graph has no primary pins, so a swap between cells its
        symmetries exchange can still match; only agreement is asserted.
        """
        extracted, golden = multiplier_pair(size)
        rng = random.Random(seed)
        mutant = device_copy(extracted)
        first = rng.randrange(len(mutant.devices))
        second = rng.choice(
            [k for k, device in enumerate(mutant.devices)
             if device.kind != mutant.devices[first].kind]
        )
        a, b = mutant.devices[first], mutant.devices[second]
        mutant.devices[first] = Device(b.kind, a.pins)
        mutant.devices[second] = Device(a.kind, b.pins)
        assert_same_report(mutant, golden)

    @pytest.mark.parametrize("size", [(4, 4), (6, 6)])
    @pytest.mark.parametrize("seed", range(12))
    def test_rewire_moves_one_pin(self, size, seed):
        extracted, golden = multiplier_pair(size)
        mutant = device_copy(extracted)
        assert rewire(mutant, random.Random(seed))
        assert not assert_same_report(mutant, golden).matched


class TestRandomNetlists:
    @pytest.mark.parametrize("seed", range(150))
    def test_relabelling_matches_and_rewire_agrees(self, seed):
        rng = random.Random(seed)
        netlist = random_netlist(rng, rng.randrange(8), rng.randrange(8))
        same = relabelled(netlist, rng)
        report = assert_same_report(same, netlist)
        assert report.matched
        if rewire(same, rng):
            assert_same_report(same, netlist)


class TestDegenerateShapes:
    def test_empty_netlists_match(self):
        report = assert_same_report(SwitchNetlist(), SwitchNetlist())
        assert report.matched
        assert report.rounds == 1

    def test_isolated_nets(self):
        three, two = SwitchNetlist(), SwitchNetlist()
        for _ in range(3):
            three.add_net()
        for _ in range(2):
            two.add_net()
        assert assert_same_report(three, three).matched
        report = assert_same_report(three, two)
        assert report.mismatches == ["1 net(s) in unmatched neighbourhood classes"]

    def test_isolated_net_beside_devices(self):
        golden = ring([3])
        extracted = ring([3])
        extracted.add_net()
        golden.add_net()
        assert assert_same_report(extracted, golden).matched

    def test_pinless_devices_across_different_round_counts(self):
        """Sides that stop on different rounds still share pinless kinds.

        A three-device chain needs one more round to settle than three
        separate two-net devices, so every pinned device and every net
        lands in an unmatched class; the two pinless pads of each side
        carry their kind at any depth and still pair up.
        """
        chain, pairs = SwitchNetlist(), SwitchNetlist()
        nets = [chain.add_net() for _ in range(4)]
        for a, b in zip(nets, nets[1:]):
            chain.add_device("r", [("t", a), ("u", b)])
        for _ in range(3):
            pairs.add_device("r", [("t", pairs.add_net()), ("u", pairs.add_net())])
        for netlist in (chain, pairs):
            netlist.add_device("pad", [])
            netlist.add_device("pad", [])
        report = assert_same_report(chain, pairs)
        assert report.mismatches == [
            "6 device(s) in unmatched neighbourhood classes",
            "10 net(s) in unmatched neighbourhood classes",
        ]

    def test_pin_count_mismatches_skip_refinement(self):
        a, b = ring([3]), ring([3])
        a.inputs = [0]
        b.inputs = [0, 1]
        b.outputs = [2]
        report = assert_same_report(a, b)
        assert report.mismatches == ["input count 1 != 2", "output count 0 != 1"]
        assert report.rounds == 0

    def test_kind_count_mismatch(self):
        a, b = ring([3]), ring([3])
        b.add_device("dep", [("ch", 0), ("ch", 1)])
        report = assert_same_report(a, b)
        assert report.mismatches == ["dep count 0 != 1"]

    def test_refinement_cannot_split_two_triangles_from_a_hexagon(self):
        """A Weisfeiler-Leman-indistinguishable pair: both builds match it."""
        report = assert_same_report(ring([3, 3]), ring([6]))
        assert report.matched
