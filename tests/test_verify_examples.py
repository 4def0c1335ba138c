"""Functional-equivalence coverage of every shipped example.

The acceptance surface of the verification PR: each structure the
``examples/`` scripts generate — the PLA demo's table, a ROM, the
decoder, the 4x4 multiplier, and the datapath demo's controller +
datapath pair — must pass ``verify --verify all``; and a mutation
guard checks that corrupting one extracted device always fails LVS
(the subsystem detects, not just decorates).
"""

import copy
import importlib.util
import random
from pathlib import Path

import pytest

from repro.multiplier import generate_multiplier
from repro.pla import TruthTable, generate_decoder, generate_pla, generate_rom
from repro.pla.generator import intended_pla_netlist
from repro.route import compose, verify_composite
from repro.verify import (
    compare_netlists,
    verify_cell,
    verify_multiplier,
    verify_pla,
)
from repro.verify.driver import pla_layout_netlist
from repro.verify.lvs import compare_netlists_reference
from repro.verify.netlist import Device

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    """Import an example script as a module (without running main)."""
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestShippedExamples:
    def test_pla_demo_table_verifies(self):
        module = load_example("pla_demo")
        report = verify_cell(generate_pla(module.TABLE), table=module.TABLE)
        assert report.ok, report.summary()
        assert report.exhaustive

    def test_pla_demo_decoder_verifies(self):
        report = verify_cell(generate_decoder(3))
        assert report.ok, report.summary()

    def test_rom_verifies(self):
        words = [0x3, 0x5, 0x0, 0x7, 0x6, 0x1, 0x2, 0x4]
        rom, table = generate_rom(words, 3)
        report = verify_cell(rom, table=table)
        assert report.ok, report.summary()
        assert report.exhaustive

    def test_multiplier_4x4_verifies_exhaustively(self):
        report = verify_multiplier(generate_multiplier(4, 4))
        assert report.ok, report.summary()
        assert report.exhaustive
        assert report.vectors_checked == 256

    def test_multiplier_demo_sizes_verify(self):
        for size in [(2, 2), (3, 4)]:
            report = verify_multiplier(generate_multiplier(*size))
            assert report.ok, report.summary()

    def test_datapath_demo_blocks_verify(self):
        module = load_example("datapath_demo")
        controller = generate_pla(module.CONTROL_TABLE, name="controller")
        datapath = generate_multiplier(4, 4)
        datapath.name = "datapath"
        assert verify_pla(controller, table=module.CONTROL_TABLE).ok
        assert verify_multiplier(datapath).ok
        # The routed composite round-trips its connectivity.
        lines = module.annotate_ports(controller, datapath)
        nets = {
            f"ctl{i}": [("datapath", f"ctl{i}"), ("controller", f"out{i}")]
            for i in range(lines)
        }
        composite, plan = compose("soc", datapath, controller, nets)
        assert verify_composite(composite, plan) == []


def _mutate(netlist, rng):
    """Apply one random local edit to a device; returns a description."""
    index = rng.randrange(len(netlist.devices))
    device = netlist.devices[index]
    choice = rng.randrange(3)
    if choice == 0:
        # Retype: enhancement <-> depletion.
        if device.kind == "enh":
            netlist.devices[index] = Device(
                "dep", [(r, n) for r, n in device.pins if r == "ch"]
            )
        else:
            gate = rng.randrange(netlist.num_nets)
            netlist.devices[index] = Device(
                "enh", [("g", gate)] + list(device.pins)
            )
        return f"retyped device {index}"
    if choice == 1:
        # Drop the device entirely.
        del netlist.devices[index]
        return f"dropped device {index}"
    # Rewire one pin to a different net.
    pin = rng.randrange(len(device.pins))
    role, old = device.pins[pin]
    new = (old + 1 + rng.randrange(netlist.num_nets - 1)) % netlist.num_nets
    pins = list(device.pins)
    pins[pin] = (role, new)
    netlist.devices[index] = Device(device.kind, pins)
    return f"rewired pin {pin} of device {index} from net {old} to {new}"


class TestMutationGuard:
    """Property test: any single-device mutation must fail LVS.

    Each mutant's report must also be the one the per-netlist oracle,
    :func:`~repro.verify.lvs.compare_netlists_reference`, gives.
    """

    TABLE = TruthTable.parse("1-0 | 10\n01- | 11\n-11 | 01\n00- | 10")

    @pytest.mark.parametrize("seed", range(100))
    def test_single_device_mutation_fails_lvs(self, seed):
        golden = intended_pla_netlist(self.TABLE)
        extracted = pla_layout_netlist(generate_pla(self.TABLE))
        assert compare_netlists(extracted, golden).matched
        rng = random.Random(seed)
        mutant = copy.deepcopy(extracted)
        what = _mutate(mutant, rng)
        report = compare_netlists(mutant, golden)
        assert not report.matched, f"LVS missed mutation: {what}"
        oracle = compare_netlists_reference(mutant, golden)
        assert report.to_dict() == oracle.to_dict(), what
