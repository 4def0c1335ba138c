"""Tests for the silicon-verification subsystem (extraction, sim, LVS).

The tentpole coverage: device extraction reads real transistors out of
mask geometry, the switch-level simulator evaluates them correctly,
LVS canonicalization matches structure and catches every local edit,
and geometry drawn across placed instances extracts as one circuit.
"""

import pytest

from repro import CellDefinition
from repro.compact.rules import TECH_A
from repro.geometry import Vec2
from repro.pla import (
    TruthTable,
    generate_decoder,
    generate_pla,
    generate_rom,
    intended_decoder_netlist,
    intended_pla_netlist,
    intended_rom_netlist,
)
from repro.verify import (
    ExtractionError,
    SwitchNetlist,
    X,
    compare_netlists,
    extract_netlist,
    sample_vectors,
    sample_words,
    simulate,
    verify_cell,
    verify_pla,
)
from repro.verify.driver import pla_layout_netlist

TABLE = TruthTable.parse(
    """
    1-0 | 10
    01- | 11
    -11 | 01
    00- | 10
    """
)


def make_cell(boxes, ports=()):
    cell = CellDefinition("dut")
    for layer, x0, y0, x1, y1 in boxes:
        cell.add_box(layer, x0, y0, x1, y1)
    for name, x, y, layer in ports:
        cell.add_port(name, x, y, layer)
    return cell


class TestDeviceExtraction:
    def test_poly_over_diff_is_one_transistor(self):
        cell = make_cell(
            [
                ("diff", 0, 0, 10, 2),       # source strip .. drain strip
                ("poly", 4, -2, 6, 4),       # gate crossing it
            ],
            [("s", 0, 1, "diff"), ("d", 10, 1, "diff"), ("g", 5, -2, "poly")],
        )
        netlist = extract_netlist(cell, TECH_A)
        assert netlist.device_count("enh") == 1
        device = netlist.devices[0]
        assert netlist.names_of(device.pins_with_role("g")[0]) == ("g",)
        channel_names = sorted(
            netlist.names_of(net)[0] for net in device.pins_with_role("ch")
        )
        assert channel_names == ["d", "s"]

    def test_implant_marks_depletion(self):
        cell = make_cell(
            [
                ("diff", 0, 0, 10, 2),
                ("poly", 4, -2, 6, 4),
                ("implant", 4, 0, 6, 2),
            ]
        )
        netlist = extract_netlist(cell, TECH_A)
        assert netlist.device_count("dep") == 1
        assert netlist.device_count("enh") == 0

    def test_cut_region_is_connection_not_channel(self):
        """A contact cut suppresses the channel under it (butting contact)."""
        cell = make_cell(
            [
                ("diff", 0, 0, 10, 2),
                ("poly", 4, 0, 6, 2),        # fully over diff ...
                ("cut", 4, 0, 6, 2),         # ... but it is a contact
            ]
        )
        netlist = extract_netlist(cell, TECH_A)
        assert netlist.device_count() == 0

    def test_cut_connects_layers(self):
        cell = make_cell(
            [
                ("metal1", 0, 0, 10, 2),
                ("poly", 0, 4, 10, 6),
                ("cut", 2, 0, 4, 2),
            ],
            [("m", 0, 1, "metal1"), ("p", 0, 5, "poly")],
        )
        netlist = extract_netlist(cell, TECH_A)
        # metal and the disjoint poly stay separate (no overlap with cut).
        assert netlist.find_net("m") != netlist.find_net("p")
        cell2 = make_cell(
            [
                ("metal1", 0, 0, 10, 2),
                ("poly", 0, 0, 10, 2),
                ("cut", 2, 0, 4, 2),
            ],
            [("m", 0, 1, "metal1"), ("p", 9, 1, "poly")],
        )
        netlist2 = extract_netlist(cell2, TECH_A)
        assert netlist2.find_net("m") == netlist2.find_net("p")

    def test_corner_touch_does_not_conduct(self):
        cell = make_cell(
            [("metal1", 0, 0, 2, 2), ("metal1", 2, 2, 4, 4)],
            [("a", 0, 0, "metal1"), ("b", 4, 4, "metal1")],
        )
        netlist = extract_netlist(cell, TECH_A)
        assert netlist.find_net("a") != netlist.find_net("b")

    def test_edge_touch_conducts(self):
        cell = make_cell(
            [("metal1", 0, 0, 2, 2), ("metal1", 2, 0, 4, 2)],
            [("a", 0, 1, "metal1"), ("b", 4, 1, "metal1")],
        )
        netlist = extract_netlist(cell, TECH_A)
        assert netlist.find_net("a") == netlist.find_net("b")

    def test_channel_with_one_terminal_rejected(self):
        cell = make_cell(
            [
                ("diff", 0, 0, 6, 2),
                ("poly", 4, -2, 8, 4),      # gate at the strip's end
            ]
        )
        with pytest.raises(ExtractionError):
            extract_netlist(cell, TECH_A)

    def test_derived_gate_layer_expands_to_device(self):
        """The compactor's derived ``gate`` layer extracts as poly/diff."""
        cell = make_cell([("gate", 4, 0, 6, 2), ("diff", -4, 0, 12, 2)])
        netlist = extract_netlist(cell, TECH_A)
        assert netlist.device_count("enh") == 1


class TestSwitchSimulation:
    @staticmethod
    def inverter():
        netlist = SwitchNetlist()
        vdd, gnd = netlist.add_net("vdd!"), netlist.add_net("gnd!")
        netlist.vdd_nets.add(vdd)
        netlist.gnd_nets.add(gnd)
        a, out = netlist.add_net("a"), netlist.add_net("out")
        netlist.add_transistor(a, out, gnd)
        netlist.add_transistor(None, out, vdd, depletion=True)
        return netlist, a, out

    def test_inverter(self):
        netlist, a, out = self.inverter()
        assert simulate(netlist, {a: 1})[out] == 0
        assert simulate(netlist, {a: 0})[out] == 1

    def test_x_gate_propagates_x(self):
        netlist, a, out = self.inverter()
        assert simulate(netlist, {a: X})[out] == X

    def test_nor_gate(self):
        netlist = SwitchNetlist()
        vdd, gnd = netlist.add_net("vdd!"), netlist.add_net("gnd!")
        netlist.vdd_nets.add(vdd)
        netlist.gnd_nets.add(gnd)
        a, b, out = (netlist.add_net() for _ in range(3))
        netlist.add_transistor(a, out, gnd)
        netlist.add_transistor(b, out, gnd)
        netlist.add_transistor(None, out, vdd, depletion=True)
        for va in (0, 1):
            for vb in (0, 1):
                got = simulate(netlist, {a: va, b: vb})[out]
                assert got == (0 if (va or vb) else 1)

    def test_series_pulldown(self):
        netlist = SwitchNetlist()
        vdd, gnd = netlist.add_net("vdd!"), netlist.add_net("gnd!")
        netlist.vdd_nets.add(vdd)
        netlist.gnd_nets.add(gnd)
        a, b, mid, out = (netlist.add_net() for _ in range(4))
        netlist.add_transistor(a, out, mid)
        netlist.add_transistor(b, mid, gnd)
        netlist.add_transistor(None, out, vdd, depletion=True)
        for va in (0, 1):
            for vb in (0, 1):
                got = simulate(netlist, {a: va, b: vb})[out]
                assert got == (0 if (va and vb) else 1)

    def test_pass_transistor_passes_value(self):
        netlist = SwitchNetlist()
        src, gate, out = (netlist.add_net() for _ in range(3))
        netlist.add_transistor(gate, src, out)
        assert simulate(netlist, {src: 1, gate: 1})[out] == 1
        assert simulate(netlist, {src: 0, gate: 1})[out] == 0
        assert simulate(netlist, {src: 1, gate: 0})[out] == X  # floating

    def test_drive_beats_pull(self):
        """An enhancement path to GND overrides the depletion pull-up."""
        netlist, a, out = self.inverter()
        values = simulate(netlist, {a: 1})
        assert values[out] == 0


class TestLvs:
    def test_identical_netlists_match(self):
        a = intended_pla_netlist(TABLE)
        b = intended_pla_netlist(TABLE)
        assert compare_netlists(a, b).matched

    def test_different_personality_mismatch(self):
        other = TruthTable.parse("1-0 | 10\n01- | 11\n-11 | 01\n001 | 10")
        report = compare_netlists(
            intended_pla_netlist(TABLE), intended_pla_netlist(other)
        )
        assert not report.matched

    def test_gate_channel_swap_caught(self):
        def build(swap):
            netlist = SwitchNetlist()
            vdd, gnd = netlist.add_net("vdd!"), netlist.add_net("gnd!")
            netlist.vdd_nets.add(vdd)
            netlist.gnd_nets.add(gnd)
            a, b, out = (netlist.add_net() for _ in range(3))
            netlist.inputs = [a, b]
            netlist.outputs = [out]
            if swap:
                netlist.add_transistor(out, a, gnd)
            else:
                netlist.add_transistor(a, out, gnd)
            netlist.add_transistor(b, out, gnd)
            netlist.add_transistor(None, out, vdd, depletion=True)
            return netlist

        assert compare_netlists(build(False), build(False)).matched
        assert not compare_netlists(build(True), build(False)).matched

    def test_source_drain_swap_is_not_a_mismatch(self):
        def build(order):
            netlist = SwitchNetlist()
            a, b, g = (netlist.add_net() for _ in range(3))
            netlist.inputs = [g]
            netlist.outputs = [a]
            if order:
                netlist.add_transistor(g, a, b)
            else:
                netlist.add_transistor(g, b, a)
            return netlist

        assert compare_netlists(build(True), build(False)).matched


class TestPlaFamilyClosure:
    """Acceptance: mask geometry -> devices -> logic, end to end."""

    def test_pla_lvs_and_exhaustive_sim(self):
        report = verify_pla(generate_pla(TABLE), table=TABLE, mode="all")
        assert report.ok
        assert report.exhaustive
        assert report.vectors_checked == 2 ** TABLE.num_inputs

    def test_decoder(self):
        report = verify_cell(generate_decoder(3))
        assert report.ok and report.exhaustive

    def test_rom_against_intended_hook(self):
        words = [5, 0, 7, 2, 6, 1]
        rom, table = generate_rom(words, 3)
        netlist = pla_layout_netlist(rom)
        assert compare_netlists(netlist, intended_rom_netlist(words, 3)).matched
        report = verify_cell(rom, table=table)
        assert report.ok

    def test_eight_input_pla_exhaustive(self):
        """The acceptance bound: <= 8 inputs simulate exhaustively."""
        rows = ["1-------", "-0------", "--11----", "----1-0-", "------01"]
        outs = ["10", "01", "11", "10", "01"]
        table = TruthTable(rows, outs)
        report = verify_pla(generate_pla(table), table=table)
        assert report.ok
        assert report.exhaustive and report.vectors_checked == 256

    def test_sampling_beyond_cap(self):
        report = verify_pla(
            generate_pla(TABLE), table=TABLE, max_vectors=4
        )
        assert report.ok
        assert not report.exhaustive
        assert report.vectors_checked == 4

    def test_sim_catches_wrong_table(self):
        lying = TruthTable.parse("1-0 | 01\n01- | 11\n-11 | 01\n00- | 10")
        report = verify_pla(generate_pla(TABLE), table=lying, mode="sim")
        assert not report.ok

    def test_intended_netlist_counts(self):
        golden = intended_pla_netlist(TABLE)
        and_x, or_x = TABLE.crosspoints()
        expected_enh = TABLE.num_inputs + TABLE.num_outputs + and_x + or_x
        expected_dep = (
            TABLE.num_inputs + TABLE.num_terms + 2 * TABLE.num_outputs
        )
        assert golden.device_count("enh") == expected_enh
        assert golden.device_count("dep") == expected_dep

    def test_decoder_intended_matches_layout(self):
        netlist = pla_layout_netlist(generate_decoder(2))
        assert compare_netlists(netlist, intended_decoder_netlist(2)).matched


class TestPlacedExtraction:
    def test_derived_gate_overhang_joins_abutting_diffusion(self):
        """A derived gate's expanded diffusion reaches past the drawn
        extent of its cell and joins the diffusion of the abutting cell:
        the one transistor drawn has the gnd net as a channel terminal."""
        from repro import NORTH

        a = CellDefinition("a")
        a.add_box("gate", 4, 0, 6, 2)      # expand_gate grows diff by 1
        a.add_box("diff", 0, 0, 4, 2)
        b = CellDefinition("b")
        b.add_box("diff", 7, 0, 12, 2)     # meets the expanded overhang
        b.add_port("gnd!", 10, 1, "diff")
        top = CellDefinition("top")
        top.add_instance(a, Vec2(0, 0), NORTH, name="a")
        top.add_instance(b, Vec2(0, 0), NORTH, name="b")
        netlist = extract_netlist(top)
        (device,) = netlist.devices
        (gnd,) = netlist.gnd_nets
        assert gnd in device.pins_with_role("ch")

    def test_root_port_over_child_wire_attaches(self):
        """A box-less root's port lands on a wire drawn inside a child
        instance and names its net."""
        from repro import NORTH

        child = CellDefinition("child")
        child.add_box("metal1", 2, 2, 8, 8)
        root = CellDefinition("root")
        root.add_instance(child, Vec2(0, 0), NORTH, name="child")
        root.add_port("vdd!", 5, 5, "metal1")
        netlist = extract_netlist(root)
        assert netlist.vdd_nets == {netlist.find_net("vdd!")}
        assert netlist.devices == []


class TestSampling:
    def test_sample_is_deterministic_per_seed(self):
        assert sample_words(17, 300, seed=5) == sample_words(17, 300, seed=5)
        assert sample_words(17, 300, seed=5) != sample_words(17, 300, seed=6)

    @pytest.mark.parametrize("width", [1, 7, 16, 64, 70])
    def test_count_width_and_range(self, width):
        words = sample_words(width, 500, seed=width)
        assert len(words) == 500
        assert all(0 <= word < 1 << width for word in words)
        # 500 draws set the top bit somewhere: the full width is used
        assert any(word >> (width - 1) for word in words)

    def test_vectors_are_the_words_bit_zero_first(self):
        words = sample_words(9, 64, seed=2)
        vectors = sample_vectors(9, 64, seed=2)
        assert all(len(bits) == 9 and set(bits) <= {0, 1} for bits in vectors)
        assert [
            sum(bit << k for k, bit in enumerate(bits)) for bits in vectors
        ] == words


class TestMultiplierVerification:
    @pytest.mark.parametrize("size", [(1, 4), (4, 1)])
    def test_one_bit_operand_is_not_a_vacuous_pass(self, size):
        from repro.multiplier import generate_via_language

        cell, _ = generate_via_language(*size)
        report = verify_cell(cell, mode="all")
        assert not report.ok
        assert report.vectors_checked == 0
        assert any(f"{size[0]}x{size[1]}" in failure for failure in report.failures)
        assert report.lvs is not None and report.lvs.matched
        assert not verify_cell(cell, mode="sim").ok
        # LVS-only mode checks no function, so the width does not matter
        assert verify_cell(cell, mode="lvs").ok

    @pytest.mark.parametrize("size", [(1, 4), (4, 1)])
    def test_one_bit_operand_fails_in_the_verify_family(self, size):
        from repro.cli import EXIT_VERIFY, exit_code_for
        from repro.core.errors import VerificationError
        from repro.service.jobs import JobSpec, execute_job

        spec = JobSpec(
            kind="multiplier", parameters=f"xsize={size[0]}\nysize={size[1]}\n",
            verify="all",
        )
        with pytest.raises(VerificationError) as caught:
            execute_job(spec)
        assert exit_code_for(caught.value) == EXIT_VERIFY

    def test_stray_personalisation_mask_fails(self):
        """A mask placed outside the array personalises no cell: FAIL."""
        from repro.multiplier import generate_multiplier
        from repro.verify import verify_multiplier

        cell = generate_multiplier(4, 4)
        assert verify_multiplier(cell).ok
        type2 = next(
            instance.definition
            for instance in cell.instances[0].definition.instances
            if instance.celltype == "type2"
        )
        cell.add_instance(type2, Vec2(1000, 1000))
        report = verify_multiplier(cell)
        assert not report.ok
        assert report.failures == [
            "personality read-back: mask type2 at (1000, 1000) lands on no host cell"
        ]
        assert "FAIL personality read-back" in report.summary()

    def test_mask_on_two_overlapping_hosts_is_a_stray(self):
        from repro.verify import collect_occurrences

        host = CellDefinition("basiccell")
        host.add_box("metal1", 0, 0, 10, 10)
        mask = CellDefinition("type1")
        mask.add_box("metal1", 0, 0, 1, 1)
        top = CellDefinition("top")
        top.add_instance(host, Vec2(0, 0))
        top.add_instance(host, Vec2(5, 0))
        top.add_instance(mask, Vec2(7, 3))
        top.add_instance(mask, Vec2(2, 3))
        occurrences, strays = collect_occurrences(top)
        assert strays == ["mask type1 at (7, 3) lands on 2 host cells"]
        assert [o.masks for o in occurrences] == [["type1"], []]

    def test_traced_job_has_lvs_and_sim_spans_under_verify(self):
        from repro.obs import Tracer, activated
        from repro.service.jobs import JobSpec, execute_job

        tracer = Tracer()
        with activated(tracer):
            execute_job(JobSpec(
                kind="multiplier", parameters="xsize=8\nysize=8\n", verify="all",
            ))
        spans = tracer.finished()
        (verify,) = [span for span in spans if span.name == "job.verify"]
        (cellgraph,) = [span for span in spans if span.name == "verify.cellgraph"]
        (lvs,) = [span for span in spans if span.name == "verify.lvs"]
        (sim,) = [span for span in spans if span.name == "verify.sim"]
        assert cellgraph.parent_id == verify.span_id
        assert lvs.parent_id == verify.span_id
        assert sim.parent_id == verify.span_id
        # one walk finds 248 host cells, every mask on one of them
        assert cellgraph.attributes == {
            "hosts": 248, "strays": 0, "nets": 441, "devices": 248,
        }
        # LVS refined both netlists: 2 x 441 nets, 2 x 248 devices
        assert lvs.attributes == {"rounds": 9, "nets": 882, "devices": 496}
        assert sim.attributes["vectors"] == 4096
        assert sim.attributes["exhaustive"] is False

    def test_sampled_operands_are_built_inside_the_sim_span(self, monkeypatch):
        """The operand lists are simulation work: ``sample_words`` runs
        inside ``verify.sim``, not in its parent's unattributed time."""
        from repro.multiplier import generate_via_language
        from repro.obs import Tracer, activated
        from repro.verify import driver

        tracer = Tracer()

        def sampled(*args, **kwargs):
            current = tracer.current()
            assert current is not None and current.name == "verify.sim"
            return sample_words(*args, **kwargs)

        monkeypatch.setattr(driver, "sample_words", sampled)
        cell, _ = generate_via_language(4, 4)
        with activated(tracer):
            report = verify_cell(cell, mode="sim", max_vectors=64)
        assert report.ok and report.vectors_checked == 64
        assert not report.exhaustive
        (sim,) = [span for span in tracer.finished() if span.name == "verify.sim"]
        assert sim.attributes == {"vectors": 64, "exhaustive": False}

    def test_pla_verify_has_lvs_and_sim_spans(self):
        from repro.obs import Tracer, activated

        tracer = Tracer()
        with activated(tracer):
            verify_pla(generate_pla(TABLE), table=TABLE)
        names = {span.name: span for span in tracer.finished()}
        report = compare_netlists(
            pla_layout_netlist(generate_pla(TABLE)), intended_pla_netlist(TABLE)
        )
        assert names["verify.lvs"].attributes == {
            "rounds": report.rounds,
            "nets": sum(report.net_counts),
            "devices": sum(report.device_counts),
        }
        assert report.rounds >= 1
        # one relaxation over 8 lanes checks all 8 vectors
        attributes = dict(names["verify.sim"].attributes)
        assert attributes.pop("sweeps") >= 1
        assert attributes == {"vectors": 8, "exhaustive": True, "lanes": 8}
