"""Flat mask extraction: golden netlists, port attachment, spans.

Every flat (:func:`~repro.verify.extract.extract_netlist`) extraction
of the ``SWEEP_LAYOUTS`` and of the flow benchmark's PLA shapes is
reduced to a digest of everything a netlist carries: net names, name
positions, devices with their pins, inputs, outputs and rails.  Net
and device numbering are part of the digest, so a rewrite of the
extractor must reproduce the numbering, not merely an isomorphic
circuit.  The flat-compacted layouts that do not extract are pinned by
their ``ExtractionError`` text.

The placement tests check that one layout extracts to the same
circuit wherever and however it is placed, under every orientation.

The port-attachment tests pin the first-match rule: a port lands on
the first conductor containing it, candidates ordered by their
component's first sweep node, then by node id; a port with no layer
also orders layers by their first appearance.  The remaining tests
pin how the extractor runs: three sub-spans account for it, it builds
no ``Box`` per sweep node, and it never imports scipy.

Regenerate the table (only when a change is meant to alter netlists)
with ``PYTHONPATH=src python tests/test_extract.py``.
"""

import hashlib
import pathlib
import random
import subprocess
import sys

import pytest

from test_sweep_equivalence import SWEEP_LAYOUTS, random_table

from repro import CellDefinition, Vec2
from repro.compact import TECH_A, TECH_B
from repro.compact.flat import compact_cell
from repro.core.cell import LayerBox
from repro.geometry import ALL_ORIENTATIONS, Box, batch
from repro.obs import trace as obs_trace
from repro.pla import generate_pla_via_language
from repro.verify import (
    ExtractionError,
    compare_netlists,
    extract_netlist,
    verify_cell,
)

REPO_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

RULES = {"TECH_A": TECH_A, "TECH_B": TECH_B}

#: the flow benchmark's ``pla-verify`` shapes: (inputs, terms, outputs)
FLOW_SHAPES = [
    (5, 32, 2), (8, 8, 2), (6, 24, 5), (7, 16, 2), (5, 24, 8), (7, 8, 8), (6, 32, 2),
]
FLOW_SEEDS = (1, 7919)

#: layouts whose flat compaction breaks extraction (ROADMAP item 1)
COMPACTED = ("pla-5x32x2", "pla-7x8x8", "decoder-3", "rom")


def netlist_digest(netlist):
    """Short hash of everything a netlist carries, numbering included."""
    parts = (
        [sorted(names) for names in netlist.net_names],
        sorted(netlist.net_positions.items()),
        [(device.kind, list(device.pins)) for device in netlist.devices],
        list(netlist.inputs),
        list(netlist.outputs),
        sorted(netlist.vdd_nets),
        sorted(netlist.gnd_nets),
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _layout(name):
    if name in SWEEP_LAYOUTS:
        return SWEEP_LAYOUTS[name]()
    _, seed, shape = name.split("/")
    inputs, terms, outputs = (int(part) for part in shape.split("x"))
    table = random_table(random.Random(int(seed)), inputs, outputs, terms)
    return generate_pla_via_language(table)[0]


def _netlist_cases():
    """(layout, tech, "flat") keys: the last part names the extractor."""
    cases = [
        (name, tech, "flat") for name in sorted(SWEEP_LAYOUTS) for tech in RULES
    ]
    cases += [
        (f"flow/{seed}/{inputs}x{terms}x{outputs}", "TECH_A", "flat")
        for seed in FLOW_SEEDS
        for inputs, terms, outputs in FLOW_SHAPES
    ]
    return cases


def _compacted_cases():
    return [
        (name, tech, axes)
        for name in COMPACTED
        for tech in RULES
        for axes in ("x", "y", "xy")
    ]


def _extract(name, tech, mode):
    return extract_netlist(_layout(name), RULES[tech])


def _compacted_error(name, tech, axes):
    cell = SWEEP_LAYOUTS[name]()
    for axis in axes:
        cell, _ = compact_cell(cell, RULES[tech], axis=axis, width_mode="preserve")
    try:
        extract_netlist(cell, RULES[tech])
    except ExtractionError as error:
        return str(error)
    return None


GOLDEN_NETLISTS = {
    ('decoder-1', 'TECH_A', 'flat'): 'aef712ef8f17cad1',
    ('decoder-1', 'TECH_B', 'flat'): 'aef712ef8f17cad1',
    ('decoder-2', 'TECH_A', 'flat'): '8f6de0c0ed1b79b1',
    ('decoder-2', 'TECH_B', 'flat'): '8f6de0c0ed1b79b1',
    ('decoder-3', 'TECH_A', 'flat'): '3847ffdfb28ef2d9',
    ('decoder-3', 'TECH_B', 'flat'): '3847ffdfb28ef2d9',
    ('decoder-4', 'TECH_A', 'flat'): '413ceb64c5e5bcb2',
    ('decoder-4', 'TECH_B', 'flat'): '413ceb64c5e5bcb2',
    ('hpla', 'TECH_A', 'flat'): '45412c82cd64445a',
    ('hpla', 'TECH_B', 'flat'): '45412c82cd64445a',
    ('pla-5x24x8', 'TECH_A', 'flat'): 'e8a0a901190460cd',
    ('pla-5x24x8', 'TECH_B', 'flat'): 'e8a0a901190460cd',
    ('pla-5x32x2', 'TECH_A', 'flat'): '9001382d8d59be27',
    ('pla-5x32x2', 'TECH_B', 'flat'): '9001382d8d59be27',
    ('pla-6x24x5', 'TECH_A', 'flat'): '61347031fc23a7d0',
    ('pla-6x24x5', 'TECH_B', 'flat'): '61347031fc23a7d0',
    ('pla-6x32x2', 'TECH_A', 'flat'): '23477a1fe4f45b96',
    ('pla-6x32x2', 'TECH_B', 'flat'): '23477a1fe4f45b96',
    ('pla-7x16x2', 'TECH_A', 'flat'): 'd480cfae0ef195b2',
    ('pla-7x16x2', 'TECH_B', 'flat'): 'd480cfae0ef195b2',
    ('pla-7x8x8', 'TECH_A', 'flat'): '3c2e6e6edb66d238',
    ('pla-7x8x8', 'TECH_B', 'flat'): '3c2e6e6edb66d238',
    ('pla-8x8x2', 'TECH_A', 'flat'): '35d36669aeb010f2',
    ('pla-8x8x2', 'TECH_B', 'flat'): '35d36669aeb010f2',
    ('rom', 'TECH_A', 'flat'): '759c980d7b0a9dac',
    ('rom', 'TECH_B', 'flat'): '759c980d7b0a9dac',
    ('flow/1/5x32x2', 'TECH_A', 'flat'): '78b74720fefd16e6',
    ('flow/1/8x8x2', 'TECH_A', 'flat'): '35d36669aeb010f2',
    ('flow/1/6x24x5', 'TECH_A', 'flat'): '21bf5ea8573f6688',
    ('flow/1/7x16x2', 'TECH_A', 'flat'): '84e51759b4d8bbcc',
    ('flow/1/5x24x8', 'TECH_A', 'flat'): '335faa70906f47a3',
    ('flow/1/7x8x8', 'TECH_A', 'flat'): '8b418188c5ddd6fc',
    ('flow/1/6x32x2', 'TECH_A', 'flat'): '0e2a9da77860a5a2',
    ('flow/7919/5x32x2', 'TECH_A', 'flat'): '194cf01df6870d45',
    ('flow/7919/8x8x2', 'TECH_A', 'flat'): '57bdcba2e81eb5fa',
    ('flow/7919/6x24x5', 'TECH_A', 'flat'): '43183b41ed26647e',
    ('flow/7919/7x16x2', 'TECH_A', 'flat'): '83ff557c4f627d8f',
    ('flow/7919/5x24x8', 'TECH_A', 'flat'): 'b5f8ae524c0ddec1',
    ('flow/7919/7x8x8', 'TECH_A', 'flat'): 'b2980440299ef2ff',
    ('flow/7919/6x32x2', 'TECH_A', 'flat'): '37b4904848748232',
}

GOLDEN_ERRORS = {
    ('pla-5x32x2', 'TECH_A', 'x'):
        'channel region with 1 terminal(s); a transistor needs source and drain diffusion',
    ('pla-5x32x2', 'TECH_A', 'y'):
        'channel region with 1 terminal(s); a transistor needs source and drain diffusion',
    ('pla-5x32x2', 'TECH_A', 'xy'):
        'channel region with 1 terminal(s); a transistor needs source and drain diffusion',
    ('pla-5x32x2', 'TECH_B', 'x'):
        'channel region with 1 terminal(s); a transistor needs source and drain diffusion',
    ('pla-5x32x2', 'TECH_B', 'y'):
        'channel region with 1 terminal(s); a transistor needs source and drain diffusion',
    ('pla-5x32x2', 'TECH_B', 'xy'):
        'channel region with 1 terminal(s); a transistor needs source and drain diffusion',
    ('pla-7x8x8', 'TECH_A', 'x'):
        'channel region with 1 terminal(s); a transistor needs source and drain diffusion',
    ('pla-7x8x8', 'TECH_A', 'y'):
        'channel region with 1 terminal(s); a transistor needs source and drain diffusion',
    ('pla-7x8x8', 'TECH_A', 'xy'):
        'channel region with 0 terminal(s); a transistor needs source and drain diffusion',
    ('pla-7x8x8', 'TECH_B', 'x'):
        'channel region with 1 terminal(s); a transistor needs source and drain diffusion',
    ('pla-7x8x8', 'TECH_B', 'y'):
        'channel region with 1 terminal(s); a transistor needs source and drain diffusion',
    ('pla-7x8x8', 'TECH_B', 'xy'):
        'channel region with 0 terminal(s); a transistor needs source and drain diffusion',
    ('decoder-3', 'TECH_A', 'x'):
        'channel region with 1 terminal(s); a transistor needs source and drain diffusion',
    ('decoder-3', 'TECH_A', 'y'):
        'channel region with 1 terminal(s); a transistor needs source and drain diffusion',
    ('decoder-3', 'TECH_A', 'xy'):
        'channel region with 1 terminal(s); a transistor needs source and drain diffusion',
    ('decoder-3', 'TECH_B', 'x'):
        'channel region with 1 terminal(s); a transistor needs source and drain diffusion',
    ('decoder-3', 'TECH_B', 'y'):
        'channel region with 1 terminal(s); a transistor needs source and drain diffusion',
    ('decoder-3', 'TECH_B', 'xy'):
        'channel region with 0 terminal(s); a transistor needs source and drain diffusion',
    ('rom', 'TECH_A', 'x'):
        'channel region with 1 terminal(s); a transistor needs source and drain diffusion',
    ('rom', 'TECH_A', 'y'):
        'channel region with 1 terminal(s); a transistor needs source and drain diffusion',
    ('rom', 'TECH_A', 'xy'):
        'channel region with 1 terminal(s); a transistor needs source and drain diffusion',
    ('rom', 'TECH_B', 'x'):
        'channel region with 1 terminal(s); a transistor needs source and drain diffusion',
    ('rom', 'TECH_B', 'y'):
        'channel region with 1 terminal(s); a transistor needs source and drain diffusion',
    ('rom', 'TECH_B', 'xy'):
        'channel region with 1 terminal(s); a transistor needs source and drain diffusion',
}


@pytest.mark.parametrize(
    "name, tech, mode", _netlist_cases(), ids="/".join
)
def test_netlist_matches_golden(name, tech, mode):
    assert netlist_digest(_extract(name, tech, mode)) == GOLDEN_NETLISTS[
        (name, tech, mode)
    ]


@pytest.mark.parametrize(
    "name, tech, axes", _compacted_cases(), ids="/".join
)
def test_flat_compacted_extraction_error_text(name, tech, axes):
    assert _compacted_error(name, tech, axes) == GOLDEN_ERRORS[(name, tech, axes)]


#: layouts whose quarter-turned placements extract a different circuit:
#: a derived gate widens its poly and extends its diffusion along world
#: x wherever it is placed (``compact/layers.py:expand_gate``), so a
#: gate turned a quarter grows diffusion along its poly (ROADMAP item 1)
QUARTER_TURN_MISMATCH = sorted(
    name for name in SWEEP_LAYOUTS if name.startswith(("pla-", "hpla", "rom"))
)


def _placement_cases():
    cases = []
    for name in sorted(SWEEP_LAYOUTS):
        for orientation in ALL_ORIENTATIONS:
            marks = ()
            if orientation.r % 2 and name in QUARTER_TURN_MISMATCH:
                marks = pytest.mark.xfail(
                    strict=True, reason="derived gates expand along world x"
                )
            cases.append(
                pytest.param(name, orientation, marks=marks,
                             id=f"{name}/{orientation.name}")
            )
    return cases


@pytest.mark.parametrize("name, orientation", _placement_cases())
def test_placed_extraction_matches_the_unplaced_cell(name, orientation):
    cell = SWEEP_LAYOUTS[name]()
    wrapper = CellDefinition("placed")
    wrapper.add_instance(cell, Vec2(37, -11), orientation, name="dut")
    placed = extract_netlist(wrapper, TECH_A)
    assert compare_netlists(placed, extract_netlist(cell, TECH_A)).matched


def make_cell(boxes, ports):
    cell = CellDefinition("dut")
    for layer, x0, y0, x1, y1 in boxes:
        cell.add_box(layer, x0, y0, x1, y1)
    for name, x, y, layer in ports:
        cell.add_port(name, x, y, layer)
    return cell


class TestPortAttachment:
    def test_shared_corner_names_the_earlier_component(self):
        """Two metal components meet only at (2, 2).  The upper one's
        component starts a slab lower (through its right-hand bar), so
        its net wins even though the lower box's run is the earlier
        node."""
        cell = make_cell(
            [
                ("metal1", 0, 0, 2, 2),
                ("metal1", 2, 2, 4, 4),
                ("metal1", 4, -2, 6, 4),
            ],
            [
                ("low", 0, 0, "metal1"),
                ("high", 6, -2, "metal1"),
                ("corner", 2, 2, "metal1"),
            ],
        )
        netlist = extract_netlist(cell, TECH_A)
        assert netlist.find_net("low") != netlist.find_net("high")
        assert netlist.find_net("corner") == netlist.find_net("high")

    def test_shared_corner_by_node_order(self):
        cell = make_cell(
            [("metal1", 0, 0, 2, 2), ("metal1", 2, 2, 4, 4)],
            [("low", 0, 0, "metal1"), ("high", 4, 4, "metal1"),
             ("corner", 2, 2, "metal1")],
        )
        netlist = extract_netlist(cell, TECH_A)
        assert netlist.find_net("corner") == netlist.find_net("low")

    def test_layerless_port_orders_layers_by_first_appearance(self):
        """Poly and metal1 both cover (2, 2); metal1 reaches a slab lower,
        so it appears first and a port without a layer lands on it."""
        cell = make_cell(
            [("poly", 0, 0, 4, 4), ("metal1", 0, -4, 4, 4)],
            [("p", 0, 0, "poly"), ("m", 0, -4, "metal1"), ("any", 2, 2, "")],
        )
        netlist = extract_netlist(cell, TECH_A)
        assert netlist.find_net("p") != netlist.find_net("m")
        assert netlist.find_net("any") == netlist.find_net("m")

    def test_layerless_port_same_slab_takes_poly(self):
        cell = make_cell(
            [("poly", 0, 0, 4, 4), ("metal1", 0, 0, 4, 4)],
            [("p", 0, 0, "poly"), ("m", 4, 4, "metal1"), ("any", 2, 2, "")],
        )
        netlist = extract_netlist(cell, TECH_A)
        assert netlist.find_net("any") == netlist.find_net("p")

    @pytest.mark.parametrize("layer", ["cut", "implant"])
    def test_port_on_a_non_conductor_names_nothing(self, layer):
        cell = make_cell(
            [("metal1", 0, 0, 4, 4), ("poly", 0, 0, 4, 4), (layer, 1, 1, 3, 3)],
            [("m", 0, 0, "metal1"), ("x", 2, 2, layer)],
        )
        netlist = extract_netlist(cell, TECH_A)
        assert netlist.find_net("m") is not None
        assert netlist.find_net("x") is None

    def test_port_outside_every_conductor_names_nothing(self):
        cell = make_cell(
            [("metal1", 0, 0, 4, 4)],
            [("m", 0, 0, "metal1"), ("far", 10, 10, "metal1"), ("void", 10, 10, "")],
        )
        netlist = extract_netlist(cell, TECH_A)
        assert netlist.find_net("m") is not None
        assert netlist.find_net("far") is None
        assert netlist.find_net("void") is None


class TestHowExtractionRuns:
    def test_sub_spans_cover_the_extract_span(self):
        """An in-process PLA verify: verify.extract splits into
        extract.flatten, extract.sweep and extract.resolve, which cover
        >= 90% of it (best of three runs: a scheduler stall between two
        spans is not a hot spot)."""
        cell = _layout("pla-6x24x5")
        coverage = 0.0
        for _ in range(3):
            tracer = obs_trace.Tracer()
            with obs_trace.activated(tracer):
                assert verify_cell(cell, mode="lvs").ok
            spans = tracer.finished()
            (extract,) = [span for span in spans if span.name == "verify.extract"]
            children = [span for span in spans if span.parent_id == extract.span_id]
            assert [span.name for span in children] == [
                "extract.flatten", "extract.sweep", "extract.resolve",
            ]
            sweep, resolve = children[1], children[2]
            assert sweep.attributes["nodes"] > 0
            assert resolve.attributes["ports"] > 0
            covered = sum(span.duration_s for span in children) / extract.duration_s
            coverage = max(coverage, covered)
            if coverage >= 0.9:
                break
        assert coverage >= 0.9, f"sub-spans cover {coverage:.0%} of verify.extract"

    def test_flat_extraction_builds_no_box_per_sweep_node(self, monkeypatch):
        cell = _layout("pla-5x32x2")
        expected = netlist_digest(extract_netlist(cell))

        def refuse(*columns):
            raise AssertionError("flat extraction decoded sweep nodes to boxes")

        monkeypatch.setattr(batch, "boxes_from_arrays", refuse)
        assert netlist_digest(extract_netlist(cell)) == expected

    def test_extraction_builds_no_box_object(self, monkeypatch):
        """Extraction reads the column memo: of a freshly generated PLA
        it builds no ``Box`` or ``LayerBox``, decodes no columns to
        boxes, and hands the mask walk no ``Box`` list to convert."""
        name = "flow/1/6x24x5"
        expected = netlist_digest(extract_netlist(_layout(name)))
        cell = _layout(name)

        def refuse(*args, **kwargs):
            raise AssertionError("extraction built or converted box objects")

        monkeypatch.setattr(Box, "__init__", refuse)
        monkeypatch.setattr(LayerBox, "__init__", refuse)
        monkeypatch.setattr(batch, "boxes_to_arrays", refuse)
        decode = batch.boxes_from_arrays
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and (
                getattr(module, "boxes_from_arrays", None) is decode
            ):
                monkeypatch.setattr(module, "boxes_from_arrays", refuse)
        assert netlist_digest(extract_netlist(cell)) == expected

    def test_fresh_process_pla_verify_leaves_scipy_unloaded(self):
        script = (
            f"import sys\nsys.path.insert(0, {REPO_SRC!r})\n"
            "from repro.pla import TruthTable, generate_pla\n"
            "from repro.verify import verify_cell\n"
            "table = TruthTable.parse('1-0 | 10\\n01- | 11\\n-11 | 01')\n"
            "assert verify_cell(generate_pla(table), mode='all', table=table).ok\n"
            "print('scipy' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]


if __name__ == "__main__":
    print("GOLDEN_NETLISTS = {")
    for case in _netlist_cases():
        print(f"    {case!r}: {netlist_digest(_extract(*case))!r},")
    print("}\n\nGOLDEN_ERRORS = {")
    for case in _compacted_cases():
        print(f"    {case!r}:\n        {_compacted_error(*case)!r},")
    print("}")
