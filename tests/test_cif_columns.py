"""CIF ``B`` and ``C`` lines from columns against the per-object writers.

``write_cif`` formats each symbol's boxes from its columns
(:meth:`~repro.core.cell.CellDefinition.own_columns`), one ``%`` per
layer run, and its calls from its instance table
(:meth:`~repro.core.cell.CellDefinition.instance_table`), one head per
(child, orientation) and one ``%`` over the points of call.  The
oracles are the loops they replaced: for boxes, one ``L`` line whenever
a box's CIF layer differs from the previous box's, then one f-string
per box, read from ``node.boxes`` (below); for calls, symbols numbered
by one recursive visit per instance and one f-string per placed
instance (``tests/oracles/cif.py``).  Every case must give
byte-identical text: the shipped generators, flat-compacted outputs on
every axis under both techs, the hierarchical pipeline's output,
``read_cif`` round trips, empty cells, cells with ports and labels,
layer names that collide in CIF or hold a ``%``, negative coordinates,
odd scales, and seeded random hierarchies with all eight orientations,
unplaced and shared instances, before and after a mutation.
"""

import io
import random
from types import SimpleNamespace
from unittest import mock

import pytest
from oracles.cif import symbols_reference, write_calls_reference
from test_instance_table import mutate, random_placements
from test_sweep_equivalence import SWEEP_LAYOUTS, random_table

from repro.compact import TECH_A, TECH_B, HierarchicalCompactor, compact_passes
from repro.core.cell import CellDefinition
from repro.geometry import EAST, NORTH, Vec2, batch
from repro.layout import cif as cif_module
from repro.layout import cif_text, read_cif, write_cif
from repro.multiplier import (
    generate_multiplier,
    generate_retimed_multiplier,
    generate_via_language,
)
from repro.pla import generate_folded_pla, generate_pla_via_language


def reference_write_boxes(stream, node, cif_layer, scale):
    """The per-box ``B``-line loop (the oracle), reading ``node.boxes``."""
    current_layer = None
    arrays = batch.boxes_to_arrays([lb.box for lb in node.boxes])
    widths = ((arrays.xmax - arrays.xmin) * scale).tolist()
    heights = ((arrays.ymax - arrays.ymin) * scale).tolist()
    centers_x = (((arrays.xmin + arrays.xmax) * scale) // 2).tolist()
    centers_y = (((arrays.ymin + arrays.ymax) * scale) // 2).tolist()
    for layer_box, width, height, cx, cy in zip(
        node.boxes, widths, heights, centers_x, centers_y
    ):
        name = cif_layer(layer_box.layer)
        if name != current_layer:
            stream.write(f"L {name};\n")
            current_layer = name
        stream.write(f"B {width} {height} {cx} {cy};\n")


def reference_cif(cell, **options):
    """``write_cif`` with the oracles numbering the symbols and writing
    every symbol's boxes and calls."""
    buffer = io.StringIO()
    with mock.patch.object(cif_module, "_write_boxes", reference_write_boxes), \
            mock.patch.object(cif_module, "_symbols", symbols_reference), \
            mock.patch.object(cif_module, "_write_calls", write_calls_reference):
        write_cif(cell, buffer, **options)
    return buffer.getvalue()


def written_cif(cell, **options):
    buffer = io.StringIO()
    write_cif(cell, buffer, **options)
    return buffer.getvalue()


#: the shipped generators: the extraction sweep's PLAs, decoders, ROM
#: and HPLA, plus the multiplier three ways and the folded PLA
GENERATORS = {
    **SWEEP_LAYOUTS,
    "multiplier": lambda: generate_multiplier(3, 4),
    "multiplier-square": lambda: generate_multiplier(4, 4),
    "multiplier-language": lambda: generate_via_language(4, 3)[0],
    "multiplier-retimed": lambda: generate_retimed_multiplier(4, 4, beta=1)[0],
    "pla-language": lambda: generate_pla_via_language(
        random_table(random.Random(3), 4, 3, 6)
    )[0],
    "folded-pla": lambda: generate_folded_pla(random_table(random.Random(5), 4, 4, 6))[0],
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generated_layouts_write_the_per_box_cif(name):
    cell = GENERATORS[name]()
    assert written_cif(cell) == reference_cif(cell)


@pytest.mark.parametrize("axes", ["x", "y", "xy", "yx"])
@pytest.mark.parametrize("rules", [TECH_A, TECH_B], ids=lambda rules: rules.name)
@pytest.mark.parametrize("source", ["multiplier", "pla-6x24x5"])
def test_flat_compacted_outputs_write_the_per_box_cif(source, rules, axes):
    """A column-born compacted cell writes, without decoding, the text
    the per-box loop writes from its decoded boxes."""
    compacted, _ = compact_passes(GENERATORS[source](), rules, axes)
    written = written_cif(compacted)
    assert compacted._boxes is None, "writing the CIF decoded the cell"
    assert written == reference_cif(compacted)


@pytest.mark.parametrize("axes", ["x", "xy"])
def test_hierarchically_compacted_output_writes_the_per_box_cif(axes):
    cell = HierarchicalCompactor(TECH_A, axes=axes).compact(generate_via_language(4, 4)[0])
    assert written_cif(cell) == reference_cif(cell)


@pytest.mark.parametrize("name", ["multiplier", "decoder-3", "hpla"])
def test_read_back_cells_write_the_per_box_cif(name):
    table = read_cif(cif_text(GENERATORS[name]()))
    top = table.lookup("__top__")
    assert written_cif(top) == reference_cif(top)


def test_empty_cells_write_the_per_box_cif():
    empty = CellDefinition("empty")
    born_empty = compact_passes(empty, TECH_A, "xy", name="born")[0]
    holder = CellDefinition("holder")
    holder.add_instance(empty, Vec2(3, 4), NORTH)
    holder.add_instance(born_empty, Vec2(-5, 0), EAST)
    for cell in (empty, born_empty, holder):
        assert written_cif(cell) == reference_cif(cell)
    assert "B " not in written_cif(holder)


def test_ports_labels_collisions_and_scales_write_the_per_box_cif():
    leaf = CellDefinition("leaf")
    # metal_1 and metal1 share the CIF name METAL1; runs break on it.
    for layer, box in [
        ("metal1", (-3, -5, 1, 2)), ("metal_1", (0, 0, 3, 3)), ("poly", (1, 1, 2, 7)),
        ("metal1", (-7, 4, -2, 9)), ("diff", (2, -1, 5, 0)), ("diff", (0, 0, 0, 0)),
    ]:
        leaf.add_box(layer, *box)
    leaf.add_port("a", 1, 2, "metal1")
    leaf.add_port("b!", -3, 0)
    leaf.add_label("note", 4, 4)
    top = CellDefinition("top")
    top.add_box("poly", 0, 0, 9, 1)
    top.add_instance(leaf, Vec2(10, -20), EAST)
    top.add_port("out", 0, 0, "poly")
    for options in ({}, {"scale": 1}, {"scale": 7},
                    {"layer_names": {"poly": "P", "diff": "P", "metal1": "M1"}},
                    {"layer_names": {"poly": "P%d", "diff": "%"}}):
        assert written_cif(top, **options) == reference_cif(top, **options), options


def test_born_cell_writes_the_cif_of_its_decoded_twin():
    """CIF from a cell's born columns equals CIF from its decoded boxes."""
    cell = generate_via_language(4, 4)[0]
    born, _ = compact_passes(cell, TECH_A, "yx", name="twin")
    undecoded = written_cif(born)
    assert born._boxes is None
    twin = CellDefinition("twin")
    twin.add_boxes(list(born.boxes))
    assert undecoded == written_cif(born) == written_cif(twin)
    assert written_cif(read_cif(undecoded).lookup("twin")) == undecoded


@pytest.mark.parametrize("seed", range(12))
def test_random_hierarchies_write_the_per_instance_calls(seed):
    """All eight orientations, unplaced instances, an instance shared by
    two cells, and a mutation after each memoised write."""
    top, cells = random_placements(seed)
    rng = random.Random(seed + 900)
    for _ in range(4):
        for options in ({}, {"scale": 3}):
            assert written_cif(top, **options) == reference_cif(top, **options)
        mutate(rng, cells)
    assert written_cif(top) == reference_cif(top)


def test_calls_written_in_group_order_fail_the_comparison():
    """A writer that emits a symbol's calls group by group, not in
    instance order, differs from the oracle on interleaved groups."""
    def grouped(stream, node, symbols, scale):
        placed = sorted(
            (instance for instance in node.instances if instance.is_placed),
            key=lambda instance: (symbols[instance.definition], instance.orientation.code),
        )
        write_calls_reference(stream, SimpleNamespace(instances=placed), symbols, scale)

    leaf, other = CellDefinition("leaf"), CellDefinition("other")
    top = CellDefinition("top")
    for index, (child, turn) in enumerate([(leaf, NORTH), (other, NORTH), (leaf, EAST),
                                           (leaf, NORTH)]):
        top.add_instance(child, Vec2(index, -index), turn)
    with mock.patch.object(cif_module, "_write_calls", grouped):
        mutant = written_cif(top)
    assert mutant != reference_cif(top)
    assert written_cif(top) == reference_cif(top)
