"""The instance table and the readers that walk it, against their oracles.

``CellDefinition.instance_table`` keeps a cell's placed instances as
int64 columns (child index, orientation code, x, y) memoised under the
cell's own mutation stamp.  Its readers after generation must give what
the per-instance loops they replaced give (``tests/oracles/``):

* ``count_instances(recursive=True)`` against ``count_instances_reference``;
* ``subtree_stamp`` of every definition against
  ``subtree_stamp_reference``, which visits each instance;
* ``verify.driver._celltypes`` against ``celltypes_reference``;
* ``verify.cellgraph.collect_occurrences`` (occurrences in walk order,
  landed masks and stray lines) against ``collect_occurrences_reference``;
* ``VerificationReport.to_dict()`` of the multiplier, PLA, decoder and
  ROM with the oracles swapped in.

Cases: every shipped generator, and seeded random hierarchies with all
eight orientations, unplaced instances, one instance shared by two
cells, hosts without geometry, masks on no host or on two, and a
mutation after a memoised read.  The ``C`` lines of CIF output are
checked the same way in ``tests/test_cif_columns.py``.
"""

import random
from unittest import mock

import numpy as np
import pytest
from oracles.cell import count_instances_reference, subtree_stamp_reference
from oracles.cellgraph import collect_occurrences_reference
from oracles.driver import celltypes_reference
from test_sweep_equivalence import SWEEP_LAYOUTS, random_table

from repro.compact import TECH_A, HierarchicalCompactor
from repro.core.cell import CellDefinition, Instance
from repro.geometry import ALL_ORIENTATIONS, EAST, NORTH, WEST, Vec2
from repro.multiplier import (
    generate_multiplier,
    generate_retimed_multiplier,
    generate_via_language,
)
from repro.pla import generate_pla_via_language
from repro.verify import cellgraph, driver, verify_cell

#: every shipped generator, the multiplier square and not, retimed and
#: through the design language, plus the hierarchical compactor's output
SHIPPED = {
    **SWEEP_LAYOUTS,
    "multiplier-4x4": lambda: generate_multiplier(4, 4),
    "multiplier-3x5": lambda: generate_multiplier(3, 5),
    "multiplier-language-6x4": lambda: generate_via_language(6, 4)[0],
    "multiplier-retimed": lambda: generate_retimed_multiplier(4, 4, beta=1)[0],
    "pla-language": lambda: generate_pla_via_language(
        random_table(random.Random(3), 4, 3, 6)
    )[0],
    "hier": lambda: HierarchicalCompactor(TECH_A, axes="x").compact(
        generate_via_language(4, 4)[0]
    ),
}

SEEDS = range(12)


def random_placements(seed):
    """A seeded hierarchy over multiplier-style host and mask cells.

    Leaves are hosts (``basiccell``, ``reg``, one of them drawn without
    boxes), masks (``type1``, ``type2``, ``car1``) and a plain cell.
    Each tier calls the one below at random points in all eight
    orientations, sometimes unplaced, sometimes named; one instance is
    adopted by two cells of a tier.  Returns the top cell and every
    definition.
    """
    rng = random.Random(seed)
    leaves = []
    for name, size in [("basiccell", 12), ("reg", 8), ("type1", 2), ("type2", 2),
                       ("car1", 3), ("plain", 5)]:
        leaf = CellDefinition(name)
        if not (name == "reg" and seed % 3 == 0):
            x, y = rng.randrange(-3, 3), rng.randrange(-3, 3)
            leaf.add_box("metal1", x, y, x + size, y + size)
        leaf.add_port("a", rng.randrange(0, size), 0, "metal1")
        leaf.add_port("b", 0, rng.randrange(0, size))
        leaves.append(leaf)
    every = list(leaves)
    level = leaves
    for tier in range(rng.randrange(1, 4)):
        cells = [CellDefinition(f"mid{tier}_{index}") for index in range(3)]
        for cell in cells:
            for position in range(rng.randrange(2, 9)):
                cell.add_instance(
                    rng.choice(level),
                    Vec2(rng.randrange(-40, 40), rng.randrange(-40, 40)),
                    rng.choice(ALL_ORIENTATIONS),
                    name=f"u{position}" if rng.random() < 0.3 else "",
                )
            if rng.random() < 0.4:
                cell.add_instance(rng.choice(level))  # unplaced
        shared = cells[0].add_instance(
            rng.choice(level), Vec2(rng.randrange(-9, 9), 1), rng.choice(ALL_ORIENTATIONS)
        )
        cells[1].adopt(shared)
        every += cells
        level = cells + [rng.choice(leaves)]
    top = CellDefinition("top")
    for position in range(4):
        top.add_instance(
            rng.choice(level),
            Vec2(rng.randrange(-80, 80), rng.randrange(-80, 80)),
            rng.choice(ALL_ORIENTATIONS),
        )
    return top, every + [top]


def mutate(rng, cells):
    """Move, turn, re-point, place or add an instance somewhere below."""
    holders = [cell for cell in cells if cell.instances]
    cell = rng.choice(holders)
    instance = rng.choice(cell.instances)
    action = rng.randrange(5)
    if action == 0:
        instance.location = Vec2(rng.randrange(-50, 50), rng.randrange(-50, 50))
    elif action == 1:
        instance.orientation = rng.choice(ALL_ORIENTATIONS)
    elif action == 2:
        instance.definition = rng.choice(cells[:6])
    elif action == 3:
        instance.place(Vec2(rng.randrange(-9, 9), 0), rng.choice(ALL_ORIENTATIONS))
    else:
        cell.add_instance(rng.choice(cells[:6]), Vec2(3, -3), rng.choice(ALL_ORIENTATIONS))


def definitions_below(cell):
    seen, pending = {cell: None}, [cell]
    while pending:
        for instance in pending.pop().instances:
            if instance.definition not in seen:
                seen[instance.definition] = None
                pending.append(instance.definition)
    return list(seen)


def table_from_objects(cell):
    """What the table must hold, read one :class:`Instance` at a time."""
    children, uses, rows = [], [], []
    for row, instance in enumerate(cell.instances):
        if instance.definition not in children:
            children.append(instance.definition)
            uses.append(0)
        uses[children.index(instance.definition)] += 1
        if instance.is_placed:
            rows.append((row, children.index(instance.definition),
                         ALL_ORIENTATIONS.index(instance.orientation),
                         instance.location.x, instance.location.y))
    return tuple(children), tuple(uses), rows


def assert_table_matches(cell):
    table = cell.instance_table()
    children, uses, rows = table_from_objects(cell)
    assert table.children == children
    assert table.uses == uses
    assert list(zip(*(column.tolist() for column in table[2:]))) == rows
    for column in table[2:]:
        assert column.dtype == np.int64 and not column.flags.writeable


def occurrence_rows(occurrences):
    return [
        (o.celltype, o.prefix, o.origin, o.bbox, o.masks, o.ports) for o in occurrences
    ]


def assert_occurrences_match(cell, **options):
    occurrences, strays = cellgraph.collect_occurrences(cell, **options)
    expected, expected_strays = collect_occurrences_reference(cell, **options)
    assert occurrence_rows(occurrences) == occurrence_rows(expected)
    assert strays == expected_strays


def assert_readers_match(cell):
    for node in definitions_below(cell):
        assert_table_matches(node)
        assert node.subtree_stamp() == subtree_stamp_reference(node)
    assert cell.count_instances(recursive=True) == count_instances_reference(cell)
    assert driver._celltypes(cell) == celltypes_reference(cell)
    assert_occurrences_match(cell)


# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_generators_read_their_tables_like_the_oracles(name):
    assert_readers_match(SHIPPED[name]())


@pytest.mark.parametrize("seed", SEEDS)
def test_random_hierarchies_read_their_tables_like_the_oracles(seed):
    top, _ = random_placements(seed)
    assert_readers_match(top)
    # every mask landing, stray and host name again with every leaf a host
    assert_occurrences_match(top, hosts=("basiccell", "reg", "plain"),
                             masks=("type1", "type2", "car1", "basiccell"))


@pytest.mark.parametrize("seed", SEEDS)
def test_mutation_after_a_memoised_read_rebuilds_the_table(seed):
    top, cells = random_placements(seed)
    rng = random.Random(seed + 500)
    for _ in range(6):
        assert_readers_match(top)
        mutate(rng, cells)
    assert_readers_match(top)


def test_table_is_memoised_until_the_cell_itself_mutates():
    leaf = CellDefinition("leaf")
    leaf.add_box("metal1", 0, 0, 2, 2)
    other = CellDefinition("other")
    cell = CellDefinition("cell")
    first = cell.add_instance(leaf, Vec2(1, 2), EAST)
    table = cell.instance_table()
    assert cell.instance_table() is table
    leaf.add_box("poly", 0, 0, 1, 1)  # a child's change is not the cell's
    assert cell.instance_table() is table
    first.location = Vec2(5, 6)
    assert cell.instance_table().x.tolist() == [5]
    first.definition = other
    assert cell.instance_table().children == (other,)
    cell.add_instance(leaf)
    assert cell.instance_table().uses == (1, 1)
    assert cell.instance_table().rows.tolist() == [0]


def test_an_instance_shared_by_two_cells_moves_in_both_tables():
    leaf = CellDefinition("leaf")
    left, right = CellDefinition("left"), CellDefinition("right")
    left.add_instance(leaf, Vec2(9, 9))
    shared = left.add_instance(leaf, Vec2(0, 0), WEST)
    right.adopt(shared)
    assert left.instance_table().x.tolist() == [9, 0]
    assert right.instance_table().turn.tolist() == [WEST.code]
    shared.place(Vec2(-4, 7), NORTH)
    assert left.instance_table().x.tolist() == [9, -4]
    assert right.instance_table().y.tolist() == [7]


def test_every_orientation_has_its_code():
    leaf = CellDefinition("leaf")
    cell = CellDefinition("cell")
    for index, orientation in enumerate(ALL_ORIENTATIONS):
        cell.add_instance(leaf, Vec2(index, -index), orientation)
    table = cell.instance_table()
    assert table.turn.tolist() == list(range(8))
    assert [ALL_ORIENTATIONS[code] for code in table.turn.tolist()] == list(
        ALL_ORIENTATIONS
    )


def test_unplaced_instances_have_no_row_but_count():
    leaf = CellDefinition("leaf")
    cell = CellDefinition("cell")
    cell.adopt(Instance(leaf))
    cell.add_instance(leaf, Vec2(2, 3))
    cell.adopt(Instance(leaf, Vec2(1, 1)))  # a location without an orientation
    table = cell.instance_table()
    assert table.rows.tolist() == [1]
    assert table.uses == (3,)
    assert cell.count_instances(recursive=True) == 3


def test_pickled_cell_rebuilds_its_table():
    import pickle

    top, _ = random_placements(4)
    top.instance_table()
    copy = pickle.loads(pickle.dumps(top))
    assert copy._table_memo is None
    assert_readers_match(copy)


@pytest.mark.parametrize("case", ["multiplier", "pla", "decoder", "rom"])
def test_verification_reports_equal_with_the_oracles(case):
    cell = {
        "multiplier": lambda: generate_via_language(4, 4)[0],
        "pla": SWEEP_LAYOUTS["pla-8x8x2"],
        "decoder": SWEEP_LAYOUTS["decoder-3"],
        "rom": SWEEP_LAYOUTS["rom"],
    }[case]()
    report = verify_cell(cell, max_vectors=256).to_dict()
    with mock.patch.object(driver, "_celltypes", celltypes_reference), \
            mock.patch.object(cellgraph, "collect_occurrences",
                              collect_occurrences_reference):
        expected = verify_cell(cell, max_vectors=256).to_dict()
    assert report == expected
    assert report["ok"]
