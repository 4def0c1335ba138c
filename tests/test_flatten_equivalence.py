"""Equivalence of the memoized stamp-flatten and the reference walkers.

The array-aware flatten (:class:`repro.core.cell.CellDefinition`)
computes each definition's flattened geometry once per orientation and
stamps instances by integer translation; the pre-memo recursive walkers
are retained as ``flatten_reference`` / ``flatten_ports_reference`` /
``flatten_labels_reference`` / ``bounding_box_reference``.  These
property tests drive randomized hierarchies — random depth, shared
sub-definitions, all eight orientations, unplaced instances, degenerate
boxes — through both builds, under random outer transforms, and require
*identical* results.  Mutation mid-stream (the memo-invalidation path)
and the hierarchical compactor's stamped rebuild under both
technologies are covered the same way.  The box memo itself is columns
(``flat_columns``): it must equal the reference walk column for column,
layer codes included.
"""

import random
from collections import Counter

import pytest

from repro.compact import TECH_A, TECH_B, HierarchicalCompactor
from repro.core.cell import CellDefinition, Instance, layer_table
from repro.geometry import ALL_ORIENTATIONS, Box, Transform, Vec2

LAYERS = ["diff", "poly", "metal1", "implant"]

SEEDS = [1, 2, 3, 4, 5, 6, 7, 8]


def random_hierarchy(seed, depth=3, breadth=4):
    """A randomized DAG of cells: shared leaves, all orientations."""
    rng = random.Random(seed)
    level = []
    for index in range(3):
        leaf = CellDefinition(f"leaf{index}")
        for _ in range(rng.randrange(1, 6)):
            x = rng.randrange(-20, 20)
            y = rng.randrange(-20, 20)
            leaf.add_box(
                rng.choice(LAYERS), x, y, x + rng.randrange(0, 8), y + rng.randrange(0, 8)
            )
        leaf.add_port(f"p{index}", rng.randrange(-5, 5), rng.randrange(-5, 5), "metal1")
        leaf.add_label(f"txt{index}", rng.randrange(-5, 5), rng.randrange(-5, 5))
        level.append(leaf)
    for tier in range(depth):
        next_level = []
        for index in range(2):
            cell = CellDefinition(f"mid{tier}_{index}")
            if rng.random() < 0.4:
                x = rng.randrange(-30, 30)
                cell.add_box(rng.choice(LAYERS), x, 0, x + 4, 6)
            if rng.random() < 0.4:
                cell.add_port(f"q{tier}{index}", 0, 0)
            for position in range(breadth):
                cell.add_instance(
                    rng.choice(level),
                    Vec2(rng.randrange(-100, 100), rng.randrange(-100, 100)),
                    rng.choice(ALL_ORIENTATIONS),
                    name=f"u{position}" if rng.random() < 0.5 else "",
                )
            if rng.random() < 0.3:
                cell.add_instance(rng.choice(level))  # partial instance
            next_level.append(cell)
        level = next_level
    top = CellDefinition("top")
    for position in range(breadth):
        top.add_instance(
            rng.choice(level),
            Vec2(rng.randrange(-200, 200), rng.randrange(-200, 200)),
            rng.choice(ALL_ORIENTATIONS),
            name=f"t{position}",
        )
    return top


def random_transform(seed):
    rng = random.Random(seed * 7919)
    return Transform(
        Vec2(rng.randrange(-50, 50), rng.randrange(-50, 50)),
        rng.choice(ALL_ORIENTATIONS),
    )


@pytest.mark.parametrize("seed", SEEDS)
class TestFlattenEquivalence:
    def test_boxes_identical_sequence(self, seed):
        top = random_hierarchy(seed)
        for transform in (Transform(), random_transform(seed)):
            assert list(top.flatten(transform)) == list(
                top.flatten_reference(transform)
            )

    def test_boxes_identical_under_every_orientation(self, seed):
        top = random_hierarchy(seed)
        for orientation in ALL_ORIENTATIONS:
            transform = Transform(Vec2(seed, -seed), orientation)
            assert Counter(top.flatten(transform)) == Counter(
                top.flatten_reference(transform)
            )

    def test_ports_identical_names_and_positions(self, seed):
        top = random_hierarchy(seed)
        transform = random_transform(seed)
        assert list(top.flatten_ports(transform, prefix="x/")) == list(
            top.flatten_ports_reference(transform, prefix="x/")
        )

    def test_labels_identical(self, seed):
        top = random_hierarchy(seed)
        transform = random_transform(seed)
        assert list(top.flatten_labels(transform)) == list(
            top.flatten_labels_reference(transform)
        )

    def test_bounding_box_matches_reference(self, seed):
        top = random_hierarchy(seed)
        assert top.bounding_box() == top.bounding_box_reference()

    def test_memo_survives_repeated_queries(self, seed):
        top = random_hierarchy(seed)
        first = list(top.flatten())
        assert list(top.flatten()) == first
        assert list(top.flatten()) == list(top.flatten_reference())

    def test_mutation_between_queries_invalidates(self, seed):
        """Flatten, mutate a shared leaf, flatten again: both must track."""
        rng = random.Random(seed + 1000)
        top = random_hierarchy(seed)
        list(top.flatten())  # warm every memo
        top.bounding_box()
        # Find a leaf buried in the hierarchy and mutate it.
        node = top
        while node.instances:
            node = rng.choice(node.instances).definition
        node.add_box("metal1", 500, 500, 520, 520)
        assert list(top.flatten()) == list(top.flatten_reference())
        assert top.bounding_box() == top.bounding_box_reference()

    def test_replacement_after_instance_move(self, seed):
        """Re-placing an instance through the property setter tracks."""
        top = random_hierarchy(seed)
        list(top.flatten())
        instance = top.instances[0]
        instance.location = Vec2(999, -999)
        assert list(top.flatten()) == list(top.flatten_reference())
        assert top.bounding_box() == top.bounding_box_reference()


@pytest.mark.parametrize("seed", SEEDS[:4])
@pytest.mark.parametrize("rules", [TECH_A, TECH_B], ids=lambda r: r.name)
def test_hierarchical_compactor_stamped_flatten_consistent(seed, rules):
    """The stamped rebuild flattens identically via memo and reference."""
    rng = random.Random(seed * 31)
    leaves = []
    for index in range(3):
        leaf = CellDefinition(f"cell{index}")
        for _ in range(6):
            x = rng.randrange(0, 60, 2)
            y = rng.randrange(0, 30, 2)
            leaf.add_box(
                rng.choice(["diff", "poly", "metal1"]),
                x, y, x + rng.randrange(2, 8), y + rng.randrange(2, 8),
            )
        leaves.append(leaf)
    top = CellDefinition("top")
    for i in range(4):
        for j in range(4):
            top.add_instance(leaves[(i + j) % 3], Vec2(i * 90, j * 45))
    compacted = HierarchicalCompactor(rules).compact(top)
    assert list(compacted.flatten()) == list(compacted.flatten_reference())
    assert compacted.bounding_box() == compacted.bounding_box_reference()
    assert compacted.count_instances(recursive=True) == top.count_instances(
        recursive=True
    )


def test_flatten_matches_known_transform_composition():
    """Pin the stamp math to the classical composed-transform semantics."""
    leaf = CellDefinition("leaf")
    leaf.add_box("metal", 0, 0, 10, 4)
    mid = CellDefinition("mid")
    mid.add_instance(leaf, Vec2(20, 0), ALL_ORIENTATIONS[0])
    top = CellDefinition("top")
    top.add_instance(mid, Vec2(0, 100), ALL_ORIENTATIONS[2])  # SOUTH
    expected = (
        Box(0, 0, 10, 4)
        .translated(Vec2(20, 0))
        .transformed(ALL_ORIENTATIONS[2], Vec2(0, 100))
    )
    assert [item.box for item in top.flatten()] == [expected]


# ----------------------------------------------------------------------
# The column memo against the reference walk, column for column
# ----------------------------------------------------------------------
def reference_columns(cell, orientation):
    """``flatten_reference`` under ``orientation`` as (layers, x0, y0, x1, y1)."""
    items = list(cell.flatten_reference(Transform(Vec2(0, 0), orientation)))
    return (
        [item.layer for item in items],
        [item.box.xmin for item in items],
        [item.box.ymin for item in items],
        [item.box.xmax for item in items],
        [item.box.ymax for item in items],
    )


def memo_columns(cell, orientation):
    codes, arrays = cell.flat_columns(orientation)
    names = layer_table()
    return (
        [names[code] for code in codes.tolist()],
        arrays.xmin.tolist(),
        arrays.ymin.tolist(),
        arrays.xmax.tolist(),
        arrays.ymax.tolist(),
    )


@pytest.mark.parametrize("seed", SEEDS)
class TestColumnMemo:
    def test_columns_equal_reference_under_every_orientation(self, seed):
        top = random_hierarchy(seed)
        for orientation in ALL_ORIENTATIONS:
            assert memo_columns(top, orientation) == reference_columns(top, orientation)

    def test_every_definition_memo_equals_reference(self, seed):
        """Inner definitions (queried by their parents under composed
        orientations) hold the reference columns too."""
        top = random_hierarchy(seed)
        top.flat_columns()
        stack, seen = [top], set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            for orientation in node._flat_memo:
                assert memo_columns(node, orientation) == reference_columns(
                    node, orientation
                )
            stack.extend(instance.definition for instance in node.instances)

    def test_unplaced_instances_contribute_nothing(self, seed):
        top = random_hierarchy(seed)
        placed = len(top.flat_columns()[0])
        top.add_instance(top.instances[0].definition)  # partial instance
        assert len(top.flat_columns()[0]) == placed
        assert memo_columns(top, ALL_ORIENTATIONS[0]) == reference_columns(
            top, ALL_ORIENTATIONS[0]
        )

    def test_mutation_after_a_memoized_query(self, seed):
        rng = random.Random(seed + 2000)
        top = random_hierarchy(seed)
        orientation = ALL_ORIENTATIONS[seed % 8]
        top.flat_columns(orientation)
        node = top
        while node.instances:
            node = rng.choice(node.instances).definition
        node.add_box("poly", -7, 3, -1, 9)
        assert memo_columns(top, orientation) == reference_columns(top, orientation)
        top.instances[-1].orientation = ALL_ORIENTATIONS[(seed + 3) % 8]
        assert memo_columns(top, orientation) == reference_columns(top, orientation)

    def test_columns_are_read_only(self, seed):
        codes, arrays = random_hierarchy(seed).flat_columns()
        for column in (codes, arrays.xmin, arrays.ymin, arrays.xmax, arrays.ymax):
            with pytest.raises(ValueError):
                column[:1] = 0


def test_instance_shared_by_two_owners_invalidates_both():
    leaf = CellDefinition("leaf")
    leaf.add_box("metal1", 0, 0, 4, 2)
    leaf.add_box("poly", 1, -3, 2, 5)
    shared = Instance(leaf, Vec2(10, 0), ALL_ORIENTATIONS[1], name="s")
    first, second = CellDefinition("first"), CellDefinition("second")
    first.add_box("diff", 0, 0, 1, 1)
    for owner in (first, second):
        owner.adopt(shared)
        owner.add_instance(leaf, Vec2(-5, 7), ALL_ORIENTATIONS[6])
    top = CellDefinition("top")
    top.add_instance(first, Vec2(0, 0))
    top.add_instance(second, Vec2(100, 50), ALL_ORIENTATIONS[5])
    for cell in (first, second, top):
        assert memo_columns(cell, ALL_ORIENTATIONS[2]) == reference_columns(
            cell, ALL_ORIENTATIONS[2]
        )
    shared.place(Vec2(-40, 3), ALL_ORIENTATIONS[7])
    for cell in (first, second, top):
        assert memo_columns(cell, ALL_ORIENTATIONS[2]) == reference_columns(
            cell, ALL_ORIENTATIONS[2]
        )
    assert list(top.flatten()) == list(top.flatten_reference())


def test_empty_definition_has_empty_columns():
    empty = CellDefinition("empty")
    parent = CellDefinition("parent")
    parent.add_instance(empty, Vec2(3, 3))
    for cell in (empty, parent):
        codes, arrays = cell.flat_columns()
        assert len(codes) == len(arrays) == 0
        assert list(cell.flatten()) == []
