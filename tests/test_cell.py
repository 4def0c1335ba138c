"""Tests for cells, instances, and the cell table (sections 2.1, 4.3)."""

import pytest
from oracles.cell import bounding_box_reference, flatten_reference

from repro.core import CellDefinition, CellTable, Instance
from repro.core.errors import DuplicateCellError, UnknownCellError
from repro.geometry import Box, EAST, NORTH, SOUTH, Transform, Vec2


def make_leaf(name="leaf"):
    cell = CellDefinition(name)
    cell.add_box("metal", 0, 0, 10, 4)
    cell.add_box("poly", 2, 0, 4, 8)
    cell.add_port("in", 0, 2, "metal")
    return cell


class TestCellDefinition:
    def test_bounding_box_over_geometry(self):
        cell = make_leaf()
        assert cell.bounding_box() == Box(0, 0, 10, 8)

    def test_empty_cell_has_no_bbox(self):
        assert CellDefinition("empty").bounding_box() is None

    def test_bounding_box_includes_placed_instances(self):
        leaf = make_leaf()
        parent = CellDefinition("parent")
        parent.add_instance(leaf, Vec2(100, 0), NORTH)
        assert parent.bounding_box() == Box(100, 0, 110, 8)

    def test_unplaced_instances_ignored_by_bbox(self):
        leaf = make_leaf()
        parent = CellDefinition("parent")
        parent.add_instance(leaf)  # partial instance
        assert parent.bounding_box() is None

    def test_port_lookup(self):
        cell = make_leaf()
        assert cell.port("in").position == Vec2(0, 2)
        with pytest.raises(KeyError):
            cell.port("nope")

    def test_layers(self):
        assert make_leaf().layers() == ("metal", "poly")


class TestFlatten:
    def test_flatten_applies_hierarchy_of_transforms(self):
        leaf = make_leaf()
        mid = CellDefinition("mid")
        mid.add_instance(leaf, Vec2(20, 0), NORTH)
        top = CellDefinition("top")
        top.add_instance(mid, Vec2(0, 100), SOUTH)
        boxes = list(top.flatten())
        # leaf metal box (0,0,10,4) -> +20 -> South about origin -> +(0,100)
        expected = Box(0, 0, 10, 4).translated(Vec2(20, 0)).transformed(SOUTH, Vec2(0, 100))
        assert any(b.layer == "metal" and b.box == expected for b in boxes)

    def test_flatten_counts(self):
        leaf = make_leaf()
        top = CellDefinition("top")
        for i in range(5):
            top.add_instance(leaf, Vec2(i * 12, 0), NORTH)
        assert len(list(top.flatten())) == 10  # 2 boxes x 5 instances

    def test_flatten_ports_hierarchical_names(self):
        leaf = make_leaf()
        top = CellDefinition("top")
        top.add_instance(leaf, Vec2(0, 0), NORTH, name="u1")
        ports = list(top.flatten_ports())
        assert ports[0].name == "u1/in"

    def test_count_instances_recursive(self):
        leaf = make_leaf()
        mid = CellDefinition("mid")
        mid.add_instance(leaf, Vec2(0, 0), NORTH)
        mid.add_instance(leaf, Vec2(12, 0), NORTH)
        top = CellDefinition("top")
        top.add_instance(mid, Vec2(0, 0), NORTH)
        top.add_instance(mid, Vec2(0, 20), NORTH)
        assert top.count_instances() == 2
        assert top.count_instances(recursive=True) == 6


class TestBoundingBoxCache:
    """The cached bbox must invalidate on every mutation path."""

    def test_repeated_queries_are_stable(self):
        cell = make_leaf()
        assert cell.bounding_box() == cell.bounding_box()
        assert cell.bounding_box() == bounding_box_reference(cell)

    def test_invalidates_after_add_box(self):
        cell = make_leaf()
        assert cell.bounding_box() == Box(0, 0, 10, 8)
        cell.add_box("metal", -5, -5, 0, 0)
        assert cell.bounding_box() == Box(-5, -5, 10, 8)
        assert cell.bounding_box() == bounding_box_reference(cell)

    def test_invalidates_after_add_instance(self):
        leaf = make_leaf()
        parent = CellDefinition("parent")
        parent.add_instance(leaf, Vec2(0, 0), NORTH)
        assert parent.bounding_box() == Box(0, 0, 10, 8)
        parent.add_instance(leaf, Vec2(100, 0), NORTH)
        assert parent.bounding_box() == Box(0, 0, 110, 8)
        assert parent.bounding_box() == bounding_box_reference(parent)

    def test_invalidates_after_place(self):
        leaf = make_leaf()
        parent = CellDefinition("parent")
        instance = parent.add_instance(leaf)  # partial instance
        assert parent.bounding_box() is None
        instance.place(Vec2(50, 0), NORTH)
        assert parent.bounding_box() == Box(50, 0, 60, 8)
        assert parent.bounding_box() == bounding_box_reference(parent)

    def test_invalidates_after_location_assignment(self):
        leaf = make_leaf()
        parent = CellDefinition("parent")
        instance = parent.add_instance(leaf, Vec2(0, 0), NORTH)
        parent.bounding_box()
        instance.location = Vec2(30, 0)
        assert parent.bounding_box() == Box(30, 0, 40, 8)

    def test_invalidates_after_definition_swap(self):
        leaf = make_leaf()
        bigger = CellDefinition("bigger")
        bigger.add_box("metal", 0, 0, 100, 80)
        parent = CellDefinition("parent")
        instance = parent.add_instance(leaf, Vec2(0, 0), NORTH)
        assert parent.bounding_box() == Box(0, 0, 10, 8)
        instance.definition = bigger
        assert parent.bounding_box() == Box(0, 0, 100, 80)
        assert parent.bounding_box() == bounding_box_reference(parent)
        assert list(parent.flatten()) == list(flatten_reference(parent))

    def test_invalidates_through_shared_child_mutation(self):
        leaf = make_leaf()
        parent = CellDefinition("parent")
        parent.add_instance(leaf, Vec2(0, 0), NORTH)
        grandparent = CellDefinition("grandparent")
        grandparent.add_instance(parent, Vec2(0, 0), NORTH)
        assert grandparent.bounding_box() == Box(0, 0, 10, 8)
        leaf.add_box("metal", 0, 0, 40, 2)
        assert grandparent.bounding_box() == Box(0, 0, 40, 8)

    def test_shared_instance_invalidates_every_owner(self):
        """adopt() must not steal tracking from a previous owner: a
        later placement change invalidates both cells' caches."""
        leaf = make_leaf()
        first = CellDefinition("first")
        instance = first.add_instance(leaf, Vec2(0, 0), NORTH)
        second = CellDefinition("second")
        second.adopt(instance)
        assert first.bounding_box() == Box(0, 0, 10, 8)
        assert second.bounding_box() == Box(0, 0, 10, 8)
        instance.location = Vec2(100, 0)
        assert first.bounding_box() == Box(100, 0, 110, 8)
        assert first.bounding_box() == bounding_box_reference(first)
        assert second.bounding_box() == Box(100, 0, 110, 8)

    def test_graph_expansion_adopts_instances(self):
        """mk_cell goes through adopt(): re-placing a node's instance
        afterwards must invalidate the owning cell's bbox."""
        from repro.core import Rsg
        from repro.core.interface import Interface

        rsg = Rsg()
        cell = rsg.define_cell("unit")
        cell.add_box("metal", 0, 0, 4, 4)
        rsg.interfaces.declare("unit", "unit", 1, Interface(Vec2(10, 0), NORTH))
        a = rsg.mk_instance("unit")
        rsg.connect(a, rsg.mk_instance("unit"), 1)
        built = rsg.mk_cell("pair", a)
        assert built.bounding_box() == Box(0, 0, 14, 4)
        built.instances[1].location = Vec2(20, 0)
        assert built.bounding_box() == Box(0, 0, 24, 4)


class TestInstance:
    def test_partial_instance(self):
        instance = Instance(make_leaf())
        assert not instance.is_placed
        with pytest.raises(ValueError):
            _ = instance.transform

    def test_place(self):
        instance = Instance(make_leaf())
        instance.place(Vec2(5, 5), EAST)
        assert instance.is_placed
        assert instance.transform == Transform(Vec2(5, 5), EAST)

    def test_bounding_box_transforms(self):
        instance = Instance(make_leaf(), Vec2(100, 100), SOUTH)
        assert instance.bounding_box() == Box(90, 92, 100, 100)

    def test_default_orientation_north(self):
        parent = CellDefinition("p")
        instance = parent.add_instance(make_leaf(), Vec2(1, 1))
        assert instance.orientation == NORTH


class TestCellTable:
    def test_define_and_lookup(self):
        table = CellTable()
        cell = table.new_cell("x")
        assert table.lookup("x") is cell
        assert "x" in table
        assert len(table) == 1

    def test_duplicate_rejected(self):
        table = CellTable()
        table.new_cell("x")
        with pytest.raises(DuplicateCellError):
            table.new_cell("x")

    def test_replace(self):
        table = CellTable()
        table.new_cell("x")
        replacement = table.new_cell("x", replace=True)
        assert table.lookup("x") is replacement

    def test_unknown(self):
        with pytest.raises(UnknownCellError):
            CellTable().lookup("ghost")

    def test_get_returns_none(self):
        assert CellTable().get("ghost") is None

    def test_names_in_insertion_order(self):
        table = CellTable()
        table.new_cell("b")
        table.new_cell("a")
        assert table.names() == ("b", "a")
