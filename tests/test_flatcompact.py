"""Tests for the flat compaction driver, rubber band, and DRC."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compact import (
    TECH_A,
    TECH_B,
    check_layout,
    compact_cell,
    compact_layout,
)
from repro.core import CellDefinition
from repro.geometry import Box
from repro.layout.database import FlatLayout


def make_layout(pairs):
    flat = FlatLayout("t")
    for layer, box in pairs:
        flat.add(layer, box)
    return flat


class TestCompactLayout:
    def test_width_reduced(self):
        layout = make_layout(
            [("diff", Box(0, 0, 2, 10)), ("diff", Box(30, 0, 32, 10))]
        )
        result = compact_layout(layout, TECH_A)
        assert result.width_after < result.width_before
        assert result.width_after == 2 + 3 + 2

    def test_output_legal(self):
        layout = make_layout(
            [
                ("diff", Box(0, 0, 2, 10)),
                ("poly", Box(10, 0, 12, 10)),
                ("metal1", Box(30, 0, 33, 10)),
            ]
        )
        result = compact_layout(layout, TECH_A)
        assert result.violations(TECH_A) == []

    def test_y_axis(self):
        layout = make_layout(
            [("diff", Box(0, 0, 10, 2)), ("diff", Box(0, 30, 10, 32))]
        )
        result = compact_layout(layout, TECH_A, axis="y")
        boxes = sorted(result.layers["diff"], key=lambda box: box.ymin)
        assert boxes[1].ymin - boxes[0].ymax == TECH_A.min_spacing["diff"]

    @pytest.mark.parametrize("axis", ["z", "X", "Y", "", "xy"])
    def test_unknown_axis(self, axis):
        # Two boxes 40 wide and 3 tall: any axis other than "x"/"y" once
        # compacted along x and reported the height (3) as width_before.
        layout = make_layout(
            [("diff", Box(0, 0, 2, 3)), ("diff", Box(38, 0, 40, 3))]
        )
        assert compact_layout(layout, TECH_A, axis="x").width_before == 40
        with pytest.raises(ValueError, match="axis"):
            compact_layout(layout, TECH_A, axis=axis)
        cell = CellDefinition("two")
        cell.add_box("diff", 0, 0, 2, 3)
        cell.add_box("diff", 38, 0, 40, 3)
        with pytest.raises(ValueError, match="axis"):
            compact_cell(cell, TECH_A, axis=axis)

    def test_technology_transport(self):
        """Design in TECH_A, compact into TECH_B: spacing re-solves to
        the new rules (section 6.1's motivation)."""
        layout = make_layout(
            [("metal1", Box(0, 0, 3, 10)), ("metal1", Box(6, 0, 9, 10))]
        )
        # Legal in A (spacing 3) but illegal in B (spacing 4).
        assert check_layout(layout.layers, TECH_A) == []
        assert check_layout(layout.layers, TECH_B)
        result = compact_layout(layout, TECH_B, width_mode="min")
        assert result.violations(TECH_B) == []


class TestRubberBand:
    def layout(self):
        return make_layout(
            [
                ("metal1", Box(10, 0, 13, 10)),
                ("metal1", Box(10, 10, 13, 20)),  # aligned continuation
                ("metal1", Box(0, 0, 3, 10)),     # pushes only the lower one
            ]
        )

    def test_greedy_introduces_jog(self):
        result = compact_layout(self.layout(), TECH_A, rubber_band=False)
        assert result.jog_before > 0

    def test_rubber_band_removes_jog(self):
        result = compact_layout(self.layout(), TECH_A, rubber_band=True)
        assert result.jog_after == 0

    def test_rubber_band_keeps_width(self):
        greedy = compact_layout(self.layout(), TECH_A, rubber_band=False)
        smooth = compact_layout(self.layout(), TECH_A, rubber_band=True)
        assert smooth.width_after == greedy.width_after

    def test_rubber_band_output_legal(self):
        result = compact_layout(self.layout(), TECH_A, rubber_band=True)
        assert result.violations(TECH_A) == []


class TestCompactCell:
    def test_round_trip(self):
        cell = CellDefinition("wide")
        cell.add_box("diff", 0, 0, 2, 8)
        cell.add_box("diff", 40, 0, 42, 8)
        compacted, result = compact_cell(cell, TECH_A)
        assert compacted.name == "wide_compacted"
        assert compacted.bounding_box().width == result.width_after

    def test_named_output(self):
        cell = CellDefinition("c")
        cell.add_box("poly", 0, 0, 2, 2)
        compacted, _ = compact_cell(cell, TECH_A, name="tight")
        assert compacted.name == "tight"


class TestDrc:
    def test_width_violation(self):
        violations = check_layout({"metal1": [Box(0, 0, 1, 10)]}, TECH_A)
        assert any(v.kind == "width" for v in violations)

    def test_spacing_violation(self):
        violations = check_layout(
            {"diff": [Box(0, 0, 2, 10), Box(3, 0, 5, 10)]}, TECH_A
        )
        assert any(v.kind == "spacing" for v in violations)

    def test_touching_same_layer_legal(self):
        assert (
            check_layout({"diff": [Box(0, 0, 2, 10), Box(2, 0, 4, 10)]}, TECH_A)
            == []
        )

    def test_inter_layer_violation(self):
        violations = check_layout(
            {"poly": [Box(0, 0, 2, 10)], "diff": [Box(2, 0, 4, 10)]}, TECH_B
        )
        # poly-diff needs 1 in TECH_B but gap 0 is intentional contact.
        assert violations == []
        violations = check_layout(
            {"poly": [Box(0, 0, 2, 10)], "diff": [Box(2, 5, 4, 15)]}, TECH_B
        )
        assert violations == []

    def test_inter_layer_gap_too_small(self):
        # TECH_A requires poly-diff spacing 1; a gap of exactly 1 passes...
        ok = check_layout(
            {"poly": [Box(0, 0, 2, 10)], "diff": [Box(3, 0, 5, 10)]}, TECH_A
        )
        assert ok == []

    def test_violation_str(self):
        violations = check_layout({"metal1": [Box(0, 0, 1, 10)]}, TECH_A)
        assert "width violation" in str(violations[0])


class TestCompactGeneratedCells:
    def test_multiplier_leaf_cell_compacts_legally(self):
        """Compact the multiplier's basic cell into both technologies."""
        from repro.multiplier import load_multiplier_library

        rsg = load_multiplier_library()
        basic = rsg.cells.lookup("basiccell")
        for rules in (TECH_A, TECH_B):
            compacted, result = compact_cell(basic, rules, width_mode="min")
            flat_layers = {
                layer_box.layer: [] for layer_box in compacted.boxes
            }
            for layer_box in compacted.boxes:
                flat_layers[layer_box.layer].append(layer_box.box)
            assert check_layout(flat_layers, rules) == []
