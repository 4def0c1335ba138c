"""Tests for leaf-cell compaction with pitch variables (sections 6.1-6.3)."""

import pytest

from repro.compact import (
    TECH_A,
    TECH_B,
    LeafCellCompactor,
    PitchCost,
    pitch_name,
)
from repro.core import Rsg
from repro.core.errors import CompactionError
from repro.geometry import EAST, NORTH, Vec2


def two_bar_cell(rsg, name="A", gap=8):
    cell = rsg.define_cell(name)
    cell.add_box("diff", 0, 0, 2, 10)
    cell.add_box("diff", gap, 0, gap + 2, 10)
    return cell


@pytest.fixture
def rsg():
    workspace = Rsg()
    two_bar_cell(workspace, "A")
    workspace.interface_by_example(
        "A", Vec2(0, 0), NORTH, "A", Vec2(14, 0), NORTH, index=1
    )
    return workspace


class TestFigure63:
    """The constraint representation example: one cell, one A-A interface."""

    def test_unknown_count_reduction(self, rsg):
        """8 per-instance unknowns fold to 4 edges + 1 pitch = 5."""
        compactor = LeafCellCompactor(rsg, TECH_A)
        compactor.add_cell("A")
        compactor.add_interface("A", "A", 1)
        result = compactor.solve()
        assert result.variable_count == 5
        assert result.naive_variable_count == 8

    @pytest.mark.parametrize("mode", ["bogus", "Min", "", "preserve "])
    def test_unknown_width_mode_rejected(self, rsg, mode):
        compactor = LeafCellCompactor(rsg, TECH_A, width_mode=mode)
        with pytest.raises(ValueError, match="width mode"):
            compactor.add_cell("A")

    def test_pitch_compacts(self, rsg):
        compactor = LeafCellCompactor(rsg, TECH_A)
        compactor.add_cell("A")
        lam = compactor.add_interface("A", "A", 1)
        result = compactor.solve(PitchCost(weights={lam: 100.0}))
        assert result.pitches[lam] < 14  # drawn pitch was 14
        assert result.pitches[lam] == 10  # 2+3+2+3 pattern

    def test_all_instances_identical(self, rsg):
        """The defining property: every instance shares one geometry."""
        compactor = LeafCellCompactor(rsg, TECH_A)
        compactor.add_cell("A")
        compactor.add_interface("A", "A", 1)
        result = compactor.solve()
        assert set(result.cells) == {"A"}

    def test_verified_legal(self, rsg):
        compactor = LeafCellCompactor(rsg, TECH_A)
        compactor.add_cell("A")
        compactor.add_interface("A", "A", 1)
        result = compactor.solve()
        assert compactor.verify(result) == []

    def test_replicated_legality(self, rsg):
        """Chain many instances at the solved pitch: still DRC clean —
        the constraint system guarantees *every* replication factor."""
        from repro.compact import check_layout

        compactor = LeafCellCompactor(rsg, TECH_A)
        compactor.add_cell("A")
        lam = compactor.add_interface("A", "A", 1)
        result = compactor.solve()
        pitch = result.pitches[lam]
        layers = {"diff": []}
        for k in range(10):
            for layer_box in result.cells["A"].boxes:
                layers["diff"].append(layer_box.box.translated(Vec2(k * pitch, 0)))
        assert check_layout(layers, TECH_A) == []


class TestCostFunction:
    """Section 6.2: pitch tradeoffs steered by replication weights."""

    def build(self):
        workspace = Rsg()
        a = workspace.define_cell("A")
        a.add_box("metal1", 0, 0, 3, 6)
        a.add_box("metal1", 0, 8, 3, 14)
        b = workspace.define_cell("B")
        b.add_box("metal1", 0, 0, 3, 14)
        workspace.interface_by_example(
            "A", Vec2(0, 0), NORTH, "A", Vec2(10, 0), NORTH, index=1
        )
        workspace.interface_by_example(
            "A", Vec2(0, 0), NORTH, "B", Vec2(10, 0), NORTH, index=1
        )
        compactor = LeafCellCompactor(workspace, TECH_A, width_mode="preserve")
        compactor.add_cell("A")
        compactor.add_cell("B")
        lam_aa = compactor.add_interface("A", "A", 1)
        lam_ab = compactor.add_interface("A", "B", 1)
        return compactor, lam_aa, lam_ab

    def test_weights_change_nothing_when_independent(self):
        compactor, lam_aa, lam_ab = self.build()
        res1 = compactor.solve(PitchCost(weights={lam_aa: 100.0, lam_ab: 1.0}))
        res2 = compactor.solve(PitchCost(weights={lam_aa: 1.0, lam_ab: 100.0}))
        # Both pitches reach the rule minimum: 3 wide + 3 spacing.
        assert res1.pitches[lam_aa] == res2.pitches[lam_aa] == 6

    def test_cost_reported(self):
        compactor, lam_aa, lam_ab = self.build()
        result = compactor.solve(PitchCost(weights={lam_aa: 2.0, lam_ab: 5.0}))
        assert result.cost == 2.0 * result.pitches[lam_aa] + 5.0 * result.pitches[lam_ab]


class TestPitchTradeoff:
    """The Figure 6.1/6.2 phenomenon: lambda_a and lambda_b trade off."""

    def build(self):
        workspace = Rsg()
        # Cell with a bottom bar and a *top* bar offset rightward; the
        # A-A interface couples top-to-top and bottom-to-bottom; a B cell
        # interleaves and couples to both bars, creating tension.
        a = workspace.define_cell("A")
        a.add_box("metal1", 0, 0, 3, 4)     # bottom bar
        a.add_box("metal1", 4, 8, 7, 12)    # top bar, shifted right
        workspace.interface_by_example(
            "A", Vec2(0, 0), NORTH, "A", Vec2(12, 0), NORTH, index=1
        )
        compactor = LeafCellCompactor(workspace, TECH_A, width_mode="preserve")
        compactor.add_cell("A")
        lam = compactor.add_interface("A", "A", 1)
        return compactor, lam

    def test_pitch_bounded_by_both_bars(self):
        compactor, lam = self.build()
        result = compactor.solve(PitchCost(weights={lam: 10.0}))
        # Each bar chain independently needs width+spacing = 6.
        assert result.pitches[lam] == 6
        assert compactor.verify(result) == []


class TestFrozenAndSizing:
    def test_frozen_cell_unchanged(self, rsg):
        compactor = LeafCellCompactor(rsg, TECH_A)
        compactor.add_cell("A", frozen=True)
        compactor.add_interface("A", "A", 1)
        result = compactor.solve()
        original = rsg.cells.lookup("A")
        new = result.cells["A"]
        widths = [b.box.width for b in new.boxes]
        gaps = new.boxes[1].box.xmin - new.boxes[0].box.xmax
        assert widths == [b.box.width for b in original.boxes]
        assert gaps == original.boxes[1].box.xmin - original.boxes[0].box.xmax

    def test_bus_sizing_directive(self, rsg):
        compactor = LeafCellCompactor(rsg, TECH_A)
        compactor.add_cell("A", sizing={"diff": 4})
        compactor.add_interface("A", "A", 1)
        result = compactor.solve()
        for layer_box in result.cells["A"].boxes:
            assert layer_box.box.width >= 4

    def test_technology_transport(self, rsg):
        """Compact the same library into TECH_B and verify legality under
        the new rules — the transportability goal of section 6.1."""
        compactor = LeafCellCompactor(rsg, TECH_B)
        compactor.add_cell("A")
        compactor.add_interface("A", "A", 1)
        result = compactor.solve()
        assert compactor.verify(result) == []
        # TECH_B diff spacing is 2, width 2: pitch is 8.
        assert result.pitches[pitch_name("A", "A", 1)] == 8


class TestRestrictions:
    def test_non_north_interface_rejected(self, rsg):
        rsg.interface_by_example(
            "A", Vec2(0, 0), NORTH, "A", Vec2(0, 20), EAST, index=2
        )
        compactor = LeafCellCompactor(rsg, TECH_A)
        compactor.add_cell("A")
        with pytest.raises(CompactionError):
            compactor.add_interface("A", "A", 2)

    def test_empty_cell_rejected(self, rsg):
        rsg.define_cell("empty")
        compactor = LeafCellCompactor(rsg, TECH_A)
        with pytest.raises(CompactionError):
            compactor.add_cell("empty")

    def test_mask_interface_cross_cell(self):
        """A mask cell overlapping its host across an interface: the
        cross-instance connection constraints keep them together."""
        workspace = Rsg()
        host = workspace.define_cell("host")
        host.add_box("metal1", 0, 0, 20, 4)
        mask = workspace.define_cell("mask")
        mask.add_box("metal1", 0, 0, 4, 4)
        workspace.interface_by_example(
            "host", Vec2(0, 0), NORTH, "mask", Vec2(8, 0), NORTH, index=1
        )
        compactor = LeafCellCompactor(workspace, TECH_A, width_mode="preserve")
        compactor.add_cell("host")
        compactor.add_cell("mask")
        lam = compactor.add_interface("host", "mask", 1)
        result = compactor.solve()
        assert compactor.verify(result) == []
        # Mask must still land inside the host bar.
        pitch = result.pitches[lam]
        host_box = result.cells["host"].boxes[0].box
        mask_box = result.cells["mask"].boxes[0].box.translated(Vec2(pitch, 0))
        assert host_box.overlaps(mask_box)
