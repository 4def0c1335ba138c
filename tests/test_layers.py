"""Tests for derived layers and contact expansion (section 6.4.3, Fig 6.9)."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.compact import (
    TECH_A,
    TECH_B,
    check_layout,
    cut_count,
    expand_contact,
    expand_gate,
    expand_layout,
)
from repro.compact.layers import expand_columns
from repro.geometry import Box, batch


class TestCutCount:
    def test_minimum_contact_single_cut(self):
        assert cut_count(4, TECH_A.contact) == 1

    def test_cuts_scale_with_extent(self):
        rule = TECH_A.contact  # cut 2, spacing 2, overlap 1
        assert cut_count(4, rule) == 1    # usable 2 -> one cut
        assert cut_count(8, rule) == 2    # usable 6 -> two cuts
        assert cut_count(12, rule) == 3
        assert cut_count(16, rule) == 4

    def test_never_zero(self):
        assert cut_count(1, TECH_A.contact) == 1


class TestExpandContact:
    def test_small_contact(self):
        out = expand_contact(Box(0, 0, 4, 4), TECH_A.contact)
        layers = [layer for layer, _ in out]
        assert layers.count("metal1") == 1
        assert layers.count("poly") == 1
        assert layers.count("cut") == 1

    def test_figure_69_large_contact(self):
        """A large derived contact expands into a grid of cuts."""
        out = expand_contact(Box(0, 0, 12, 8), TECH_A.contact)
        cuts = [box for layer, box in out if layer == "cut"]
        assert len(cuts) == 6  # 3 columns x 2 rows

    def test_cuts_inside_contact(self):
        contact = Box(0, 0, 16, 12)
        for layer, box in expand_contact(contact, TECH_A.contact):
            if layer == "cut":
                assert contact.contains_box(box)

    def test_cuts_respect_spacing(self):
        out = expand_contact(Box(0, 0, 16, 4), TECH_A.contact)
        cuts = sorted(
            (box for layer, box in out if layer == "cut"),
            key=lambda box: box.xmin,
        )
        for a, b in zip(cuts, cuts[1:]):
            if a.ymin == b.ymin:
                assert b.xmin - a.xmax >= TECH_A.contact.cut_spacing

    def test_grid_centered(self):
        out = expand_contact(Box(0, 0, 10, 10), TECH_A.contact)
        cuts = [box for layer, box in out if layer == "cut"]
        xmin = min(box.xmin for box in cuts)
        xmax = max(box.xmax for box in cuts)
        assert xmin - 0 == 10 - xmax  # symmetric margins


class TestExpandGate:
    def test_narrow_gate_widened(self):
        """Poly over diff must reach the technology gate width."""
        out = expand_gate(Box(0, 0, 2, 10), TECH_A)
        poly = next(box for layer, box in out if layer == "poly")
        assert poly.width == TECH_A.gate_width

    def test_wide_gate_unchanged(self):
        out = expand_gate(Box(0, 0, 6, 10), TECH_A)
        poly = next(box for layer, box in out if layer == "poly")
        assert poly.width == 6

    def test_diff_extends_past_gate(self):
        out = expand_gate(Box(0, 0, 3, 10), TECH_A)
        diff = next(box for layer, box in out if layer == "diff")
        assert diff.xmin < 0 and diff.xmax > 3


class TestExpandLayout:
    def test_pass_through(self):
        layers = {"metal1": [Box(0, 0, 4, 4)]}
        out = expand_layout(layers, TECH_A)
        assert out == layers

    def test_mixed_expansion(self):
        layers = {
            "contact": [Box(0, 0, 4, 4)],
            "gate": [Box(10, 0, 12, 8)],
            "metal1": [Box(20, 0, 24, 4)],
        }
        out = expand_layout(layers, TECH_A)
        assert "cut" in out
        assert "diff" in out
        assert len(out["metal1"]) == 2  # contact overlap + passthrough
        assert len(out["poly"]) == 2    # contact overlap + widened gate

    def test_technology_dependence(self):
        """The same derived layout expands differently per technology —
        the transportability payoff."""
        layers = {"contact": [Box(0, 0, 12, 12)]}
        cuts_a = len(expand_layout(layers, TECH_A)["cut"])
        cuts_b = len(expand_layout(layers, TECH_B)["cut"])
        assert cuts_a != cuts_b

    def test_compacted_derived_layout_expands_legally(self):
        """Compact on derived layers, then expand: the mask-level result
        keeps the contact geometry inside its overlaps."""
        from repro.compact import compact_layout
        from repro.layout.database import FlatLayout

        flat = FlatLayout("cell")
        flat.add("contact", Box(0, 0, 4, 4))
        flat.add("contact", Box(30, 0, 34, 4))
        result = compact_layout(flat, TECH_A)
        expanded = expand_layout(result.layers, TECH_A)
        for cut in expanded["cut"]:
            assert any(m.contains_box(cut) for m in expanded["metal1"])


def _expanded_by_box(layers, rules):
    """The per-box oracle: (layer, box) pairs per input layer, in order."""
    result = {}
    for layer, boxes in layers.items():
        for box in boxes:
            if layer == "contact":
                pairs = expand_contact(box, rules.contact)
            elif layer == "gate":
                pairs = expand_gate(box, rules)
            else:
                pairs = [(layer, box)]
            for out_layer, out_box in pairs:
                result.setdefault(out_layer, []).append(out_box)
    return result


#: boxes at negative and positive coordinates, from zero width through
#: odd and narrow (under the gate width) to wide multi-cut contacts
_boxes = st.builds(
    lambda x, y, w, h: Box(x, y, x + w, y + h),
    st.integers(-60, 60), st.integers(-60, 60),
    st.integers(0, 24), st.integers(0, 24),
)


class TestColumnExpansion:
    @settings(max_examples=150, deadline=None)
    @given(
        layers=st.dictionaries(
            st.sampled_from(["contact", "gate", "metal1", "poly", "diff"]),
            st.lists(_boxes, max_size=12),
        ),
        rules=st.sampled_from([TECH_A, TECH_B]),
    )
    def test_columns_equal_the_per_box_oracle(self, layers, rules):
        """The column build yields the oracle's (layer, box) multiset,
        and its Box wrapper the oracle's boxes in the oracle's order."""
        oracle = _expanded_by_box(layers, rules)
        columns = expand_columns(
            {layer: batch.boxes_to_arrays(boxes) for layer, boxes in layers.items()},
            rules,
        )
        produced = Counter(
            (layer, box)
            for layer, arrays in columns.items()
            for box in batch.boxes_from_arrays(
                arrays.xmin, arrays.ymin, arrays.xmax, arrays.ymax
            )
        )
        assert produced == Counter(
            (layer, box) for layer, boxes in oracle.items() for box in boxes
        )
        assert expand_layout(layers, rules) == oracle

    @pytest.mark.parametrize("rules", [TECH_A, TECH_B], ids=["TECH_A", "TECH_B"])
    def test_multi_cut_contact_at_negative_coordinates(self, rules):
        layers = {"contact": [Box(-31, -17, -9, 0)], "gate": [Box(-5, -7, -4, 3)]}
        out = expand_layout(layers, rules)
        assert len(out["cut"]) > 4
        assert out == _expanded_by_box(layers, rules)
