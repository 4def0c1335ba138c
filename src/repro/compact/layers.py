"""Derived layers and contact expansion (section 6.4.3, Figure 6.9).

Rules like "poly must be 5 lambda wide over diff" or contact-cut
geometry cannot be expressed as pairwise minimum-spacing constraints.
The fix is to compact *derived* layers (a single ``contact`` layer with
ordinary width/spacing rules) and translate them to physical mask layers
at mask-creation time: a contact box expands into its metal and poly
overlaps plus an array of contact cuts sized from a lookup table —
exactly Magic's contact layer, which the paper cites.

The same strategy handles transistors: a ``gate`` derived layer expands
to poly over diff with the technology's gate width.

:func:`expand_columns` is the one build: it expands whole int64 box
columns per layer (floor-division gate widening, diffusion extension,
cut grids via ``np.repeat``), so netlist extraction reads a cell's
column memo and builds no box object.  Its per-box oracle lives with
the tests (``tests/oracles/layers.py``).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

import numpy as np

from ..geometry.batch import BoxArray
from .rules import ContactRule, DesignRules

__all__ = ["expand_columns", "cut_count"]


def cut_count(extent: int, rule: ContactRule) -> int:
    """How many contact cuts fit across ``extent`` of derived contact.

    One cut always fits (the derived box is at least as big as the
    minimum contact); additional cuts are added every
    ``cut_size + cut_spacing``.
    """
    usable = extent - 2 * max(rule.metal_overlap, rule.poly_overlap)
    if usable < rule.cut_size:
        return 1
    return 1 + (usable - rule.cut_size) // (rule.cut_size + rule.cut_spacing)


def _cut_counts(extent, rule: ContactRule):
    """:func:`cut_count` over an int64 column of extents."""
    usable = extent - 2 * max(rule.metal_overlap, rule.poly_overlap)
    return 1 + np.maximum(usable - rule.cut_size, 0) // (rule.cut_size + rule.cut_spacing)


def _contact_cuts(boxes: BoxArray, rule: ContactRule) -> BoxArray:
    """Every cut of every derived contact: box by box, rows then columns."""
    width = boxes.xmax - boxes.xmin
    height = boxes.ymax - boxes.ymin
    columns = _cut_counts(width, rule)
    rows = _cut_counts(height, rule)
    step = rule.cut_size + rule.cut_spacing
    x0 = boxes.xmin + (width - (columns * step - rule.cut_spacing)) // 2
    y0 = boxes.ymin + (height - (rows * step - rule.cut_spacing)) // 2
    counts = rows * columns
    total = int(counts.sum())
    within = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    per_row = np.repeat(columns, counts)
    cx = np.repeat(x0, counts) + within % per_row * step
    cy = np.repeat(y0, counts) + within // per_row * step
    return BoxArray(cx, cy, cx + rule.cut_size, cy + rule.cut_size)


def _gate_masks(boxes: BoxArray, rules: DesignRules) -> Tuple[BoxArray, BoxArray]:
    """The poly and diffusion of every derived gate, widened to the
    technology's gate width where the drawn box is narrower."""
    gate_width = rules.gate_width or rules.width("poly")
    narrow = boxes.xmax - boxes.xmin < gate_width
    widened = (boxes.xmin + boxes.xmax - gate_width) // 2
    poly = BoxArray(
        np.where(narrow, widened, boxes.xmin), boxes.ymin,
        np.where(narrow, widened + gate_width, boxes.xmax), boxes.ymax,
    )
    diff_extend = 1
    diff = BoxArray(
        boxes.xmin - diff_extend, boxes.ymin, boxes.xmax + diff_extend, boxes.ymax
    )
    return poly, diff


def expand_columns(
    layers: Mapping[str, BoxArray], rules: DesignRules
) -> Dict[str, BoxArray]:
    """Expand every derived layer of flat box columns to mask layers.

    The same boxes in the same order as expanding box by box: a
    layer's output lists its contributions in input
    layer order, a contact gives its ``metal1`` and ``poly`` overlaps
    (the contact boxes themselves) and its cut grid, a gate its widened
    poly and extended diffusion, and any other layer passes through.
    Layers appear in the order their first box would have been put;
    empty input layers contribute nothing.
    """
    parts: Dict[str, List[BoxArray]] = {}
    for layer, boxes in layers.items():
        if not len(boxes):
            continue
        if layer == "contact":
            produced = [
                ("metal1", boxes), ("poly", boxes),
                ("cut", _contact_cuts(boxes, rules.contact)),
            ]
        elif layer == "gate":
            poly, diff = _gate_masks(boxes, rules)
            produced = [("poly", poly), ("diff", diff)]
        else:
            produced = [(layer, boxes)]
        for name, columns in produced:
            parts.setdefault(name, []).append(columns)
    return {
        name: group[0] if len(group) == 1 else BoxArray(*(
            np.concatenate([getattr(part, column) for part in group])
            for column in ("xmin", "ymin", "xmax", "ymax")
        ))
        for name, group in parts.items()
    }
