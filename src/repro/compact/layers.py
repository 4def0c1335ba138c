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

:func:`expand_columns` is the one production build: it expands whole
int64 box columns per layer (floor-division gate widening, diffusion
extension, cut grids via ``np.repeat``), so netlist extraction reads a
cell's column memo and builds no box object.  :func:`expand_layout` is
its ``Box`` wrapper; the per-box :func:`expand_contact` and
:func:`expand_gate` are kept as its oracle.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

import numpy as np

from ..geometry import Box
from ..geometry.batch import BoxArray, boxes_from_arrays, boxes_to_arrays
from .rules import ContactRule, DesignRules

__all__ = [
    "expand_contact", "expand_columns", "expand_layout", "cut_count", "expand_gate",
]


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


def expand_contact(box: Box, rule: ContactRule) -> List[Tuple[str, Box]]:
    """Expand one derived contact box into physical mask geometry.

    Returns (layer, box) pairs: a ``metal1`` overlap, a ``poly`` overlap,
    and an evenly spread grid of ``cut`` boxes (Figure 6.9).
    """
    result: List[Tuple[str, Box]] = [
        ("metal1", box.grown(0)),
        ("poly", box.grown(0)),
    ]
    columns = cut_count(box.width, rule)
    rows = cut_count(box.height, rule)
    grid_width = columns * rule.cut_size + (columns - 1) * rule.cut_spacing
    grid_height = rows * rule.cut_size + (rows - 1) * rule.cut_spacing
    x0 = box.xmin + (box.width - grid_width) // 2
    y0 = box.ymin + (box.height - grid_height) // 2
    step = rule.cut_size + rule.cut_spacing
    for row in range(rows):
        for column in range(columns):
            cx = x0 + column * step
            cy = y0 + row * step
            result.append(
                ("cut", Box(cx, cy, cx + rule.cut_size, cy + rule.cut_size))
            )
    return result


def expand_gate(box: Box, rules: DesignRules) -> List[Tuple[str, Box]]:
    """Expand a derived gate box into poly-over-diff geometry.

    The poly strip is widened to the technology's gate width when the
    drawn derived box is narrower — the "poly may be 3 lambda except
    over diffusion where it might have to be 5" rule.
    """
    gate_width = rules.gate_width or rules.width("poly")
    poly = box
    if box.width < gate_width:
        center2x = box.xmin + box.xmax
        xmin = (center2x - gate_width) // 2
        poly = Box(xmin, box.ymin, xmin + gate_width, box.ymax)
    diff_extend = 1
    diff = Box(
        box.xmin - diff_extend, box.ymin, box.xmax + diff_extend, box.ymax
    )
    return [("poly", poly), ("diff", diff)]


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
    """The poly and diffusion of every derived gate (:func:`expand_gate`)."""
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

    The column build of :func:`expand_layout`, with the same boxes in
    the same order: a layer's output lists its contributions in input
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


def expand_layout(
    layers: Dict[str, List[Box]], rules: DesignRules
) -> Dict[str, List[Box]]:
    """Expand every derived layer of a flat layout to mask layers.

    Non-derived layers pass through unchanged; ``contact`` and ``gate``
    boxes are expanded per the technology's tables.  A ``Box`` wrapper
    over :func:`expand_columns`.
    """
    expanded = expand_columns(
        {layer: boxes_to_arrays(boxes) for layer, boxes in layers.items()}, rules
    )
    return {
        layer: boxes_from_arrays(boxes.xmin, boxes.ymin, boxes.xmax, boxes.ymax)
        for layer, boxes in expanded.items()
    }
