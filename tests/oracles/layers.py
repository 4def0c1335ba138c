"""Box-by-box contact and gate expansion: the oracle for
``repro.compact.layers.expand_columns``.

:func:`expand_contact` and :func:`expand_gate` expand one derived box
at a time with plain loops (Figure 6.9).  :func:`expand_layout` is a
``Box`` wrapper over the program's column build, for tests that state
their layouts in boxes.
"""

from typing import Dict, List, Tuple

from repro.compact.layers import cut_count, expand_columns
from repro.compact.rules import ContactRule, DesignRules
from repro.geometry import Box
from repro.geometry.batch import boxes_from_arrays, boxes_to_arrays


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


def expand_layout(
    layers: Dict[str, List[Box]], rules: DesignRules
) -> Dict[str, List[Box]]:
    """Expand every derived layer of a flat layout to mask layers.

    Non-derived layers pass through unchanged; ``contact`` and ``gate``
    boxes are expanded per the technology's tables.  A ``Box`` wrapper
    over the program's ``expand_columns``, so tests written in boxes
    exercise the column build.
    """
    expanded = expand_columns(
        {layer: boxes_to_arrays(boxes) for layer, boxes in layers.items()}, rules
    )
    return {
        layer: boxes_from_arrays(boxes.xmin, boxes.ymin, boxes.xmax, boxes.ymax)
        for layer, boxes in expanded.items()
    }
