"""The interpreted design-rule checker: the oracle for
``repro.compact.drc.check_layout``.

It rebuilds every layer's runs from *all* boxes for *every* slab
(``O(slabs x boxes)``) and compares runs pairwise (``O(runs^2)`` per
layer pair).  It must emit the same violation multiset as the array
checker on any input.
"""

from typing import Dict, List, Sequence, Tuple

from repro.compact.drc import Violation
from repro.compact.rules import DesignRules
from repro.geometry import Box


def _slab_runs(boxes: Sequence[Box], y0: int, y1: int) -> List[Tuple[int, int]]:
    """Merged x intervals of material fully covering the slab [y0, y1]."""
    intervals = sorted(
        (box.xmin, box.xmax)
        for box in boxes
        if box.ymin <= y0 and box.ymax >= y1 and box.xmax > box.xmin
    )
    merged: List[List[int]] = []
    for x0, x1 in intervals:
        if merged and x0 <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], x1)
        else:
            merged.append([x0, x1])
    return [(a, b) for a, b in merged]


def check_layout_reference(
    layers: Dict[str, List[Box]], rules: DesignRules
) -> List[Violation]:
    """Every width and spacing violation, found slab by slab.

    Rebuilds every layer's slab runs from all boxes for every slab and
    tests every inter-layer run pair: the quadratic rescans the array
    build removes.
    """
    violations: List[Violation] = []
    ys = sorted(
        {box.ymin for boxes in layers.values() for box in boxes}
        | {box.ymax for boxes in layers.values() for box in boxes}
    )
    layer_names = sorted(layers)
    for y0, y1 in zip(ys, ys[1:]):
        if y0 == y1:
            continue
        runs = {name: _slab_runs(layers[name], y0, y1) for name in layer_names}
        for name in layer_names:
            width = rules.width(name)
            spacing = rules.min_spacing.get(name)
            slab = runs[name]
            for x0, x1 in slab:
                if x1 - x0 < width:
                    violations.append(
                        Violation("width", name, name, (x0, y0), width, x1 - x0)
                    )
            if spacing is not None:
                for (_, r0), (l1, _) in zip(slab, slab[1:]):
                    if l1 - r0 < spacing:
                        violations.append(
                            Violation("spacing", name, name, (r0, y0), spacing, l1 - r0)
                        )
        for i, name_a in enumerate(layer_names):
            for name_b in layer_names[i + 1:]:
                spacing = rules.spacing(name_a, name_b)
                if spacing is None:
                    continue
                for a0, a1 in runs[name_a]:
                    for b0, b1 in runs[name_b]:
                        if a1 <= b0:
                            gap = b0 - a1
                        elif b1 <= a0:
                            gap = a0 - b1
                        else:
                            continue  # drawn crossing: intentional
                        # gap == 0 is an intentional different-layer contact
                        if 0 < gap < spacing:
                            violations.append(
                                Violation(
                                    "spacing",
                                    name_a,
                                    name_b,
                                    (min(a1, b1), y0),
                                    spacing,
                                    gap,
                                )
                            )
    return violations
