"""A slab-based design-rule checker matched to 1-D x compaction.

Used as the legality oracle for compactor outputs: every horizontal slab
of the layout is checked for minimum x run widths, same-layer gaps, and
inter-layer gaps (drawn crossings of different layers are intentional
and exempt, mirroring the constraint generator's semantics — true
layer-interaction rules go through the derived layers of section 6.4.3).

Two implementations are provided.  :func:`check_layout` works on flat
arrays (:mod:`repro.geometry.batch`): every slab's merged runs are
materialised at once, width and same-layer gap checks are masked
column comparisons, and each inter-layer check is a pair of keyed
``searchsorted`` probes instead of a test of every run pair.
:func:`check_layout_reference` is the interpreted checker — it rebuilds
every layer's runs from *all* boxes for *every* slab (``O(slabs x
boxes)``) and compares runs pairwise (``O(runs^2)`` per layer pair) —
retained as the equivalence oracle for property tests and benchmarks.
Both emit the same violation multiset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..geometry import Box, batch
from .rules import DesignRules

__all__ = [
    "Violation",
    "check_layout",
    "check_layout_reference",
]


@dataclass(frozen=True)
class Violation:
    kind: str  # "width" | "spacing"
    layer_a: str
    layer_b: str
    where: Tuple[int, int]  # (x, y) witness
    required: int
    actual: int

    def __str__(self) -> str:
        layers = (
            self.layer_a
            if self.layer_a == self.layer_b
            else f"{self.layer_a}/{self.layer_b}"
        )
        return (
            f"{self.kind} violation on {layers} at {self.where}:"
            f" {self.actual} < {self.required}"
        )


def check_layout(
    layers: Dict[str, List[Box]], rules: DesignRules
) -> List[Violation]:
    """Check min width and spacing; returns all violations found.

    All slabs of a layer are materialised at once as flat
    ``(slab, x0, x1)`` run vectors
    (:func:`repro.geometry.batch.merged_slab_runs`); width and
    same-layer gap checks are single masked comparisons over those
    columns, and each inter-layer check is two keyed ``searchsorted``
    probes over the partner layer's run starts/ends, so only the runs
    inside a spacing-sized window around each run end are visited.
    Emits the violation multiset of :func:`check_layout_reference`
    (emission order may differ).
    """
    violations: List[Violation] = []
    layer_names = sorted(layers)
    if not layer_names:
        return violations
    tables = rules.tables(layer_names)
    arrays = {name: batch.boxes_to_arrays(layers[name]) for name in layer_names}
    ys = batch.slab_grid(arrays.values())
    if ys.size < 2:
        return violations
    runs = {name: batch.merged_slab_runs(ys, arrays[name]) for name in layer_names}

    def emit(kind, name_a, name_b, xs, slabs, required, actual) -> None:
        violations.extend(
            Violation(kind, name_a, name_b, (x, y), required, value)
            for x, y, value in zip(xs.tolist(), ys[slabs].tolist(), actual.tolist())
        )

    for name in layer_names:
        slab, x0, x1 = runs[name]
        if slab.size == 0:
            continue
        width = tables.width[name]
        drawn = x1 - x0
        narrow = np.flatnonzero(drawn < width)
        if narrow.size:
            emit("width", name, name, x0[narrow], slab[narrow], width, drawn[narrow])
        spacing = tables.spacing[name, name]
        if spacing is not None and slab.size > 1:
            gaps = x0[1:] - x1[:-1]
            bad = np.flatnonzero((slab[1:] == slab[:-1]) & (gaps < spacing))
            if bad.size:
                emit("spacing", name, name, x1[bad], slab[bad], spacing, gaps[bad])
    for index, name_a in enumerate(layer_names):
        slab_a, a0, a1 = runs[name_a]
        for name_b in layer_names[index + 1:]:
            spacing = tables.spacing[name_a, name_b]
            slab_b, b0, b1 = runs[name_b]
            if spacing is None or slab_a.size == 0 or slab_b.size == 0:
                continue
            base = int(min(a0.min(), b0.min())) - spacing - 1
            span = np.int64(int(max(a1.max(), b1.max())) + spacing + 1 - base + 1)
            key_b0 = slab_b * span + (b0 - base)
            key_b1 = slab_b * span + (b1 - base)
            # b runs starting in (a1, a1 + spacing): gap to the right.
            lo = np.searchsorted(key_b0, slab_a * span + (a1 - base), side="right")
            hi = np.searchsorted(
                key_b0, slab_a * span + (a1 + spacing - base), side="left"
            )
            qa, qb = batch.expand_ranges(lo, hi)
            if qa.size:
                emit(
                    "spacing", name_a, name_b,
                    a1[qa], slab_a[qa], spacing, b0[qb] - a1[qa],
                )
            # b runs ending in (a0 - spacing, a0): gap to the left.
            lo = np.searchsorted(
                key_b1, slab_a * span + (a0 - spacing - base), side="right"
            )
            hi = np.searchsorted(key_b1, slab_a * span + (a0 - base), side="left")
            qa, qb = batch.expand_ranges(lo, hi)
            if qa.size:
                emit(
                    "spacing", name_a, name_b,
                    b1[qb], slab_a[qa], spacing, a0[qa] - b1[qb],
                )
    return violations


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
    """The interpreted checker, retained as the equivalence oracle.

    Rebuilds every layer's slab runs from all boxes for every slab and
    tests every inter-layer run pair — the quadratic rescans the array
    build removes.  Must emit the same violation multiset as
    :func:`check_layout` on any input.
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
