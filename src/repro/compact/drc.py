"""A slab-based design-rule checker matched to 1-D x compaction.

Used as the legality oracle for compactor outputs: every horizontal slab
of the layout is checked for minimum x run widths, same-layer gaps, and
inter-layer gaps (drawn crossings of different layers are intentional
and exempt, mirroring the constraint generator's semantics — true
layer-interaction rules go through the derived layers of section 6.4.3).

:func:`check_layout` works on flat arrays (:mod:`repro.geometry.batch`):
every slab's merged runs are materialised at once, width and same-layer
gap checks are masked column comparisons, and each inter-layer check is
a pair of keyed ``searchsorted`` probes instead of a test of every run
pair.  Its oracle, the interpreted per-slab checker, lives with the
tests (``tests/oracles/drc.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..geometry import Box, batch
from .rules import DesignRules

__all__ = [
    "Violation",
    "check_layout",
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
    Emits the violation multiset of the interpreted per-slab checker
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
