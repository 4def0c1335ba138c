"""The layout database: flattening, merging, and area statistics.

The RSG "maintains its own database and as such is layout file format
independent" (section 4.5).  This module gives the flattened view of a
hierarchical cell: per-layer box lists, optional merging of overlapping
boxes into maximal horizontal strips (the preprocessing step discussed in
section 6.4.1), bounding boxes and utilisation statistics.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.cell import CellDefinition, Label, LayerBox, Port
from ..geometry import Box, Transform, batch

__all__ = [
    "FlatLayout",
    "flatten_cell",
    "merge_boxes",
    "merge_boxes_reference",
]


def _coalesce_slabs(
    slabs: List[Tuple[int, int, Tuple[Tuple[int, int], ...]]]
) -> List[Box]:
    """Coalesce consecutive slabs with identical x spans into boxes."""
    result: List[Box] = []
    open_spans: Dict[Tuple[int, int], int] = {}
    previous_y1: Optional[int] = None
    for y0, y1, spans in slabs:
        continued = previous_y1 == y0
        next_open: Dict[Tuple[int, int], int] = {}
        for span in spans:
            if continued and span in open_spans:
                next_open[span] = open_spans.pop(span)
            else:
                next_open[span] = y0
        for span, start in open_spans.items():
            result.append(Box(span[0], start, span[1], y0 if continued else previous_y1))
        open_spans = next_open
        previous_y1 = y1
    for span, start in open_spans.items():
        result.append(Box(span[0], start, span[1], previous_y1))
    result.sort(key=lambda b: (b.ymin, b.xmin, b.ymax, b.xmax))
    return result


def merge_boxes(boxes: List[Box]) -> List[Box]:
    """Merge overlapping/abutting boxes into maximal horizontal strips.

    This is the box-merging preprocessing of section 6.4.1: the result
    covers exactly the same area with no hidden or partially hidden
    vertical edges inside any strip row.  The decomposition slices the
    union region at every distinct y coordinate and merges x intervals
    within each slab, then coalesces vertically identical spans.

    Slab runs come from :func:`repro.geometry.batch.merged_slab_runs`;
    vertical coalescing of identical spans is one more lexsort over
    ``(x0, x1, slab)`` with a run-break wherever the slab index is not
    the predecessor's successor (the array form of the
    ``previous_y1 == y0`` continuation test of :func:`_coalesce_slabs`).
    Output is identical to :func:`merge_boxes_reference`.
    """
    if not boxes:
        return []
    arrays = batch.boxes_to_arrays(boxes)
    ys = batch.slab_grid([arrays])
    slab, x0, x1 = batch.merged_slab_runs(ys, arrays)
    if slab.size == 0:
        return []
    order = np.lexsort((slab, x1, x0))
    slab, x0, x1 = slab[order], x0[order], x1[order]
    starts = np.empty(slab.size, dtype=bool)
    starts[0] = True
    starts[1:] = (
        (x0[1:] != x0[:-1]) | (x1[1:] != x1[:-1]) | (slab[1:] != slab[:-1] + 1)
    )
    start_indices = np.flatnonzero(starts)
    last_indices = np.append(start_indices[1:], slab.size) - 1
    ymin = ys[slab[start_indices]]
    ymax = ys[slab[last_indices] + 1]
    xmin = x0[start_indices]
    xmax = x1[start_indices]
    order = np.lexsort((xmax, ymax, xmin, ymin))
    return batch.boxes_from_arrays(
        xmin[order], ymin[order], xmax[order], ymax[order]
    )


def merge_boxes_reference(boxes: List[Box]) -> List[Box]:
    """The interpreted strip merger, retained as the equivalence oracle.

    Rebuilds every slab's intervals by scanning *all* boxes per slab —
    quadratic on real cells — and must produce the identical box list
    to :func:`merge_boxes` on any input.
    """
    if not boxes:
        return []
    ys = sorted({box.ymin for box in boxes} | {box.ymax for box in boxes})
    slabs: List[Tuple[int, int, Tuple[Tuple[int, int], ...]]] = []
    for y0, y1 in zip(ys, ys[1:]):
        if y0 == y1:
            continue
        intervals: List[Tuple[int, int]] = []
        for box in boxes:
            if box.ymin <= y0 and box.ymax >= y1 and box.xmax > box.xmin:
                intervals.append((box.xmin, box.xmax))
        if not intervals:
            continue
        intervals.sort()
        merged = [list(intervals[0])]
        for x0, x1 in intervals[1:]:
            if x0 <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], x1)
            else:
                merged.append([x0, x1])
        slabs.append((y0, y1, tuple((a, b) for a, b in merged)))
    return _coalesce_slabs(slabs)


class FlatLayout:
    """A flattened layout: boxes grouped per layer, plus flattened ports."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.layers: Dict[str, List[Box]] = defaultdict(list)
        self.ports: List[Port] = []
        self.labels: List[Label] = []

    def add(self, layer: str, box: Box) -> None:
        self.layers[layer].append(box)

    def box_count(self) -> int:
        return sum(len(boxes) for boxes in self.layers.values())

    def bounding_box(self) -> Optional[Box]:
        result: Optional[Box] = None
        for boxes in self.layers.values():
            for box in boxes:
                result = box if result is None else result.union(box)
        return result

    def merged(self) -> "FlatLayout":
        """Return a copy with per-layer boxes merged into maximal strips."""
        out = FlatLayout(self.name)
        for layer, boxes in self.layers.items():
            out.layers[layer] = merge_boxes(boxes)
        out.ports = list(self.ports)
        out.labels = list(self.labels)
        return out

    def area_by_layer(self) -> Dict[str, int]:
        """Exact covered area per layer (computed on merged geometry)."""
        merged = self.merged()
        return {
            layer: sum(box.area for box in boxes)
            for layer, boxes in merged.layers.items()
        }

    def utilisation(self) -> float:
        """Total covered layer area over bounding-box area (>1 possible)."""
        bbox = self.bounding_box()
        if bbox is None or bbox.area == 0:
            return 0.0
        return sum(self.area_by_layer().values()) / bbox.area

    def same_geometry(self, other: "FlatLayout") -> bool:
        """Layer-by-layer equality of covered regions (order independent)."""
        layers = set(self.layers) | set(other.layers)
        for layer in layers:
            mine = merge_boxes(self.layers.get(layer, []))
            theirs = merge_boxes(other.layers.get(layer, []))
            if mine != theirs:
                return False
        return True

    def __repr__(self) -> str:
        return f"FlatLayout({self.name!r}, layers={len(self.layers)}, boxes={self.box_count()})"


def flatten_cell(cell: CellDefinition, merge: bool = False) -> FlatLayout:
    """Flatten a hierarchical cell into a :class:`FlatLayout`."""
    flat = FlatLayout(cell.name)
    layer_box: LayerBox
    for layer_box in cell.flatten(Transform()):
        flat.add(layer_box.layer, layer_box.box)
    flat.ports = list(cell.flatten_ports(Transform()))
    flat.labels = list(cell.flatten_labels(Transform()))
    return flat.merged() if merge else flat
