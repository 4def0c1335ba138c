"""The interpreted strip merger: the oracle for
``repro.layout.database.merge_boxes``.

Each slab's intervals are rebuilt by scanning every box, then slabs
with identical x spans are coalesced into strips.
"""

from typing import Dict, List, Optional, Tuple

from repro.geometry import Box


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


def merge_boxes_reference(boxes: List[Box]) -> List[Box]:
    """Merge boxes into maximal horizontal strips, slab by slab.

    Rebuilds every slab's intervals by scanning *all* boxes per slab —
    quadratic on real cells — and must produce the identical box list
    to ``merge_boxes`` on any input.
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
