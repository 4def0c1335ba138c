"""The interpreted visibility scan (Figure 6.7): the oracle for
``repro.compact.scanline.visibility_constraints``.

A vertical line sweeps left to right carrying, per layer, a flat list
of the visible front's segments.  Each box rescans every segment of
every layer and re-sorts its layer's front on insert.  It must add the
exact constraint multiset the array build adds, and return the same
spacing count.
"""

from typing import Dict, List, Sequence, Tuple

from repro.compact.constraints import ConstraintSystem
from repro.compact.rules import DesignRules
from repro.compact.scanline import CompactionBox


def _connected(a: CompactionBox, b: CompactionBox) -> bool:
    """Same layer and touching/overlapping in the drawn layout."""
    return a.layer == b.layer and a.box.overlaps(b.box)


def _add_connection(
    system: ConstraintSystem, a: CompactionBox, b: CompactionBox, rules: DesignRules
) -> None:
    """The per-pair form of ``repro.compact.scanline.connection_rows``."""
    overlap = min(a.box.xmax, b.box.xmax) - max(a.box.xmin, b.box.xmin)
    keep = max(0, min(overlap, rules.width(a.layer)))
    left_box, right_box = (a, b) if a.box.xmin <= b.box.xmin else (b, a)
    system.add(left_box.left, right_box.left, 0, kind="connect")
    system.add(left_box.right, right_box.right, 0, kind="connect")
    system.add(right_box.left, left_box.right, keep, kind="connect")


def visibility_constraints_reference(
    system: ConstraintSystem,
    boxes: Sequence[CompactionBox],
    rules: DesignRules,
) -> int:
    """The interpreted visibility scan; returns the spacing count.

    Semantically identical to ``visibility_constraints`` but keeps
    a flat-list front per layer that rescans every segment of every
    layer per box and re-sorts the whole front on every insert: the
    quadratic behaviour the array build removes.
    """
    count = 0
    # front[layer] = sorted list of (y0, y1, CompactionBox)
    front: Dict[str, List[Tuple[int, int, CompactionBox]]] = {}
    items = sorted(boxes, key=lambda item: (item.box.xmin, item.box.xmax))

    for b in items:
        for layer, segments in front.items():
            spacing = rules.spacing(layer, b.layer)
            handled = set()
            for y0, y1, a in segments:
                if min(y1, b.box.ymax) <= max(y0, b.box.ymin):
                    continue
                if id(a) in handled:
                    continue
                handled.add(id(a))
                if _connected(a, b):
                    _add_connection(system, a, b, rules)
                    continue
                if spacing is None:
                    continue
                if a.box.xmax >= b.box.xmin:
                    continue  # drawn crossing/contact of different layers
                system.add(a.right, b.left, spacing, kind="spacing")
                count += 1
        _insert_front(front, b)
    return count


def _insert_front(
    front: Dict[str, List[Tuple[int, int, CompactionBox]]], b: CompactionBox
) -> None:
    """Update a layer's visible front with a newly swept box.

    Within the new box's y range the new box replaces segments whose
    right edge it reaches past; segments extending further right stay
    (they will shadow the new box for later sweeps — correctly, since
    constraints against them imply constraints against the new box).
    """
    segments = front.setdefault(b.layer, [])
    result: List[Tuple[int, int, CompactionBox]] = []
    covered: List[Tuple[int, int]] = [(b.box.ymin, b.box.ymax)]
    for y0, y1, a in segments:
        if y1 <= b.box.ymin or y0 >= b.box.ymax or a.box.xmax > b.box.xmax:
            result.append((y0, y1, a))
            if a.box.xmax > b.box.xmax:
                # This segment keeps shadowing its y range.
                covered = _subtract_interval(covered, (y0, y1))
            continue
        # Keep the non-overlapped parts of the old segment.
        if y0 < b.box.ymin:
            result.append((y0, b.box.ymin, a))
        if y1 > b.box.ymax:
            result.append((b.box.ymax, y1, a))
    for y0, y1 in covered:
        if y1 > y0:
            result.append((y0, y1, b))
    result.sort(key=lambda segment: segment[0])
    front[b.layer] = result


def _subtract_interval(
    intervals: List[Tuple[int, int]], cut: Tuple[int, int]
) -> List[Tuple[int, int]]:
    result: List[Tuple[int, int]] = []
    for y0, y1 in intervals:
        if cut[1] <= y0 or cut[0] >= y1:
            result.append((y0, y1))
            continue
        if y0 < cut[0]:
            result.append((y0, cut[0]))
        if y1 > cut[1]:
            result.append((cut[1], y1))
    return result
