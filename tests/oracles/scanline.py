"""Scan-line oracles, and the flat pass of the paper's experiments.

* ``visibility_constraints_reference``, the oracle for
  ``repro.compact.scanline.visibility_constraints`` (Figure 6.7): per
  layer, a flat list of the visible front's segments that each box
  rescans and re-sorts.  It must add the exact constraint multiset the
  array build adds, and return the same spacing count.
* ``naive_constraints``, the band scan of Figures 6.5/6.6, which the
  compactor does not use.
* ``compact``, one flat pass with every option the experiments vary,
  composed from the package's pass stages; it computes what
  ``repro.compact.compact_layout`` does on the options that takes.
"""

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.compact.constraints import CONNECT, SPACING, ConstraintSystem
from repro.compact.rules import DesignRules
from repro.compact.scanline import (
    CompactionBox, EdgeBoxes, _spacing_matrix, _width_table, add_width_constraints,
    build_edge_variables, connection_rows, rebuild_boxes, solved_columns,
    visibility_constraints,
)
from repro.compact.solver import SolveStats, solve_longest_path
from repro.geometry import Box
from repro.layout.database import FlatLayout

#: band-scan method name -> :func:`naive_constraints` options
NAIVE_METHODS = {
    "naive": {},
    "naive-indiscriminate": {"merge_aware": False},
    "naive-skip-hidden": {"skip_hidden": True},
}


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


def naive_constraints(
    system: ConstraintSystem,
    boxes: EdgeBoxes,
    rules: DesignRules,
    skip_hidden: bool = False,
    merge_aware: bool = True,
) -> int:
    """Band-scan generation: all facing pairs in a y band.

    Returns the number of spacing constraints generated.

    ``merge_aware=False`` reproduces the indiscriminate generator of
    Figure 6.5: abutting same-layer boxes (fragmented wires) receive
    spacing constraints instead of connection constraints, forcing a
    fragmented wire to n times the minimum pitch.

    ``skip_hidden=True`` drops a facing pair whenever a third box of the
    same layer covers the gap over the pair's full shared y band — the
    overly clever heuristic that misses the *partially* hidden edge of
    Figure 6.6 and produces an illegal layout.

    Pairs are visited as the band scan visits them — boxes sorted by
    ``xmin`` (ties in input order), every ``(i, j > i)`` — in blocks of
    rows classified with column arithmetic; rows are emitted in visit
    order, three per connected pair and one per spaced pair.
    """
    count = boxes.count
    if count < 2:
        return 0
    arrays = boxes.arrays
    order = arrays.xmin.argsort(kind="stable")
    xmin, xmax = arrays.xmin[order], arrays.xmax[order]
    ymin, ymax = arrays.ymin[order], arrays.ymax[order]
    codes = boxes.codes[order]
    spacing_matrix = _spacing_matrix(rules, boxes.layers)
    firsts, seconds, connects = [], [], []
    step = max(1, 250_000 // count)
    later = np.arange(count)[None, :]
    for low in range(0, count - 1, step):
        rows = np.arange(low, min(count - 1, low + step))[:, None]
        i, j = rows, later
        y_overlap = np.minimum(ymax[i], ymax[j]) > np.maximum(ymin[i], ymin[j])
        same = codes[i] == codes[j]
        closed = (
            (xmin[i] <= xmax[j]) & (xmin[j] <= xmax[i])
            & (ymin[i] <= ymax[j]) & (ymin[j] <= ymax[i])
        )
        opened = (
            (xmin[i] < xmax[j]) & (xmin[j] < xmax[i])
            & (ymin[i] < ymax[j]) & (ymin[j] < ymax[i])
        )
        touching = same & closed & ~opened
        connect = same & closed
        if not merge_aware:
            connect &= ~touching
        # Sorted by xmin, so box i is the left box of the pair: its gap
        # to j is open unless they cross (touching same-layer boxes are
        # spaced when the generator is not merge-aware).
        spaced = (
            ~connect & (spacing_matrix[codes[i], codes[j]] >= 0)
            & ((xmin[j] > xmax[i]) | touching)
        )
        event = (j > i) & y_overlap & (connect | spaced)
        row, column = np.nonzero(event)
        firsts.append(row + low)
        seconds.append(column)
        connects.append(connect[row, column])
    first = np.concatenate(firsts)
    second = np.concatenate(seconds)
    connect = np.concatenate(connects)
    if skip_hidden:
        keep = np.ones(first.size, dtype=bool)
        for event in np.flatnonzero(~connect).tolist():
            keep[event] = not _gap_covered(
                xmin, xmax, ymin, ymax, codes, first[event], second[event]
            )
        first, second, connect = first[keep], second[keep], connect[keep]
    # Back to box indices, then rows in visit order.
    first, second = order[first], order[second]
    per_event = np.where(connect, 3, 1)
    start = np.cumsum(per_event) - per_event
    total = int(per_event.sum())
    source, target, weight = (np.empty(total, dtype=np.int64) for _ in range(3))
    kind = np.full(total, SPACING, dtype=np.int64)
    linked = (start[connect][:, None] + np.arange(3)).ravel()
    (source[linked], target[linked], weight[linked]) = connection_rows(
        boxes, first[connect], second[connect], _width_table(rules, boxes.layers)
    )
    kind[linked] = CONNECT
    spaced = ~connect
    at = start[spaced]
    source[at] = boxes.right[first[spaced]]
    target[at] = boxes.left[second[spaced]]
    weight[at] = spacing_matrix[boxes.codes[first[spaced]], boxes.codes[second[spaced]]]
    system.extend(source, target, weight, kind)
    return int(spaced.sum())


def _gap_covered(xmin, xmax, ymin, ymax, codes, left, right) -> bool:
    """The (buggy) hidden-edge test of Figure 6.6.

    Decides hidden-ness where the pair first enters the horizontal band
    scan — the bottom of the shared y range — so a box that covers the
    gap at ``y1`` but not at ``y2`` wrongly suppresses the constraint.
    Indices are positions in the columns given.
    """
    y0 = max(ymin[left], ymin[right])
    cover = (
        (codes == codes[left]) & (xmin <= xmax[left]) & (xmax >= xmin[right])
        & (ymin <= y0) & (y0 < ymax)
    )
    cover[left] = cover[right] = False
    return bool(cover.any())


class Pass(NamedTuple):
    """A :func:`compact` run: the solved boxes, the system and its solve,
    and ``repro.compact.CompactionResult``'s fields of the same name."""

    layers: Dict[str, List[Box]]
    system: ConstraintSystem
    stats: SolveStats
    spacing_constraints: int
    width_before: int
    width_after: int

    @property
    def constraint_count(self) -> int:
        return len(self.system)


def compact(
    layout,
    rules: DesignRules,
    method: str = "visibility",
    width_mode: str = "preserve",
    axis: str = "x",
    merge: bool = False,
    sizing: Optional[Dict[Tuple[str, str], int]] = None,
    sort_edges: bool = True,
) -> Pass:
    """One flat pass over ``layout`` (a ``FlatLayout`` or ``(layer, Box)``
    pairs) along ``axis``; a y pass transposes the boxes.

    ``method`` is ``"visibility"`` or a :data:`NAIVE_METHODS` name;
    ``merge`` compacts ``layout.merged()`` (section 6.4.1's
    preprocessing), but ``width_before`` is the drawn extent; every box
    is tagged ``""``, so ``sizing`` keys read ``("", layer)``.
    """
    if not isinstance(layout, FlatLayout):
        pairs, layout = layout, FlatLayout("pairs")
        for layer, box in pairs:
            layout.add(layer, box)
    drawn = layout.bounding_box()
    if merge:
        layout = layout.merged()
    pairs = [
        (layer, box if axis == "x" else Box(box.ymin, box.xmin, box.ymax, box.xmax))
        for layer, boxes in sorted(layout.layers.items())
        for box in boxes
    ]
    system, boxes = build_edge_variables(pairs)
    add_width_constraints(system, boxes, rules, mode=width_mode, sizing=sizing)
    if method == "visibility":
        spacing = visibility_constraints(system, boxes, rules)
    else:
        spacing = naive_constraints(system, boxes, rules, **NAIVE_METHODS[method])
    stats = solve_longest_path(system, sort_edges=sort_edges)
    values = stats.values
    width_before = 0 if drawn is None else drawn.width if axis == "x" else drawn.height
    return Pass(
        rebuild_boxes(solved_columns(boxes, values, axis=axis)), system, stats, spacing,
        width_before, max(values) - min(values) if values else 0,
    )
