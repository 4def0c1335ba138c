"""Constraint generation by scanning (section 6.4.1).

Two generators are provided, matching the paper's narrative:

* :func:`naive_constraints` — the horizontal-band scan the author first
  built: every facing pair of edges within a y band receives a spacing
  constraint.  With ``skip_hidden=True`` it tries to be "smart" about
  hidden edges and reproduces the Figure 6.6 bug (a partially hidden
  edge pair whose constraint is missed); with ``skip_hidden=False`` it
  overconstrains fragmented layouts (Figure 6.5: n abutting boxes are
  forced to n times the minimum width).

* :func:`visibility_constraints` — the "correct scan line method" of
  Figure 6.7: a vertical line sweeps left to right carrying, per layer,
  what a viewer on the line looking left would see; constraints are
  generated only against visible material.  Hidden edges never appear,
  so box merging is implicitly taken care of.

Both generators also emit width constraints and connection-preserving
constraints for same-layer overlapping boxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import Box, batch
from .constraints import Constraint, ConstraintSystem
from .rules import DesignRules, RuleTables

__all__ = [
    "CompactionBox",
    "build_edge_variables",
    "naive_constraints",
    "visibility_constraints",
    "visibility_constraints_reference",
    "rebuild_boxes",
]


@dataclass
class CompactionBox:
    """A box whose vertical edges are compaction variables."""

    layer: str
    box: Box
    left: str
    right: str
    #: provenance tag (cell name, instance id...) for sizing directives
    tag: str = ""


def build_edge_variables(
    boxes: Sequence[Tuple[str, Box]],
    system: Optional[ConstraintSystem] = None,
    prefix: str = "e",
    tags: Optional[Sequence[str]] = None,
) -> Tuple[ConstraintSystem, List[CompactionBox]]:
    """Create left/right variables for each (layer, box) pair."""
    if system is None:
        system = ConstraintSystem()
    result: List[CompactionBox] = []
    for index, (layer, box) in enumerate(boxes):
        left = system.add_variable(f"{prefix}{index}.l", initial=box.xmin)
        right = system.add_variable(f"{prefix}{index}.r", initial=box.xmax)
        tag = tags[index] if tags else ""
        result.append(CompactionBox(layer, box, left, right, tag))
    return system, result


def add_width_constraints(
    system: ConstraintSystem,
    boxes: Sequence[CompactionBox],
    rules: DesignRules,
    mode: str = "preserve",
    sizing: Optional[Dict[Tuple[str, str], int]] = None,
) -> None:
    """Width constraints per box.

    ``mode="preserve"`` pins each box to its drawn width; ``mode="min"``
    only enforces the rule minimum (widths collapse during technology
    transport).  ``sizing`` maps ``(tag, layer)`` to an explicit minimum
    width — the device/bus sizing mechanism of section 6.4.1 (tagged
    cells whose instances the compactor must size).
    """
    sizing = sizing or {}
    for item in boxes:
        directive = sizing.get((item.tag, item.layer))
        if mode == "preserve" and directive is None:
            system.require_equal(item.left, item.right, item.box.width)
            continue
        minimum = rules.width(item.layer)
        if directive is not None:
            minimum = max(minimum, directive)
        if mode == "preserve":
            minimum = max(minimum, item.box.width)
        system.add(item.left, item.right, minimum, kind="width")


def _y_overlap(a: Box, b: Box) -> bool:
    """Positive-measure vertical overlap."""
    return min(a.ymax, b.ymax) > max(a.ymin, b.ymin)


def _connected(a: CompactionBox, b: CompactionBox) -> bool:
    """Same layer and touching/overlapping in the drawn layout."""
    return a.layer == b.layer and a.box.overlaps(b.box)


def _add_connection(
    system: ConstraintSystem,
    a: CompactionBox,
    b: CompactionBox,
    rules: DesignRules,
    tables: Optional[RuleTables] = None,
) -> None:
    """Preserve electrical contact between two drawn-connected boxes.

    The x overlap must stay at least ``min(drawn overlap, rule width)``
    and the edge order of the pair is preserved, so connected chains
    stay chains.  ``tables`` short-circuits the width lookup when the
    caller has memoized the rule set.
    """
    width = tables.width[a.layer] if tables is not None else rules.width(a.layer)
    overlap = min(a.box.xmax, b.box.xmax) - max(a.box.xmin, b.box.xmin)
    keep = max(0, min(overlap, width))
    left_box, right_box = (a, b) if a.box.xmin <= b.box.xmin else (b, a)
    # order: left stays left
    system.add(left_box.left, right_box.left, 0, kind="connect")
    system.add(left_box.right, right_box.right, 0, kind="connect")
    # overlap: right box's left edge at most (left box's right - keep)
    system.add(right_box.left, left_box.right, keep, kind="connect")


def naive_constraints(
    system: ConstraintSystem,
    boxes: Sequence[CompactionBox],
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
    """
    count = 0
    items = sorted(boxes, key=lambda item: item.box.xmin)
    tables = rules.tables({item.layer for item in items})
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            if not _y_overlap(a.box, b.box):
                continue
            touching = (
                a.layer == b.layer
                and a.box.overlaps(b.box)
                and not a.box.overlaps_open(b.box)
            )
            if _connected(a, b) and (merge_aware or not touching):
                _add_connection(system, a, b, rules, tables)
                continue
            spacing = tables.spacing[a.layer, b.layer]
            if spacing is None:
                continue
            left_box, right_box = (a, b) if a.box.xmin <= b.box.xmin else (b, a)
            gap_lo = left_box.box.xmax
            gap_hi = right_box.box.xmin
            if gap_hi <= gap_lo and not touching:
                # Drawn crossing or contact of different layers is
                # intentional.
                continue
            if skip_hidden and _gap_covered(items, a.layer, left_box, right_box):
                continue
            system.add(left_box.right, right_box.left, spacing, kind="spacing")
            count += 1
    return count


def _gap_covered(
    items: Sequence[CompactionBox],
    layer: str,
    left_box: CompactionBox,
    right_box: CompactionBox,
) -> bool:
    """The (buggy) hidden-edge test of Figure 6.6.

    Decides hidden-ness where the pair first enters the horizontal band
    scan — the bottom of the shared y range — so a box that covers the
    gap at ``y1`` but not at ``y2`` wrongly suppresses the constraint.
    """
    y0 = max(left_box.box.ymin, right_box.box.ymin)
    for other in items:
        if other is left_box or other is right_box or other.layer != layer:
            continue
        if (
            other.box.xmin <= left_box.box.xmax
            and other.box.xmax >= right_box.box.xmin
            and other.box.ymin <= y0 < other.box.ymax
        ):
            return True
    return False


def visibility_constraints(
    system: ConstraintSystem,
    boxes: Sequence[CompactionBox],
    rules: DesignRules,
) -> int:
    """The correct vertical-scan method (Figure 6.7).

    A vertical line sweeps left to right carrying, per layer, the
    visible front: what a viewer on the line looking left sees.
    Spacing constraints are generated only between a box and the front
    segments it faces; shadowed material is skipped because any
    constraint against it is implied transitively through the
    shadowing box.  Returns the number of spacing constraints
    generated.

    :func:`repro.geometry.batch.visible_pairs` computes every
    (visible, viewer) pair the sequential front would have produced in
    one offline segmented scan; pairs are then classified with masked
    column arithmetic and the spacing rows are emitted as one bulk
    ``Constraint`` batch.  Connection pairs (a handful per layout) go
    through :func:`_add_connection` so the overlap arithmetic lives in
    exactly one place.  Emits the exact constraint multiset of
    :func:`visibility_constraints_reference`.
    """
    items = list(boxes)
    count = len(items)
    if count < 2:
        return 0
    layer_names = sorted({item.layer for item in items})
    tables = rules.tables(layer_names)
    code_of = {name: index for index, name in enumerate(layer_names)}
    depth = len(layer_names)
    spacing_matrix = np.full((depth, depth), -1, dtype=np.int64)
    for (name_a, name_b), value in tables.spacing.items():
        if value is not None:
            spacing_matrix[code_of[name_a], code_of[name_b]] = value
    allowed = spacing_matrix >= 0
    arrays = batch.boxes_to_arrays([item.box for item in items])
    codes = np.fromiter(
        (code_of[item.layer] for item in items), dtype=np.int64, count=count
    )
    visible, viewer = batch.visible_pairs(arrays, codes, allowed)
    if visible.size == 0:
        return 0
    # The viewer arrived after the visible box, so visible.xmin <=
    # viewer.xmin and the stab guarantees positive y overlap: connected
    # reduces to closed x contact, the crossing test to a.xmax >= b.xmin.
    a_xmax = arrays.xmax[visible]
    b_xmin = arrays.xmin[viewer]
    connected = (codes[visible] == codes[viewer]) & (a_xmax >= b_xmin)
    weights = spacing_matrix[codes[visible], codes[viewer]]
    spaced = ~connected & (weights >= 0) & (a_xmax < b_xmin)
    for a_index, b_index in zip(
        visible[connected].tolist(), viewer[connected].tolist()
    ):
        _add_connection(system, items[a_index], items[b_index], rules, tables)
    spaced_indices = np.flatnonzero(spaced)
    if spaced_indices.size:
        sources = [items[i].right for i in visible[spaced_indices].tolist()]
        targets = [items[i].left for i in viewer[spaced_indices].tolist()]
        system.constraints.extend(
            Constraint(source, target, weight, (), "spacing")
            for source, target, weight in zip(
                sources, targets, weights[spaced_indices].tolist()
            )
        )
    return int(spaced_indices.size)


def visibility_constraints_reference(
    system: ConstraintSystem,
    boxes: Sequence[CompactionBox],
    rules: DesignRules,
) -> int:
    """The interpreted visibility scan, retained as the equivalence oracle.

    Semantically identical to :func:`visibility_constraints` but keeps
    a flat-list front per layer that rescans every segment of every
    layer per box and re-sorts the whole front on every insert — the
    quadratic behaviour the array build removes.  Property tests and
    benchmarks compare the two implementations.
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


def rebuild_boxes(
    boxes: Sequence[CompactionBox], solution: Dict[str, int]
) -> List[Tuple[str, Box]]:
    """Apply a solved x assignment back to (layer, box) pairs."""
    rebuilt = []
    for item in boxes:
        rebuilt.append(
            (
                item.layer,
                Box(
                    solution[item.left],
                    item.box.ymin,
                    solution[item.right],
                    item.box.ymax,
                ),
            )
        )
    return rebuilt
