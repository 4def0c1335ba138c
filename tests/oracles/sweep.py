"""Interpreted sweep-line primitives the geometry oracles are written in.

The program's geometry passes run on flat arrays
(``repro.geometry.batch``).  These are the plane-sweep pieces of their
oracles:

* :func:`slab_decompose` — a y-event sweep that carries an active
  interval set per layer and yields merged x runs per slab, touching
  only the material that is actually live instead of rescanning every
  box per slab; the extraction mask walk of ``oracles/extract.py``
  drains it;
* interval-set utilities (:func:`merge_intervals`,
  :func:`subtract_intervals`).

Everything here works on closed integer intervals where *touching*
intervals coalesce — the semantics shared by box merging and run
construction throughout the code base.
"""

from bisect import bisect_left, insort
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.geometry import Box

Interval = Tuple[int, int]


# ----------------------------------------------------------------------
# Interval-set utilities
# ----------------------------------------------------------------------
def merge_intervals(intervals: Iterable[Interval]) -> List[Interval]:
    """Union of intervals; overlapping or touching intervals coalesce.

    Returns a sorted list of disjoint ``(lo, hi)`` tuples.  Empty
    intervals (``hi <= lo``) are dropped.
    """
    result: List[Interval] = []
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if result and lo <= result[-1][1]:
            if hi > result[-1][1]:
                result[-1] = (result[-1][0], hi)
        else:
            result.append((lo, hi))
    return result


def subtract_intervals(
    base: Iterable[Interval], cuts: Iterable[Interval]
) -> List[Interval]:
    """Remove ``cuts`` from ``base``; both are interval iterables.

    Returns the sorted remainder of the (merged) base intervals.
    """
    remaining = merge_intervals(base)
    for c0, c1 in merge_intervals(cuts):
        next_remaining: List[Interval] = []
        for lo, hi in remaining:
            if c1 <= lo or c0 >= hi:
                next_remaining.append((lo, hi))
                continue
            if lo < c0:
                next_remaining.append((lo, c0))
            if hi > c1:
                next_remaining.append((c1, hi))
        remaining = next_remaining
    return remaining


# ----------------------------------------------------------------------
# Slab decomposition
# ----------------------------------------------------------------------
def slab_decompose(
    layers: Dict[str, Sequence[Box]],
) -> Iterator[Tuple[int, int, Dict[str, List[Interval]]]]:
    """Sweep the y event grid; yield per-slab merged x runs per layer.

    The event grid is every distinct ``ymin``/``ymax`` over *all* boxes
    of *all* layers (degenerate boxes contribute grid lines but no
    material), matching the slab semantics of
    ``repro.geometry.batch.slab_grid``.  For each consecutive grid pair ``(y0, y1)`` the yielded
    dict maps every layer name to the sorted merged x intervals of its
    boxes fully covering the slab.

    Boxes enter the active set at their ``ymin`` and leave at their
    ``ymax``; per layer the active intervals are kept sorted by bisect
    insertion and the merged runs are recomputed only when that layer's
    active set changed — so the total work is ``O(n log n)`` event
    maintenance plus output-sensitive run merging, instead of the
    ``O(slabs x boxes)`` rescan of the naive formulation.

    The yielded run lists are reused between slabs for unchanged
    layers: treat them as read-only and snapshot (``tuple(runs)``) when
    retaining them past one iteration.
    """
    grid: set = set()
    adds: Dict[int, List[Tuple[str, Interval]]] = {}
    removes: Dict[int, List[Tuple[str, Interval]]] = {}
    for name, boxes in layers.items():
        for box in boxes:
            grid.add(box.ymin)
            grid.add(box.ymax)
            if box.ymax > box.ymin and box.xmax > box.xmin:
                interval = (box.xmin, box.xmax)
                adds.setdefault(box.ymin, []).append((name, interval))
                removes.setdefault(box.ymax, []).append((name, interval))
    ys = sorted(grid)
    active: Dict[str, List[Interval]] = {name: [] for name in layers}
    runs: Dict[str, List[Interval]] = {name: [] for name in layers}
    for y0, y1 in zip(ys, ys[1:]):
        dirty = set()
        for name, interval in removes.get(y0, ()):
            intervals = active[name]
            intervals.pop(bisect_left(intervals, interval))
            dirty.add(name)
        for name, interval in adds.get(y0, ()):
            insort(active[name], interval)
            dirty.add(name)
        for name in dirty:
            runs[name] = merge_intervals(active[name])
        yield y0, y1, runs
