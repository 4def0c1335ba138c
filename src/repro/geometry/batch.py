"""Numpy batch geometry kernel: flat arrays for the plane-sweep passes.

Every geometry pass — the Figure 6.7 visibility scan, DRC, box
merging, wire extraction and mask-level netlist extraction — runs its
plane sweep on this module.  Interpreted sweeps pay microseconds per box
in bisect churn, per-box constraint emission and per-slab interval
merging; here those loops are restructured around flat int64 arrays:

* one :func:`boxes_to_arrays` bulk export per pass (objects are touched
  once, not once per comparison);
* sorted event vectors and ``searchsorted``/masking instead of bisect
  loops (:func:`merged_slab_runs`, :func:`overlap_pairs`,
  :func:`touching_pairs`, :func:`runs_intersect`, :func:`runs_subtract`);
* segmented scans (:func:`segmented_cummax`) for the per-slab run merge
  and for the visibility front, which collapses to a running
  ``(xmax, arrival)`` argmax per elementary y slab
  (:func:`visible_pairs`);
* batch decoding back to ``Box``/constraint/violation objects only at
  the boundary (:func:`boxes_from_arrays`).

Each consumer is the production build of its pass, with an interpreted
``*_reference`` build retained as its equivalence oracle.  The results
are *identical*, not merely equivalent: the same constraint multisets,
merged boxes, violation multisets, and extracted components, enforced
by ``tests/test_sweep_equivalence.py``.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from .box import Box

__all__ = [
    "kernel_name",
    "BoxArray",
    "boxes_to_arrays",
    "boxes_from_arrays",
    "unique_sorted",
    "segmented_cummax",
    "merged_slab_runs",
    "slab_grid",
    "visible_pairs",
    "overlap_pairs",
    "touching_pairs",
    "expand_ranges",
    "runs_intersect",
    "runs_subtract",
]


def kernel_name() -> str:
    """The geometry kernel every pass runs on: always ``"numpy"``.

    Kept as a function so benchmark provenance stamps can name the
    kernel their timing rows were measured on.
    """
    return "numpy"


# ----------------------------------------------------------------------
# The object <-> array boundary
# ----------------------------------------------------------------------
class BoxArray:
    """A struct-of-arrays view of a ``Box`` list: four int64 vectors.

    The batch kernel's unit of exchange: geometry crosses from objects
    to arrays exactly once per pass (:func:`boxes_to_arrays`) and back
    at most once (:func:`boxes_from_arrays`, for geometry a caller
    keeps); everything in between is column arithmetic.
    """

    __slots__ = ("xmin", "ymin", "xmax", "ymax")

    def __init__(self, xmin, ymin, xmax, ymax) -> None:
        self.xmin = xmin
        self.ymin = ymin
        self.xmax = xmax
        self.ymax = ymax

    def __len__(self) -> int:
        return int(self.xmin.shape[0])


def boxes_to_arrays(boxes: Sequence[Box]) -> BoxArray:
    """Bulk-export a ``Box`` sequence into a :class:`BoxArray`.

    Four list-comprehension column reads — each coordinate is touched
    once, and the int64 conversion happens in one C call per column;
    this is the only per-object work a batch pass pays on its input
    side (measurably faster than a single ``fromiter`` interleave).
    """
    return BoxArray(
        np.array([box.xmin for box in boxes], dtype=np.int64),
        np.array([box.ymin for box in boxes], dtype=np.int64),
        np.array([box.xmax for box in boxes], dtype=np.int64),
        np.array([box.ymax for box in boxes], dtype=np.int64),
    )


_box_new = Box.__new__
_box_set = object.__setattr__


def boxes_from_arrays(xmin, ymin, xmax, ymax) -> List[Box]:
    """Decode coordinate columns back into ``Box`` objects.

    The columns must already be normalised (``xmin <= xmax``,
    ``ymin <= ymax``) — true for everything the kernel produces — so the
    constructor's normalisation pass is skipped; the loop body inlines
    the attribute stores to keep the per-box cost to one allocation
    plus four slot writes.
    """
    new, store = _box_new, _box_set
    result: List[Box] = []
    append = result.append
    for x0, y0, x1, y1 in zip(
        xmin.tolist(), ymin.tolist(), xmax.tolist(), ymax.tolist()
    ):
        box = new(Box)
        store(box, "xmin", x0)
        store(box, "ymin", y0)
        store(box, "xmax", x1)
        store(box, "ymax", y1)
        append(box)
    return result


# ----------------------------------------------------------------------
# Segmented scans and the slab-run primitive
# ----------------------------------------------------------------------
def unique_sorted(values):
    """Sorted distinct values — ``np.unique`` minus its slow path.

    ``np.unique`` costs ~20x a plain sort on the few-thousand-element
    int64 vectors the kernel dedups (event grids, pair codes), so this
    is the hot-loop replacement: one sort plus a neighbour mask.
    """
    if values.size == 0:
        return values
    ordered = values.copy()
    ordered.sort()
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def segmented_cummax(groups, values):
    """Running maximum of ``values`` within each contiguous group run.

    ``groups`` must be non-decreasing (sorted); the result at position
    ``i`` is ``max(values[j] for j in i's group, j <= i)``.  Uses the
    group-offset trick (one ``maximum.accumulate`` over
    ``group * span + value``) directly while ``groups x span`` fits in
    int64; otherwise values are ranked first so the offsets cannot
    overflow regardless of the coordinate range.
    """
    if values.size == 0:
        return values
    group_start = np.empty(groups.size, dtype=bool)
    group_start[0] = True
    np.not_equal(groups[1:], groups[:-1], out=group_start[1:])
    group_ids = group_start.cumsum() - 1
    floor = int(values.min())
    span = int(values.max()) - floor + 1
    if int(group_ids[-1]) * span < 2**62:
        offsets = group_ids * np.int64(span)
        keyed = offsets + (values - floor)
        return np.maximum.accumulate(keyed) - offsets + floor
    unique_values, ranks = np.unique(values, return_inverse=True)
    pad = np.int64(ranks.size + 1)
    keyed = group_ids * pad + ranks
    running = np.maximum.accumulate(keyed) - group_ids * pad
    return unique_values[running]


def slab_grid(arrays: Iterable[BoxArray]):
    """The sorted distinct y event grid over several box collections.

    Every ``ymin``/``ymax`` contributes a grid line — degenerate boxes
    included, matching :func:`repro.geometry.sweep.slab_decompose` —
    and slab ``k`` spans ``(ys[k], ys[k+1])``.
    """
    columns = [column for a in arrays for column in (a.ymin, a.ymax)]
    if not columns:
        return np.empty(0, dtype=np.int64)
    return unique_sorted(np.concatenate(columns))


def _slab_incidence(ys, boxes: BoxArray):
    """Expand material boxes into (entry -> box index, slab index) rows.

    Only positive-area boxes produce material, matching the sweep
    kernel.  Returns ``(box_index, slab)`` arrays, one row per
    (box, covered slab) pair.
    """
    material = (boxes.ymax > boxes.ymin) & (boxes.xmax > boxes.xmin)
    indices = np.flatnonzero(material)
    first = np.searchsorted(ys, boxes.ymin[indices])
    last = np.searchsorted(ys, boxes.ymax[indices])
    counts = last - first
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    box_index = np.repeat(indices, counts)
    bases = np.repeat(np.cumsum(counts) - counts, counts)
    slab = np.repeat(first, counts) + (np.arange(total, dtype=np.int64) - bases)
    return box_index, slab


def merged_slab_runs(ys, boxes: BoxArray):
    """All-slab merged x runs of one layer, as flat arrays.

    Returns ``(slab, x0, x1)`` sorted by ``(slab, x0)``: the disjoint
    (touching-coalesced) x intervals of the layer's material per
    elementary slab of the ``ys`` grid — the batch equivalent of
    draining :func:`repro.geometry.sweep.slab_decompose` for one layer.
    """
    box_index, slab = _slab_incidence(ys, boxes)
    empty = np.empty(0, dtype=np.int64)
    if box_index.size == 0:
        return empty, empty, empty
    x0 = boxes.xmin[box_index]
    x1 = boxes.xmax[box_index]
    # Sort by (slab, x0); the x1 order within ties cannot affect the run
    # boundaries (material implies x1 > x0, so a tied entry never starts
    # a run) nor the reduceat maxima, so one composite-key argsort
    # suffices when the key fits in int64.
    base = int(x0.min())
    span = int(x1.max()) - base + 1
    if int(ys.size) * span < 2**62:
        order = np.argsort(slab * np.int64(span) + (x0 - base))
    else:
        order = np.lexsort((x0, slab))
    slab, x0, x1 = slab[order], x0[order], x1[order]
    running = segmented_cummax(slab, x1)
    starts = np.empty(slab.size, dtype=bool)
    starts[0] = True
    starts[1:] = (slab[1:] != slab[:-1]) | (x0[1:] > running[:-1])
    start_indices = np.flatnonzero(starts)
    return (
        slab[start_indices],
        x0[start_indices],
        np.maximum.reduceat(x1, start_indices),
    )


# ----------------------------------------------------------------------
# Keyed interval algebra over (slab, x0, x1) run vectors
# ----------------------------------------------------------------------
def _run_events(slab, x0, x1, weight):
    """(slab, coordinate, depth-delta) event triples for a run set."""
    doubled = np.concatenate([slab, slab])
    coords = np.concatenate([x0, x1])
    deltas = np.empty(coords.size, dtype=np.int64)
    deltas[: x0.size] = weight
    deltas[x0.size:] = -weight
    return doubled, coords, deltas


def _boolean_runs(target, slab_a, a0, a1, slab_b, b0, b1):
    """Slab-keyed boolean combination of two disjoint run sets.

    Sweeps the merged event vector per slab tracking coverage depth
    (``a`` contributes 1, ``b`` contributes 2) and keeps the positive-
    length segments whose depth equals ``target``: 3 for intersection,
    1 for subtraction (``a`` minus ``b``).
    """
    sa, ca, da = _run_events(slab_a, a0, a1, 1)
    sb, cb, db = _run_events(slab_b, b0, b1, 2)
    slab = np.concatenate([sa, sb])
    coords = np.concatenate([ca, cb])
    deltas = np.concatenate([da, db])
    empty = np.empty(0, dtype=np.int64)
    if slab.size == 0:
        return empty, empty, empty
    order = np.lexsort((coords, slab))
    slab, coords, deltas = slab[order], coords[order], deltas[order]
    depth = np.cumsum(deltas)
    keep = np.empty(slab.size, dtype=bool)
    keep[-1] = False
    keep[:-1] = (
        (depth[:-1] == target)
        & (slab[1:] == slab[:-1])
        & (coords[1:] > coords[:-1])
    )
    indices = np.flatnonzero(keep)
    return slab[indices], coords[indices], coords[indices + 1]


def runs_intersect(slab_a, a0, a1, slab_b, b0, b1):
    """Positive-length intersection of two slab-keyed run sets."""
    return _boolean_runs(3, slab_a, a0, a1, slab_b, b0, b1)


def runs_subtract(slab_a, a0, a1, slab_b, b0, b1):
    """Slab-keyed set difference ``a - b`` of two disjoint run sets."""
    return _boolean_runs(1, slab_a, a0, a1, slab_b, b0, b1)


def expand_ranges(lo, hi):
    """Expand per-query ``[lo, hi)`` index windows into flat pairs.

    Returns ``(query_index, hit_index)`` — the vectorised equivalent of
    ``for i: for j in range(lo[i], hi[i])``.
    """
    counts = np.maximum(hi - lo, 0)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    query = np.arange(lo.size, dtype=np.int64).repeat(counts)
    bases = (counts.cumsum() - counts).repeat(counts)
    hits = np.arange(total, dtype=np.int64) - bases + lo.repeat(counts)
    return query, hits


def _slab_keys(slab, coords, span, base):
    """Monotone composite (slab, coordinate) sort keys."""
    return slab * span + (coords - base)


def overlap_pairs(slab_a, a0, a1, slab_b, b0, b1, closed=False):
    """Index pairs of runs sharing a slab and overlapping in x.

    The ``b`` runs must be disjoint per slab and sorted by
    ``(slab, x0)`` (the order :func:`merged_slab_runs` produces), which
    makes the overlap window of each ``a`` run a contiguous index range
    found by two ``searchsorted`` probes.  ``closed=True`` counts runs
    that merely share an endpoint; the default requires positive
    overlap.  Returns ``(a_index, b_index)`` arrays.
    """
    empty = np.empty(0, dtype=np.int64)
    if slab_a.size == 0 or slab_b.size == 0:
        return empty, empty
    base = int(min(a0.min(), b0.min()))
    top = int(max(a1.max(), b1.max()))
    span = np.int64(top - base + 2)
    b_start = _slab_keys(slab_b, b0, span, base)
    b_end = _slab_keys(slab_b, b1, span, base)
    key_a0 = _slab_keys(slab_a, a0, span, base)
    key_a1 = _slab_keys(slab_a, a1, span, base)
    if closed:
        lo = np.searchsorted(b_end, key_a0, side="left")
        hi = np.searchsorted(b_start, key_a1, side="right")
    else:
        lo = np.searchsorted(b_end, key_a0, side="right")
        hi = np.searchsorted(b_start, key_a1, side="left")
    return expand_ranges(lo, hi)


def touching_pairs(arrays: BoxArray, layer_codes):
    """Index pairs ``(i, j)``, ``i < j``, of same-layer boxes that meet.

    Boxes meet when their closed rectangles intersect, edge and corner
    contact included (:meth:`repro.geometry.Box.overlaps`).  Per layer,
    every box is entered in each horizontal band of height ``H`` (the
    layer's median box height) that its closed y extent reaches.  Within
    a band (all layers' bands are sorted together, by layer, band and
    ``xmin``), a box's candidates are the later entries
    starting inside its closed x extent — one ``searchsorted`` window,
    expanded by :func:`expand_ranges` — then filtered on y.  A pair that
    shares several bands is kept only in the band holding the higher of
    the two ``ymin``, a y both boxes reach.  Candidates are thus the
    boxes of nearby bands, not of a whole column of the layout, so the
    work grows with the box count rather than its square (or its 1.5th
    power for a one-axis sweep of a square array).  Returns ``(i, j)``
    arrays sorted lexicographically: the order of the nested
    ``for i: for j > i`` scan.
    """
    empty = np.empty(0, dtype=np.int64)
    count = len(arrays)
    if count < 2:
        return empty, empty
    xmin, ymin, xmax, ymax = arrays.xmin, arrays.ymin, arrays.xmax, arrays.ymax
    # Band height per layer: the median box height, floored (heights
    # are non-negative), and at least 1.
    sizes = np.bincount(layer_codes)
    if sizes.max() < 2:
        return empty, empty
    heights = ymax - ymin
    by_layer = np.lexsort((heights, layer_codes))
    starts = sizes.cumsum() - sizes
    last = count - 1
    low = heights[by_layer[np.minimum(starts + (sizes - 1) // 2, last)]]
    high = heights[by_layer[np.minimum(starts + sizes // 2, last)]]
    height = np.maximum((low + high) // 2, 1)[layer_codes]
    # Bands are numbered from the lowest box's band; all layers share
    # one sort over (layer, band, xmin) keys, so every layer's windows
    # come out of one pass.
    floor = int(ymin.min())
    offset = floor // height
    entry, band = expand_ranges(ymin // height - offset, ymax // height - offset + 1)
    group = layer_codes[entry] * (int(band.max()) + 1) + band
    order = np.lexsort((xmin[entry], group))
    entry, band, group = entry[order], band[order], group[order]
    base = int(xmin.min())
    span = np.int64(int(xmax.max()) - base + 1)
    keys = group * span
    ends = (keys + (xmin[entry] - base)).searchsorted(
        keys + (xmax[entry] - base), side="right"
    )
    # Sorted position p's candidates are positions p+1 .. ends[p]-1.
    first, second = expand_ranges(np.arange(1, entry.size + 1, dtype=np.int64), ends)
    a, b = entry[first], entry[second]
    keep = (
        (ymin[a] <= ymax[b])
        & (ymin[b] <= ymax[a])
        & (np.maximum(ymin[a], ymin[b]) // height[a] - offset[a] == band[first])
    )
    a, b = a[keep], b[keep]
    if a.size == 0:
        return empty, empty
    pairs = np.minimum(a, b) * np.int64(count) + np.maximum(a, b)
    pairs.sort()
    return pairs // count, pairs % count


# ----------------------------------------------------------------------
# The Figure 6.7 visibility structure
# ----------------------------------------------------------------------
def visible_pairs(arrays: BoxArray, layer_codes, allowed=None):
    """Distinct (visible, viewer) box pairs of the Figure 6.7 scan.

    The sequential scan keeps, per layer, a y-sorted front where a new
    box replaces what it reaches past and is shadowed by what extends
    further right.  That update rule makes the front at any y the
    running ``(xmax, arrival)`` argmax over already-processed boxes of
    the layer covering y — so the whole visibility structure is
    computed offline.  For every front layer at once: expand the
    layer's boxes (front updaters) and every box that stabs the layer
    (viewers) into slab incidence rows over that front's own slab grid,
    in arrival order, take a segmented running argmax per slab, and the
    predecessor of each viewer row is exactly the segment the
    sequential stab would have returned there.

    ``allowed[front_layer, viewer_layer]`` (optional bool matrix over
    the ``layer_codes`` universe) skips viewer expansions the caller
    knows cannot emit — the cross-layer-no-rule skip of the sequential
    scan.  Same-layer viewing is always on.

    Returns ``(visible, viewer)`` index arrays into the input order,
    deduplicated, sorted by ``(viewer, visible)`` arrival; ``visible``
    was always processed (arrival order: ``(xmin, xmax)``, ties input-
    stable) before ``viewer``.  Pure geometry — classifying pairs into
    connection/spacing constraints is the caller's business.
    """
    count = len(arrays)
    empty = np.empty(0, dtype=np.int64)
    if count < 2:
        return empty, empty
    arrival_to_input = np.lexsort((arrays.xmax, arrays.xmin))
    ymin = arrays.ymin[arrival_to_input]
    ymax = arrays.ymax[arrival_to_input]
    layers = layer_codes[arrival_to_input]
    # Degenerate-height boxes stab nothing and update no front.
    solid = ymax > ymin
    # Priority of a front box is (xmax, arrival); ranking xmax keeps the
    # combined value decodable to the arrival index with one modulo.
    # 0 is reserved for "viewer only" entries, which never win the max.
    # searchsorted-left on the (duplicate-keeping) sorted vector is a
    # valid rank: equal xmax share the first-occurrence index.
    sorted_xmax = arrays.xmax.copy()
    sorted_xmax.sort()
    xmax_rank = sorted_xmax.searchsorted(arrays.xmax[arrival_to_input])
    priority = (
        xmax_rank * np.int64(count) + np.arange(count, dtype=np.int64) + 1
    )
    # One row per (front layer, participant): a box takes part in a
    # front when it is of that layer (an updater) or may view it, and
    # is solid.  Row-major nonzero keeps arrivals ascending per front.
    fronts = unique_sorted(layers)
    same = layers[None, :] == fronts[:, None]
    if allowed is None:
        participant = np.broadcast_to(solid, same.shape)
    else:
        participant = (same | allowed[fronts][:, layers]) & solid
    if participant.sum(axis=1).max() < 2:
        return empty, empty
    front, members = participant.nonzero()
    # Each front's slab grid is the distinct y of its participants;
    # keying y by front puts every grid in one sorted vector, so slab
    # ids are global and never shared between fronts.
    floor = int(ymin.min())
    span = np.int64(int(ymax.max()) - floor + 1)
    low = front * span + (ymin[members] - floor)
    high = front * span + (ymax[members] - floor)
    ys = unique_sorted(np.concatenate([low, high]))
    first = ys.searchsorted(low)
    counts = ys.searchsorted(high) - first
    total = int(counts.sum())
    entry = np.arange(members.size, dtype=np.int64).repeat(counts)
    bases = (counts.cumsum() - counts).repeat(counts)
    slab = first.repeat(counts) + np.arange(total, dtype=np.int64) - bases
    # Entries are generated in ascending arrival order per front, so a
    # stable sort on slab alone keeps arrivals ordered within each slab.
    order = slab.argsort(kind="stable")
    entry, slab = entry[order], slab[order]
    value = np.where(same[front, members], priority[members], 0)[entry]
    running = segmented_cummax(slab, value)
    follows = np.empty(entry.size, dtype=bool)
    follows[:1] = False
    follows[1:] = (slab[1:] == slab[:-1]) & (running[:-1] > 0)
    indices = follows.nonzero()[0]
    if indices.size == 0:
        return empty, empty
    visible = (running[indices - 1] - 1) % np.int64(count)
    viewer = members[entry[indices]]
    pairs = unique_sorted(viewer * np.int64(count) + visible)
    return (
        arrival_to_input[pairs % np.int64(count)],
        arrival_to_input[pairs // np.int64(count)],
    )
