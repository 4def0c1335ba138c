"""Constraint generation by scanning (section 6.4.1).

:func:`visibility_constraints` is the "correct scan line method" of
Figure 6.7: a vertical line sweeps left to right carrying, per layer,
what a viewer on the line looking left would see; constraints are
generated only against visible material.  Hidden edges never appear,
so box merging is implicitly taken care of.  The horizontal-band scan
the author built first, whose failures Figures 6.5 and 6.6 show, is
not part of the compactor: it lives with the test oracles
(``tests/oracles/scanline.py``), where the E-6.5/E-6.7 experiments run
it.

The scan also emits connection-preserving constraints for same-layer
overlapping boxes (:func:`connection_rows`), and
:func:`add_width_constraints` adds the width rows.  Boxes travel as the
columns of an :class:`EdgeBoxes`, and every generator appends whole
columns of variable ids to the :class:`ConstraintSystem`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import Box, batch
from .constraints import CONNECT, EQUAL, SPACING, WIDTH, ConstraintSystem
from .rules import DesignRules

__all__ = [
    "CompactionBox",
    "EdgeBoxes",
    "build_edge_variables",
    "add_width_constraints",
    "visibility_constraints",
    "rebuild_boxes",
    "solved_columns",
]


@dataclass
class CompactionBox:
    """One box whose vertical edges are compaction variables.

    A per-box *view* of :class:`EdgeBoxes` with the edge variables by
    name; the flat pass itself never builds one.
    """

    layer: str
    box: Box
    left: str
    right: str
    #: provenance tag (cell name, instance id...) for sizing directives
    tag: str = ""


class EdgeBoxes:
    """Boxes whose vertical edges are compaction variables, as columns.

    ``layers`` holds the sorted layer names and ``codes[i]`` indexes it
    for box ``i``; ``arrays`` holds the coordinates (during a pass, in
    the compaction frame, where x is the compacted axis);
    ``left[i]``/``right[i]``, set by :func:`build_edge_variables`, are the
    variable ids of box ``i``'s edges in ``system``; ``tags[i]`` indexes
    ``tag_names`` (the sizing provenance).  Indexing or iterating yields
    :class:`CompactionBox` views.
    """

    __slots__ = ("layers", "codes", "arrays", "count", "tag_names", "tags",
                 "system", "left", "right")

    def __init__(self, layers, codes, arrays, tag_names=("",), tags=None) -> None:
        self.layers: Tuple[str, ...] = tuple(layers)
        self.codes = codes
        self.arrays: batch.BoxArray = arrays
        self.count = int(codes.shape[0])
        self.tag_names: Tuple[str, ...] = tuple(tag_names)
        #: ``None`` when every box carries ``tag_names[0]``
        self.tags = tags
        self.system: Optional[ConstraintSystem] = None
        self.left = self.right = None

    @classmethod
    def from_pairs(
        cls,
        pairs: Sequence[Tuple[str, Box]],
        tags: Optional[Sequence[str]] = None,
    ) -> "EdgeBoxes":
        """Columns of ``(layer, Box)`` pairs, with optional per-box tags."""
        layers = sorted({layer for layer, _ in pairs})
        code_of = {name: code for code, name in enumerate(layers)}
        codes = np.array([code_of[layer] for layer, _ in pairs], dtype=np.int64)
        arrays = batch.boxes_to_arrays([box for _, box in pairs])
        if not tags:
            return cls(layers, codes, arrays)
        tag_names = sorted(set(tags))
        tag_of = {name: code for code, name in enumerate(tag_names)}
        return cls(layers, codes, arrays, tag_names,
                   np.array([tag_of[tag] for tag in tags], dtype=np.int64))

    def bind(self, system: ConstraintSystem, first: int) -> "EdgeBoxes":
        """These boxes with box ``i`` owning variables ``first + 2i`` and
        ``first + 2i + 1`` of ``system`` (a copy when already bound)."""
        bound = self
        if self.system is not None:
            bound = EdgeBoxes(self.layers, self.codes, self.arrays, self.tag_names,
                              self.tags)
        bound.system = system
        stop = first + 2 * self.count
        bound.left = np.arange(first, stop, 2, dtype=np.int64)
        bound.right = np.arange(first + 1, stop, 2, dtype=np.int64)
        return bound

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: int) -> CompactionBox:
        arrays = self.arrays
        names = self.system.variables if self.system is not None else None
        left = names[self.left[index]] if names is not None else ""
        right = names[self.right[index]] if names is not None else ""
        return CompactionBox(
            self.layers[self.codes[index]],
            Box(int(arrays.xmin[index]), int(arrays.ymin[index]),
                int(arrays.xmax[index]), int(arrays.ymax[index])),
            left, right,
            self.tag_names[self.tags[index] if self.tags is not None else 0],
        )

    def __iter__(self) -> Iterator[CompactionBox]:
        return (self[index] for index in range(self.count))


def build_edge_variables(
    boxes,
    system: Optional[ConstraintSystem] = None,
    prefix: str = "e",
    tags: Optional[Sequence[str]] = None,
) -> Tuple[ConstraintSystem, EdgeBoxes]:
    """Create left/right variables for each box.

    ``boxes`` is an unbound :class:`EdgeBoxes` or a sequence of
    ``(layer, Box)`` pairs (``tags`` then gives each pair's sizing tag).
    Box ``i`` owns variables ``first + 2i`` and ``first + 2i + 1``,
    where ``first`` is the number of variables ``system`` held before.
    """
    if system is None:
        system = ConstraintSystem()
    if not isinstance(boxes, EdgeBoxes):
        boxes = EdgeBoxes.from_pairs(boxes, tags)
    first = system.add_edges(boxes.arrays.xmin, boxes.arrays.xmax, prefix)
    return system, boxes.bind(system, first)


def _width_table(rules: DesignRules, layers: Sequence[str]) -> np.ndarray:
    return np.array([rules.width(name) for name in layers], dtype=np.int64)


def _spacing_matrix(rules: DesignRules, layers: Sequence[str]) -> np.ndarray:
    """Spacing per layer-code pair, ``-1`` where the pair is unconstrained."""
    tables = rules.tables(layers)
    code_of = {name: code for code, name in enumerate(layers)}
    matrix = np.full((len(layers), len(layers)), -1, dtype=np.int64)
    for (name_a, name_b), value in tables.spacing.items():
        if value is not None:
            matrix[code_of[name_a], code_of[name_b]] = value
    return matrix


def add_width_constraints(
    system: ConstraintSystem,
    boxes: EdgeBoxes,
    rules: DesignRules,
    mode: str = "preserve",
    sizing: Optional[Dict[Tuple[str, str], int]] = None,
) -> None:
    """Width constraints per box, in box order.

    ``mode="preserve"`` pins each box to its drawn width (two ``equal``
    rows); ``mode="min"`` only enforces the rule minimum (widths
    collapse during technology transport).  ``sizing`` maps
    ``(tag, layer)`` to an explicit minimum width — the device/bus
    sizing mechanism of section 6.4.1 (tagged cells whose instances the
    compactor must size); a sized box gets one ``width`` row of at
    least the directive, in either mode.
    """
    if boxes.count == 0:
        return
    arrays = boxes.arrays
    left, right = boxes.left, boxes.right
    widths = arrays.xmax - arrays.xmin
    if mode == "preserve" and not sizing:
        # Every box pinned: rows (l -> r, w), (r -> l, -w) per box, as
        # one (column, box, row) block.
        block = np.empty((4, boxes.count, 2), dtype=np.int64)
        block[0, :, 0] = block[1, :, 1] = left
        block[0, :, 1] = block[1, :, 0] = right
        block[2, :, 0] = widths
        np.negative(widths, out=block[2, :, 1])
        block[3] = EQUAL
        system.extend(*block.reshape(4, -1))
        return
    minimum = _width_table(rules, boxes.layers)[boxes.codes]
    sized = np.zeros(boxes.count, dtype=bool)
    if sizing:
        tags = boxes.tags
        if tags is None:
            tags = np.zeros(boxes.count, dtype=np.int64)
        directive = np.zeros((len(boxes.tag_names), len(boxes.layers)), dtype=np.int64)
        present = np.zeros(directive.shape, dtype=bool)
        for (tag, layer), value in sizing.items():
            if tag in boxes.tag_names and layer in boxes.layers:
                row, column = boxes.tag_names.index(tag), boxes.layers.index(layer)
                directive[row, column], present[row, column] = value, True
        sized = present[tags, boxes.codes]
        minimum = np.where(
            sized, np.maximum(minimum, directive[tags, boxes.codes]), minimum
        )
    if mode != "preserve":
        system.extend(left, right, minimum, WIDTH)
        return
    # Sized boxes get one width row, the others two equal rows.
    equal = ~sized
    rows = 1 + equal
    start = np.cumsum(rows) - rows
    total = int(start[-1] + rows[-1])
    source, target, weight, kind = (np.empty(total, dtype=np.int64) for _ in range(4))
    source[start], target[start] = left, right
    weight[start] = np.where(equal, widths, np.maximum(minimum, widths))
    kind[start] = np.where(equal, EQUAL, WIDTH)
    second = start[equal] + 1
    source[second], target[second] = right[equal], left[equal]
    weight[second], kind[second] = -widths[equal], EQUAL
    system.extend(source, target, weight, kind)


def _interleave(*columns: np.ndarray) -> np.ndarray:
    """Row-major interleave: ``a0, b0, ..., a1, b1, ...``."""
    width = len(columns)
    result = np.empty(width * columns[0].shape[0], dtype=np.int64)
    for offset, column in enumerate(columns):
        result[offset::width] = column
    return result


def connection_rows(boxes: EdgeBoxes, a, b, widths: np.ndarray):
    """Constraint rows preserving contact between drawn-connected boxes.

    For each pair ``(a[k], b[k])`` (same layer, touching or overlapping)
    three rows, pair-major: the left box's left and right edges stay
    left of the right box's (so connected chains stay chains), and the
    x overlap stays at least ``min(drawn overlap, rule width)``.
    ``widths`` is the rule width per layer code.  Returns
    ``(source, target, weight)`` columns.
    """
    xmin, xmax = boxes.arrays.xmin, boxes.arrays.xmax
    overlap = np.minimum(xmax[a], xmax[b]) - np.maximum(xmin[a], xmin[b])
    keep = np.maximum(0, np.minimum(overlap, widths[boxes.codes[a]]))
    a_first = xmin[a] <= xmin[b]
    low, high = np.where(a_first, a, b), np.where(a_first, b, a)
    left, right = boxes.left, boxes.right
    zero = np.zeros(keep.shape[0], dtype=np.int64)
    return (
        _interleave(left[low], right[low], left[high]),
        _interleave(left[high], right[high], right[low]),
        _interleave(zero, zero, keep),
    )


def visibility_constraints(
    system: ConstraintSystem,
    boxes: EdgeBoxes,
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
    one offline segmented scan; pairs are classified with masked column
    arithmetic and appended as two blocks of rows: the connections
    (:func:`connection_rows`, in pair order), then the spacing rows.
    Emits the exact constraint multiset of the interpreted front scan
    (``tests/oracles/scanline.py``).
    """
    if boxes.count < 2:
        return 0
    spacing_matrix = _spacing_matrix(rules, boxes.layers)
    arrays, codes = boxes.arrays, boxes.codes
    visible, viewer = batch.visible_pairs(arrays, codes, spacing_matrix >= 0)
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
    if connected.any():
        source, target, weight = connection_rows(
            boxes, visible[connected], viewer[connected],
            _width_table(rules, boxes.layers),
        )
        system.extend(source, target, weight, CONNECT)
    system.extend(
        boxes.right[visible[spaced]], boxes.left[viewer[spaced]],
        weights[spaced], SPACING,
    )
    return int(np.count_nonzero(spaced))


def solved_columns(boxes: EdgeBoxes, solution, axis: str = "x") -> EdgeBoxes:
    """The boxes at a solved assignment (values by variable id), as
    unbound layout-frame columns in box order.

    ``axis="y"`` means the compaction frame is transposed (its x is the
    layout's y), so the columns are transposed back.
    """
    values = np.asarray(solution, dtype=np.int64)
    low, high = values[boxes.left], values[boxes.right]
    low, high = np.minimum(low, high), np.maximum(low, high)
    arrays = boxes.arrays
    if axis == "y":
        arrays = batch.BoxArray(arrays.ymin, low, arrays.ymax, high)
    else:
        arrays = batch.BoxArray(low, arrays.ymin, high, arrays.ymax)
    return EdgeBoxes(boxes.layers, boxes.codes, arrays)


def rebuild_boxes(geometry: EdgeBoxes) -> Dict[str, List[Box]]:
    """Layout-frame columns (such as :func:`solved_columns` gives) as
    boxes per layer.

    Layers come in sorted order and the boxes of a layer in column
    order, decoded in one :func:`~repro.geometry.batch.boxes_from_arrays`
    call.
    """
    arrays, codes = geometry.arrays, geometry.codes
    order = codes.argsort(kind="stable")
    decoded = batch.boxes_from_arrays(
        arrays.xmin[order], arrays.ymin[order], arrays.xmax[order], arrays.ymax[order]
    )
    counts = np.bincount(codes, minlength=len(geometry.layers)).tolist()
    layers: Dict[str, List[Box]] = {}
    start = 0
    for name, count in zip(geometry.layers, counts):
        if count:
            layers[name] = decoded[start:start + count]
            start += count
    return layers
