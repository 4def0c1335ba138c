"""Flat (classical) one-dimensional compaction driver.

The experimental compactor of section 6.4: flatten a cell, generate
constraints with the visibility scan (Figure 6.7), solve by sorted-edge
Bellman-Ford (optionally with the rubber-band refinement), and rebuild
the geometry.  Supports both axes by transposing coordinates for the y
pass.  A pass takes three options: the axis, the width mode and the
rubber band.  The band scan of Figures 6.5/6.6, pre-merged input,
sizing and unsorted edges are the paper's experiments (E-6.5, E-6.7),
run from the test tree (``tests/oracles/scanline.py``).

Geometry crosses from objects to arrays once per *job*, not once per
pass.  A cell is read into the columns of an
:class:`~repro.compact.scanline.EdgeBoxes` straight from its column
flatten memo (:meth:`~repro.core.cell.CellDefinition.flat_columns`), so
no box object is built on the way in; a :class:`FlatLayout` input is
read once.  The passes of a chain (``--compact xy``/``yx``,
:func:`compact_passes`) hand each other solved columns, and the output
cell is born from the last pass's columns
(:meth:`~repro.core.cell.CellDefinition.from_columns`), so boxes are
never decoded in the flow: CIF output and extraction read the columns,
and only a caller that reads the cell's ``boxes`` or a result's
``layers`` decodes them.  In between, variables are integer ids and
constraints are integer columns (:mod:`repro.compact.constraints`).
Each stage runs in its own ``compact.*`` trace span (``solver.solve``
for the solve); a pass that does not rubber-band opens no
``compact.align``, because nothing in it reads the alignment pairs.

With a :class:`~repro.compact.cache.CompactionCache`, every pass of a
chain is probed under a key of its input columns
(:func:`~repro.compact.cache.fingerprint_geometry`), the rule tables and
its options.  An entry is immutable: the pass's record (widths,
constraint counts, solver counters) and its solved columns, read-only.
A computed pass and a cached one both build a fresh result from an
entry and hand the next pass its columns, so a cached chain runs the
same statements as an uncached one and also builds no box object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..core.cell import CellDefinition, layer_table
from ..geometry import Box, batch
from ..layout.database import FlatLayout
# Unused here: flowbench/tracing.py's LAYERS wraps repro.compact.flat.flatten_cell by name.
from ..layout.database import flatten_cell  # noqa: F401
from ..obs import trace as obs_trace
from . import cache as cache_module
from .drc import Violation, check_layout
from .rubberband import alignment_pairs, misalignment, rubber_band_solve
from .rules import DesignRules
from .scanline import (
    EdgeBoxes,
    add_width_constraints,
    build_edge_variables,
    rebuild_boxes,
    solved_columns,
    visibility_constraints,
)
from .solver import SolveCounts, solve_longest_path

__all__ = [
    "CompactionResult", "compact_layout", "compact_layout_xy", "compact_cell",
    "compact_passes",
]

@dataclass
class CompactionResult:
    """Outcome of a flat compaction run.

    ``layers`` maps each layer (sorted) to its compacted boxes in column
    order.  It is decoded from the solved columns on first read; the
    earlier passes of a chain hand their columns on and keep it empty.
    ``stats`` holds the solver's counters, not its solution.

    ``jog_before``/``jog_after`` are the total misalignment of
    drawn-connected boxes (:func:`~repro.compact.rubberband.misalignment`)
    before and after the rubber band.  A rubber-band pass computes both
    as it runs, since it needs the alignment pairs.  A plain pass, where
    the two are equal, computes them on first read from its input
    columns and its solved ones, so a pass whose jog nobody reads pays
    for no alignment; a cached pass gives the same values.
    """

    width_before: int = 0
    width_after: int = 0
    constraint_count: int = 0
    spacing_constraints: int = 0
    stats: Optional[SolveCounts] = None
    #: decoded ``layers``, or ``None`` until the first read
    _layers: Optional[Dict[str, List[Box]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: the layout-frame columns ``layers`` decodes (``None``: no boxes)
    _columns: Optional[EdgeBoxes] = field(default=None, init=False, repr=False,
                                          compare=False)
    #: ``(jog_before, jog_after)``, unless ``_pending`` is still set
    _jogs: Tuple[int, int] = field(default=(0, 0), init=False, repr=False,
                                   compare=False)
    #: a plain pass's input columns, axis and solved columns, until the
    #: jog is read
    _pending: Optional[Tuple[EdgeBoxes, str, EdgeBoxes]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def layers(self) -> Dict[str, List[Box]]:
        """The compacted boxes per layer (decoded on first read)."""
        if self._layers is None:
            self._layers = {} if self._columns is None else rebuild_boxes(self._columns)
        return self._layers

    @layers.setter
    def layers(self, value: Dict[str, List[Box]]) -> None:
        self._layers = value

    @property
    def jog_before(self) -> int:
        """Connected-pair misalignment of the greedy solve."""
        return self._jog()[0]

    @property
    def jog_after(self) -> int:
        """Connected-pair misalignment after the rubber band (the greedy
        solve's on a plain pass)."""
        return self._jog()[1]

    def _jog(self) -> Tuple[int, int]:
        if self._pending is not None:
            geometry, axis, solved = self._pending
            with obs_trace.span("compact.align") as span:
                # A fresh system numbers frame box i's edges 2i and 2i + 1;
                # its solved edges are row i of the solved columns.
                _, boxes = build_edge_variables(_frame(geometry, axis))
                align = alignment_pairs(boxes)
                arrays = solved.arrays
                low, high = (
                    (arrays.ymin, arrays.ymax) if axis == "y" else (arrays.xmin, arrays.xmax)
                )
                jog = misalignment(align, np.column_stack((low, high)).ravel())
                span.set(pairs=len(align), jog=jog)
            self._jogs, self._pending = (jog, jog), None
        return self._jogs

    def violations(self, rules: DesignRules) -> List[Violation]:
        """DRC the compacted geometry against ``rules``."""
        return check_layout(self.layers, rules)


def _check_axis(axis: str) -> None:
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', not {axis!r}")


def _layers_geometry(layers: Dict[str, List[Box]]) -> EdgeBoxes:
    """Boxes per layer as columns: layers sorted, boxes in list order."""
    names = [name for name, boxes in sorted(layers.items()) if boxes]
    counts = [len(layers[name]) for name in names]
    arrays = batch.boxes_to_arrays([box for name in names for box in layers[name]])
    codes = np.arange(len(names), dtype=np.int64).repeat(counts)
    return EdgeBoxes(names, codes, arrays)


def _cell_geometry(cell: CellDefinition) -> EdgeBoxes:
    """``cell`` flattened, as columns: layers sorted, boxes of a layer in
    flatten order (the columns :func:`_layers_geometry` gives the cell's
    :func:`~repro.layout.database.flatten_cell`)."""
    codes, arrays = cell.flat_columns()
    counts = np.bincount(codes)
    present = counts.nonzero()[0].tolist()
    table = layer_table()
    names = sorted(table[code] for code in present)
    # rank[code] is the code's layer position in sorted-name order
    rank = np.zeros(len(counts), dtype=np.int64)
    rank[present] = [names.index(table[code]) for code in present]
    sorted_codes = rank[codes]
    order = np.argsort(sorted_codes, kind="stable")
    return EdgeBoxes(names, sorted_codes[order], batch.BoxArray(
        arrays.xmin[order], arrays.ymin[order], arrays.xmax[order], arrays.ymax[order]
    ))


def _frame(geometry: EdgeBoxes, axis: str) -> EdgeBoxes:
    """``geometry`` in the compaction frame of ``axis``: itself for
    ``"x"``; for ``"y"`` the x and y columns swap, so the compacted axis
    is always x."""
    if axis == "x":
        return geometry
    arrays = geometry.arrays
    return EdgeBoxes(geometry.layers, geometry.codes, batch.BoxArray(
        arrays.ymin, arrays.xmin, arrays.ymax, arrays.xmax
    ))


class _Pass(NamedTuple):
    """What one pass measured, without its geometry: the immutable half
    of a pass's cache entry.  The first five fields are the
    :class:`CompactionResult` fields of the same name, in order."""

    width_before: int
    width_after: int
    constraint_count: int
    spacing_constraints: int
    stats: SolveCounts
    #: ``(jog_before, jog_after)``; ``None`` on a plain pass, whose jog
    #: is computed when it is read
    jogs: Optional[Tuple[int, int]]


def _entry(record: _Pass, layers, codes, arrays: batch.BoxArray) -> tuple:
    """A cache entry: ``record``, then solved columns (layer names,
    codes and the four coordinate columns)."""
    return (record, tuple(layers), codes, arrays.xmin, arrays.ymin, arrays.xmax, arrays.ymax)


def _result(
    entry: tuple, source: Optional[Tuple[EdgeBoxes, str]] = None
) -> Tuple[CompactionResult, EdgeBoxes]:
    """A fresh result of the pass an :func:`_entry` holds, and its solved
    columns.  A plain pass computes its jog, when it is read, from those
    and ``source``: the pass's input columns and axis."""
    record, layers, codes, *columns = entry
    solved = EdgeBoxes(layers, codes, batch.BoxArray(*columns))
    result = CompactionResult(*record[:5])
    if record.jogs is None:
        result._pending = (*source, solved)
    else:
        result._jogs = record.jogs
    return result, solved


def _record(result: CompactionResult) -> _Pass:
    """The record of the pass ``result`` holds, its jog read."""
    return _Pass(
        result.width_before, result.width_after, result.constraint_count,
        result.spacing_constraints, result.stats, (result.jog_before, result.jog_after),
    )


def _compact_pass(
    geometry: EdgeBoxes, rules: DesignRules, axis: str, width_mode: str, rubber_band: bool
) -> tuple:
    """One pass (options as in :func:`compact_layout`) over layout-frame
    columns.

    Returns the pass's :func:`_entry`: its record and the compacted
    boxes as layout-frame columns, the next pass's input or the chain's
    output.  Only a rubber-band pass finds the alignment pairs.
    """
    with obs_trace.span("compact.edges", axis=axis) as span:
        system, boxes = build_edge_variables(_frame(geometry, axis))
        span.set(boxes=boxes.count, variables=system.variable_count)
    with obs_trace.span("compact.constraints") as span:
        add_width_constraints(system, boxes, rules, mode=width_mode)
        spacing_count = visibility_constraints(system, boxes, rules)
        span.set(constraints=len(system), spacing=spacing_count)
    with obs_trace.span("solver.solve", axis=axis) as span:
        stats = solve_longest_path(system)
        counts = stats.counts()
        span.set(**counts.to_dict())
    values, jogs = stats.array, None
    if rubber_band:
        with obs_trace.span("compact.align") as span:
            align = alignment_pairs(boxes)
            jog = misalignment(align, values)
            span.set(pairs=len(align), jog=jog)
        jogs = (jog, jog)
        if len(align):
            with obs_trace.span("compact.rubberband", pairs=len(align)) as span:
                width_limit = int(values.max()) if values.size else 0
                values = np.asarray(
                    rubber_band_solve(system, boxes, width_limit, align), dtype=np.int64
                )
                jogs = (jog, misalignment(align, values))
                span.set(jog=jogs[1])

    with obs_trace.span("compact.rebuild", boxes=boxes.count):
        solved = solved_columns(boxes, values, axis=axis)
        width_before = 0
        if geometry.count:
            drawn = geometry.arrays
            if axis == "y":
                width_before = int(drawn.ymax.max() - drawn.ymin.min())
            else:
                width_before = int(drawn.xmax.max() - drawn.xmin.min())
        width_after = int(values.max() - values.min()) if values.size else 0
    record = _Pass(width_before, width_after, len(system), spacing_count, counts, jogs)
    return _entry(record, solved.layers, solved.codes, solved.arrays)


def compact_layout(
    layout: FlatLayout,
    rules: DesignRules,
    *,
    axis: str = "x",
    width_mode: str = "preserve",
    rubber_band: bool = False,
    cache=None,
) -> CompactionResult:
    """Compact a flat layout along one axis.

    ``axis`` is ``"x"`` or ``"y"`` (anything else raises
    ``ValueError``).  ``width_mode="preserve"`` pins each box to its
    drawn width, ``"min"`` lets it shrink to the rule width
    (:func:`~repro.compact.scanline.add_width_constraints`), and
    ``rubber_band`` smooths the greedy solve's jogs (section 6.4.3).
    ``cache`` (a :class:`~repro.compact.cache.CompactionCache`)
    memoizes the pass under a content hash of the input geometry, the
    rule tables and those three options; ``cache=None`` is the uncached
    oracle.
    """
    _check_axis(axis)
    (result,), solved = _chain(
        _layers_geometry(layout.layers), rules, axis, width_mode, rubber_band, cache
    )
    result.layers = rebuild_boxes(solved)
    return result


def _pass_key(
    geometry: EdgeBoxes, rules: DesignRules, axis: str, width_mode: str, rubber_band: bool
) -> str:
    """The cache key of one pass: its input columns, the rule tables and
    its options."""
    return cache_module.cache_key(
        "flat", cache_module.FORMAT_VERSION, cache_module.fingerprint_geometry(geometry),
        cache_module.fingerprint_rules(rules), width_mode, rubber_band, axis,
    )


def _chain(
    geometry: EdgeBoxes,
    rules: DesignRules,
    axes: str,
    width_mode: str,
    rubber_band: bool,
    cache,
) -> Tuple[List[CompactionResult], EdgeBoxes]:
    """One pass per letter of ``axes`` over layout-frame ``geometry``.

    Each pass's entry (:func:`_compact_pass`) is computed, or read from
    ``cache`` under :func:`_pass_key`; either way a fresh result is built
    from it and its solved columns go to the next pass.  Returns the
    results in pass order, all with ``layers`` empty, and the last
    pass's columns.  Every pass keeps its input's row order, so columns
    read with the layers sorted come out so.
    """
    if not axes:
        raise ValueError("axes must name at least one axis")
    for axis in axes:
        _check_axis(axis)
    results: List[CompactionResult] = []
    for axis in axes:
        options = (axis, width_mode, rubber_band)
        key = None if cache is None else _pass_key(geometry, rules, *options)
        entry = None if key is None else cache.get(key)
        if entry is None:
            entry = _compact_pass(geometry, rules, *options)
            if key is not None:
                cache.put(key, entry)
        result, geometry = _result(entry, (geometry, axis))
        results.append(result)
    return results, geometry


def compact_layout_xy(
    layout: FlatLayout,
    rules: DesignRules,
    order: str = "xy",
    *,
    width_mode: str = "preserve",
    rubber_band: bool = False,
    cache=None,
) -> Tuple[CompactionResult, CompactionResult]:
    """Two one-dimensional passes (the classical x-then-y compactor).

    Section 6.1 notes that one-dimensional compaction "tries to greedily
    optimize one dimension at a time and misses out on the optimizations
    that require a more careful analysis of the interaction between the
    two dimensions" — this driver is that greedy baseline, and the pass
    order matters (try ``order="yx"``).  Returns the two pass results;
    the second result's ``layers`` is the final geometry (the first
    pass hands the second its boxes as columns, so its ``layers`` is
    empty).  The keywords are :func:`compact_layout`'s.
    """
    if sorted(order) != ["x", "y"]:
        raise ValueError("order must be 'xy' or 'yx'")
    (first, second), solved = _chain(
        _layers_geometry(layout.layers), rules, order, width_mode, rubber_band, cache
    )
    second.layers = rebuild_boxes(solved)
    return first, second


def compact_passes(
    cell: CellDefinition,
    rules: DesignRules,
    axes: str,
    name: Optional[str] = None,
    *,
    width_mode: str = "preserve",
    rubber_band: bool = False,
    cache=None,
) -> Tuple[CellDefinition, List[CompactionResult]]:
    """Flatten ``cell`` once and run one pass per letter of ``axes``.

    The one flat chain behind :func:`compact_cell`, the hierarchical
    pipeline's leaf passes and the ``--compact x|y|xy|yx`` stage.
    The cell is read into columns from its flatten memo, the passes
    hand each other columns, and the output cell is born from the last
    pass's columns (:meth:`~repro.core.cell.CellDefinition.from_columns`):
    the chain builds no box object.  Returns the flat output cell
    (``name``, by default ``<cell>_compacted``; layers sorted, each
    layer's boxes in column order) and one result per pass, in pass
    order; only the last one has ``layers``, decoded on first read.
    The keywords are :func:`compact_layout`'s; ``cache`` probes and
    fills each pass exactly as :func:`compact_layout` does for the same
    input.  The cell holds boxes only: ports and labels are neither
    flattened nor carried over.
    """
    with obs_trace.span("compact.flatten") as span:
        geometry = _cell_geometry(cell)
        span.set(boxes=geometry.count)
    results, solved = _chain(geometry, rules, axes, width_mode, rubber_band, cache)
    with obs_trace.span("compact.rebuild", boxes=solved.count):
        results[-1]._columns = solved
        compacted = CellDefinition.from_columns(
            name or f"{cell.name}_compacted", solved.layers, solved.codes, solved.arrays
        )
    return compacted, results


def compact_cell(
    cell: CellDefinition,
    rules: DesignRules,
    name: Optional[str] = None,
    *,
    axis: str = "x",
    width_mode: str = "preserve",
    rubber_band: bool = False,
    cache=None,
) -> Tuple[CellDefinition, CompactionResult]:
    """Flatten ``cell``, compact it, and return a new flat cell.

    One pass of :func:`compact_passes` along ``axis``; the keywords are
    :func:`compact_layout`'s.
    """
    _check_axis(axis)
    compacted, results = compact_passes(
        cell, rules, axis, name, width_mode=width_mode, rubber_band=rubber_band,
        cache=cache,
    )
    return compacted, results[-1]
