"""Flat (classical) one-dimensional compaction driver.

The experimental compactor of section 6.4: flatten a cell, generate
constraints with a scan method, solve by Bellman-Ford (optionally with
the rubber-band refinement), and rebuild the geometry.  Supports both
axes by transposing coordinates for the y pass.

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
from ..layout.database import FlatLayout, merge_box_arrays
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
    naive_constraints,
    rebuild_boxes,
    solved_columns,
    visibility_constraints,
)
from .solver import SolveCounts, solve_longest_path

__all__ = [
    "CompactionResult", "compact_layout", "compact_layout_xy", "compact_cell",
    "compact_passes",
]

#: band-scan method name -> :func:`naive_constraints` options
_NAIVE_METHODS = {
    "naive": {},
    "naive-indiscriminate": {"merge_aware": False},
    "naive-skip-hidden": {"skip_hidden": True},
}


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
    #: a plain pass's input columns, ``merge``, axis and solved columns,
    #: until the jog is read
    _pending: Optional[Tuple[EdgeBoxes, bool, str, EdgeBoxes]] = field(
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
            geometry, merge, axis, solved = self._pending
            with obs_trace.span("compact.align") as span:
                # A fresh system numbers frame box i's edges 2i and 2i + 1;
                # its solved edges are row i of the solved columns.
                _, boxes = build_edge_variables(_frame(geometry, merge, axis))
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


def _frame(geometry: EdgeBoxes, merge: bool, axis: str) -> EdgeBoxes:
    """``geometry`` in the compaction frame of ``axis`` (itself when
    that frame is the layout's).

    Each layer is merged into strips first when ``merge``; for
    ``axis="y"`` the x and y columns swap, so the compacted axis is
    always x.
    """
    if not merge and axis == "x":
        return geometry
    arrays, codes = geometry.arrays, geometry.codes
    if merge:
        parts = []
        for code in range(len(geometry.layers)):
            members = (codes == code).nonzero()[0]
            parts.append(merge_box_arrays(batch.BoxArray(
                arrays.xmin[members], arrays.ymin[members],
                arrays.xmax[members], arrays.ymax[members],
            )))
        codes = np.arange(len(parts), dtype=np.int64).repeat(
            [len(part) for part in parts]
        )
        arrays = batch.BoxArray(*(
            np.concatenate([getattr(part, column) for part in parts])
            if parts else np.empty(0, dtype=np.int64)
            for column in ("xmin", "ymin", "xmax", "ymax")
        ))
    if axis == "y":
        arrays = batch.BoxArray(arrays.ymin, arrays.xmin, arrays.ymax, arrays.xmax)
    return EdgeBoxes(geometry.layers, codes, arrays)


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
    entry: tuple, source: Optional[Tuple[EdgeBoxes, bool, str]] = None
) -> Tuple[CompactionResult, EdgeBoxes]:
    """A fresh result of the pass an :func:`_entry` holds, and its solved
    columns.  A plain pass computes its jog, when it is read, from those
    and ``source``: the pass's input columns, ``merge`` and axis."""
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
    geometry: EdgeBoxes,
    rules: DesignRules,
    method: str,
    width_mode: str,
    rubber_band: bool,
    axis: str,
    merge: bool,
    sizing: Optional[Dict[Tuple[str, str], int]],
    sort_edges: bool,
) -> tuple:
    """One pass (options as in :func:`compact_layout`) over layout-frame
    columns.

    Returns the pass's :func:`_entry`: its record and the compacted
    boxes as layout-frame columns, the next pass's input or the chain's
    output.  Only a rubber-band pass finds the alignment pairs.
    """
    with obs_trace.span("compact.edges", axis=axis) as span:
        boxes = _frame(geometry, merge, axis)
        system, boxes = build_edge_variables(boxes)
        span.set(boxes=boxes.count, variables=system.variable_count)
    with obs_trace.span("compact.constraints", method=method) as span:
        add_width_constraints(system, boxes, rules, mode=width_mode, sizing=sizing)
        if method == "visibility":
            spacing_count = visibility_constraints(system, boxes, rules)
        else:
            spacing_count = naive_constraints(
                system, boxes, rules, **_NAIVE_METHODS[method]
            )
        span.set(constraints=len(system), spacing=spacing_count)
    with obs_trace.span("solver.solve", axis=axis) as span:
        stats = solve_longest_path(system, sort_edges=sort_edges)
        counts = stats.counts()
        span.set(**counts.to_dict())
    values, jogs = stats.values, None
    if rubber_band:
        with obs_trace.span("compact.align") as span:
            align = alignment_pairs(boxes)
            jog = misalignment(align, values)
            span.set(pairs=len(align), jog=jog)
        jogs = (jog, jog)
        if len(align):
            with obs_trace.span("compact.rubberband", pairs=len(align)) as span:
                width_limit = max(values, default=0)
                values = rubber_band_solve(system, boxes, width_limit, align)
                jogs = (jog, misalignment(align, values))
                span.set(jog=jogs[1])

    with obs_trace.span("compact.rebuild", boxes=boxes.count):
        solved = solved_columns(boxes, values, axis=axis)
        # The input extent is the unmerged boxes' bounding box.
        width_before = 0
        if geometry.count:
            drawn = geometry.arrays
            if axis == "y":
                width_before = int(drawn.ymax.max() - drawn.ymin.min())
            else:
                width_before = int(drawn.xmax.max() - drawn.xmin.min())
        width_after = max(values) - min(values) if values else 0
    record = _Pass(width_before, width_after, len(system), spacing_count, counts, jogs)
    return _entry(record, solved.layers, solved.codes, solved.arrays)


def compact_layout(
    layout: FlatLayout,
    rules: DesignRules,
    method: str = "visibility",
    width_mode: str = "preserve",
    rubber_band: bool = False,
    axis: str = "x",
    merge: bool = False,
    sizing: Optional[Dict[Tuple[str, str], int]] = None,
    sort_edges: bool = True,
    cache=None,
) -> CompactionResult:
    """Compact a flat layout along one axis.

    ``axis`` is ``"x"`` or ``"y"`` (anything else raises
    ``ValueError``).  ``method`` is ``"visibility"`` (Figure 6.7),
    ``"naive"`` (band scan), ``"naive-indiscriminate"`` (Figure 6.5
    overconstraint) or ``"naive-skip-hidden"`` (Figure 6.6 bug).
    ``merge`` pre-merges boxes per layer (section 6.4.1's preprocessing
    — incompatible with tag-based ``sizing``, which is rejected; the
    flat pass tags every box ``""``, so its sizing keys read
    ``("", layer)``).  ``sort_edges`` presorts the constraint list
    for the Bellman-Ford solve (section 6.4.2).  ``cache`` (a
    :class:`~repro.compact.cache.CompactionCache`) memoizes the pass
    under a content hash of the input geometry, the rule tables and
    every option listed above; ``cache=None`` is the uncached oracle.
    """
    _check_axis(axis)
    (result,), solved = _chain(
        _layers_geometry(layout.layers), rules, axis, cache, {
            "method": method, "width_mode": width_mode, "rubber_band": rubber_band,
            "merge": merge, "sizing": sizing, "sort_edges": sort_edges,
        },
    )
    result.layers = rebuild_boxes(solved)
    return result


def _checked_options(
    method: str = "visibility",
    width_mode: str = "preserve",
    rubber_band: bool = False,
    axis: str = "x",
    merge: bool = False,
    sizing: Optional[Dict[Tuple[str, str], int]] = None,
    sort_edges: bool = True,
) -> Dict[str, object]:
    """The pass options as keywords, rejecting an unknown axis or
    method and merging combined with sizing."""
    _check_axis(axis)
    if merge and sizing:
        raise ValueError(
            "box merging loses the cell tags that device sizing needs"
            " (section 6.4.1); choose one"
        )
    if method != "visibility" and method not in _NAIVE_METHODS:
        raise ValueError(f"unknown constraint method {method!r}")
    return {
        "method": method, "width_mode": width_mode, "rubber_band": rubber_band,
        "axis": axis, "merge": merge, "sizing": sizing, "sort_edges": sort_edges,
    }


def _pass_key(geometry: EdgeBoxes, rules: DesignRules, options: Dict[str, object]) -> str:
    """The cache key of one pass: its input columns, the rule tables and
    its options (as :func:`_checked_options` returns them)."""
    return cache_module.cache_key(
        "flat",
        cache_module.FORMAT_VERSION,
        cache_module.fingerprint_geometry(geometry),
        cache_module.fingerprint_rules(rules),
        options["method"],
        options["width_mode"],
        options["rubber_band"],
        options["axis"],
        options["merge"],
        sorted(options["sizing"].items()) if options["sizing"] else None,
        options["sort_edges"],
    )


def _chain(
    geometry: EdgeBoxes,
    rules: DesignRules,
    axes: str,
    cache,
    options: Dict[str, object],
) -> Tuple[List[CompactionResult], EdgeBoxes]:
    """One pass per letter of ``axes`` over layout-frame ``geometry``.

    Each pass's entry (:func:`_compact_pass`) is computed, or read from
    ``cache`` under :func:`_pass_key`; either way a fresh result is built
    from it and its solved columns go to the next pass.  Returns the
    results in pass order, all with ``layers`` empty, and the last
    pass's columns.  Every pass keeps its input's row order (merging
    regroups a layer's strips in layer order), so columns read with the
    layers sorted come out so.
    """
    if not axes:
        raise ValueError("axes must name at least one axis")
    passes = [_checked_options(axis=axis, **options) for axis in axes]
    results: List[CompactionResult] = []
    for pass_options in passes:
        key = None if cache is None else _pass_key(geometry, rules, pass_options)
        entry = None if key is None else cache.get(key)
        if entry is None:
            entry = _compact_pass(geometry, rules, **pass_options)
            if key is not None:
                cache.put(key, entry)
        result, geometry = _result(
            entry, (geometry, pass_options["merge"], pass_options["axis"])
        )
        results.append(result)
    return results, geometry


def compact_layout_xy(
    layout: FlatLayout,
    rules: DesignRules,
    order: str = "xy",
    **options,
) -> Tuple[CompactionResult, CompactionResult]:
    """Two one-dimensional passes (the classical x-then-y compactor).

    Section 6.1 notes that one-dimensional compaction "tries to greedily
    optimize one dimension at a time and misses out on the optimizations
    that require a more careful analysis of the interaction between the
    two dimensions" — this driver is that greedy baseline, and the pass
    order matters (try ``order="yx"``).  Returns the two pass results;
    the second result's ``layers`` is the final geometry (the first
    pass hands the second its boxes as columns, so its ``layers`` is
    empty).  ``options`` are :func:`compact_layout`'s, minus ``axis``.
    """
    if sorted(order) != ["x", "y"]:
        raise ValueError("order must be 'xy' or 'yx'")
    cache = options.pop("cache", None)
    (first, second), solved = _chain(
        _layers_geometry(layout.layers), rules, order, cache, options
    )
    second.layers = rebuild_boxes(solved)
    return first, second


def compact_passes(
    cell: CellDefinition,
    rules: DesignRules,
    axes: str,
    name: Optional[str] = None,
    cache=None,
    **options,
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
    ``options`` are
    :func:`compact_layout`'s, minus ``axis``; ``cache`` probes and fills
    each pass exactly as :func:`compact_layout` does for the same input.
    The cell holds boxes only: ports and labels are neither flattened
    nor carried over.
    """
    with obs_trace.span("compact.flatten") as span:
        geometry = _cell_geometry(cell)
        span.set(boxes=geometry.count)
    results, solved = _chain(geometry, rules, axes, cache, options)
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
    **options,
) -> Tuple[CellDefinition, CompactionResult]:
    """Flatten ``cell``, compact it, and return a new flat cell.

    One pass of :func:`compact_passes` along ``axis`` (default
    ``"x"``); ``options`` are :func:`compact_layout`'s.
    """
    axis = options.pop("axis", "x")
    _check_axis(axis)
    compacted, results = compact_passes(cell, rules, axis, name=name, **options)
    return compacted, results[-1]

