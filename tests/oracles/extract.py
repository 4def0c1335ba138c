"""The interpreted mask walk of netlist extraction: the oracle for
``repro.verify.extract._sweep_batch``.

One :func:`~oracles.sweep.slab_decompose` pass over the expanded masks
feeds a run graph slab by slab; gates, depletion markers, terminals and
cut links are found with interval scans.  It returns the program's
result tuple (union-find, node columns, gates, terminals, depletion,
cut links), so the two builds compare directly.
"""

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.compact.rules import DesignRules
from repro.core.cell import CellDefinition
from repro.geometry import Box, batch
from repro.verify.extract import (
    _KIND_CODE,
    _mask_columns,
    _SweepNodes,
    _SweepResult,
    _UnionFind,
)

from .sweep import Interval, slab_decompose, subtract_intervals


def _intersect_runs(a: Sequence[Interval], b: Sequence[Interval]) -> List[Interval]:
    """Intersection of two sorted disjoint interval lists."""
    result: List[Interval] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            result.append((lo, hi))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return result


def extract_layers(
    cell: CellDefinition, rules: Optional[DesignRules] = None
) -> Dict[str, List[Box]]:
    """Flatten ``cell`` and expand derived layers to physical masks.

    The masks ``extract_netlist`` sweeps, decoded to ``Box`` lists for
    :func:`_sweep_reference` and the equivalence tests.
    """
    return {
        name: batch.boxes_from_arrays(boxes.xmin, boxes.ymin, boxes.xmax, boxes.ymax)
        for name, boxes in _mask_columns(cell, rules).items()
    }


def _touching(a: Interval, b: Interval) -> bool:
    """Closed-interval contact: share at least a point."""
    return a[0] <= b[1] and b[0] <= a[1]


def _overlapping(a: Interval, b: Interval) -> bool:
    """Positive-length interval overlap."""
    return min(a[1], b[1]) > max(a[0], b[0])


class _RunGraph:
    """Per-slab conductor/channel runs stitched into components.

    Each run placed into the graph becomes a union-find node; runs of
    the same kind union when they share an edge of positive length
    (within a slab that merge already happened — runs are disjoint —
    so only the slab boundary stitch remains).  The graph also keeps,
    per node, a ``(kind code, x0, y0, x1, y1)`` row, which
    :meth:`nodes` turns into :class:`_SweepNodes` columns.
    """

    def __init__(self) -> None:
        self.sets = _UnionFind()
        #: node id -> (kind code, x0, y0, x1, y1)
        self.rows: List[Tuple[int, int, int, int, int]] = []
        #: kind -> runs of the previous slab: list of (interval, node)
        self._previous: Dict[str, List[Tuple[Interval, int]]] = {}
        self._previous_top: Optional[int] = None

    def start_slab(self, y0: int, y1: int) -> None:
        """Begin a new slab (the previous slab's runs stay as the
        stitch base; ``add_runs`` checks actual y-adjacency)."""
        self._current: Dict[str, List[Tuple[Interval, int]]] = {}
        self._y0, self._y1 = y0, y1

    def add_runs(self, kind: str, runs: Iterable[Interval]) -> List[int]:
        """Place ``kind`` runs for the current slab; returns node ids."""
        nodes: List[int] = []
        entries: List[Tuple[Interval, int]] = []
        previous = self._previous.get(kind, ())
        adjacent = self._previous_top == self._y0
        code = _KIND_CODE[kind]
        for run in runs:
            node = self.sets.make()
            self.rows.append((code, run[0], self._y0, run[1], self._y1))
            if adjacent:
                for other_run, other_node in previous:
                    if _overlapping(run, other_run):
                        self.sets.union(node, other_node)
            entries.append((run, node))
            nodes.append(node)
        self._current[kind] = entries
        return nodes

    def current_runs(self, kind: str) -> List[Tuple[Interval, int]]:
        """(interval, node) pairs of ``kind`` placed in the current slab."""
        return self._current.get(kind, [])

    def end_slab(self) -> None:
        """Seal the slab: current runs become the stitch base."""
        self._previous = self._current
        self._previous_top = self._y1

    def nodes(self) -> _SweepNodes:
        """Every node placed so far, as columns."""
        table = np.array(self.rows, dtype=np.int64).reshape(-1, 5)
        return _SweepNodes(*(table[:, column].copy() for column in range(5)))


def _sweep_reference(sweep_input: Dict[str, List[Box]]) -> _SweepResult:
    """The interpreted slab walk over the conductor masks.

    One :func:`~oracles.sweep.slab_decompose` pass feeds the
    :class:`_RunGraph`; gates, depletion markers, terminals, and cut
    links are discovered per slab with interval scans.  The program's
    ``_sweep_batch`` reproduces its node numbering and union sequence
    exactly.
    """
    graph = _RunGraph()
    # channel component node -> flags/links discovered during the sweep
    gate_of: Dict[int, Set[int]] = {}
    terminals_of: Dict[int, Set[int]] = {}
    depletion: Set[int] = set()
    cut_links: List[List[int]] = []

    previous_channels: List[Tuple[Interval, int]] = []
    previous_diff: List[Tuple[Interval, int]] = []
    previous_top: Optional[int] = None

    for y0, y1, runs in slab_decompose(sweep_input):
        graph.start_slab(y0, y1)
        poly_runs = runs["poly"]
        diff_runs = runs["diff"]
        cut_runs = runs["cut"]
        implant_runs = runs["implant"]
        channel_runs = subtract_intervals(
            _intersect_runs(poly_runs, diff_runs), cut_runs
        )
        diff_conductor = subtract_intervals(diff_runs, channel_runs)

        graph.add_runs("poly", poly_runs)
        graph.add_runs("metal1", runs["metal1"])
        graph.add_runs("diff", diff_conductor)
        graph.add_runs("channel", channel_runs)

        channel_nodes = graph.current_runs("channel")
        diff_nodes = graph.current_runs("diff")
        poly_nodes = graph.current_runs("poly")

        for run, node in channel_nodes:
            # Gate: the poly run covering this channel.
            for poly_run, poly_node in poly_nodes:
                if _overlapping(run, poly_run):
                    gate_of.setdefault(node, set()).add(poly_node)
            # Depletion marker.
            if any(_overlapping(run, imp) for imp in implant_runs):
                depletion.add(node)
            # Horizontal channel/diff adjacency (shared endpoint).
            for diff_run, diff_node in diff_nodes:
                if _touching(run, diff_run):
                    terminals_of.setdefault(node, set()).add(diff_node)
            # Vertical adjacency against the previous slab.
            if previous_top == y0:
                for other_run, other_node in previous_diff:
                    if _overlapping(run, other_run):
                        terminals_of.setdefault(node, set()).add(other_node)
        if previous_top == y0:
            for run, node in diff_nodes:
                for other_run, other_node in previous_channels:
                    if _overlapping(run, other_run):
                        terminals_of.setdefault(other_node, set()).add(node)

        # Cuts union every conductor they positively overlap.
        for cut_run in cut_runs:
            linked: List[int] = []
            for kind in ("poly", "metal1", "diff"):
                for run, node in graph.current_runs(kind):
                    if _overlapping(cut_run, run):
                        linked.append(node)
            if len(linked) >= 2:
                cut_links.append(linked)

        previous_channels = channel_nodes
        previous_diff = diff_nodes
        previous_top = y1
        graph.end_slab()

    return (
        graph.sets, graph.nodes(), gate_of, terminals_of, depletion, cut_links
    )
