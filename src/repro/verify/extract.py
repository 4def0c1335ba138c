"""Mask-level device and node extraction (the EXCL role, chapter 5).

The paper verified generated layouts by extracting a transistor netlist
from the masks and simulating it; this module is that loop's first
half.  The expanded physical masks are cut into elementary y slabs
(:func:`~repro.geometry.batch.merged_slab_runs` gives every slab's
merged runs per layer at once; the interpreted ``_sweep_reference``
walk, kept as the oracle, drains
:func:`~repro.geometry.sweep.slab_decompose` instead), from which the
extractor derives

* **channels** — poly-over-diffusion overlap, minus contact cuts (a
  butting-contact region is a connection, not a transistor);
* **conductors** — diffusion with the channels subtracted (a channel
  interrupts its diffusion strip), plus poly and metal1 unchanged;
* **nets** — connected components of conductor runs: runs union when
  they share an edge of positive length (corner-only contact does not
  conduct, matching the touching-coalesce convention of the kernel),
  and a contact cut unions every conductor layer it positively
  overlaps;
* **devices** — one per connected channel region: the gate is the poly
  net over the channel, the channel terminals are the diffusion nets
  edge-adjacent to it, and an implant overlapping the channel marks a
  depletion load (gate dropped, per the netlist convention).

Port and label names attach to the net whose conductor geometry
contains their position; names ending in ``!`` merge globally so
physically disjoint rails become one electrical node.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..compact.layers import expand_layout
from ..compact.rules import TECH_A, DesignRules
from ..core.cell import CellDefinition
from ..geometry import Box, Transform, batch
from ..geometry.sweep import Interval, slab_decompose, subtract_intervals
from .netlist import SwitchNetlist

__all__ = ["ExtractionError", "extract_netlist", "extract_layers", "CONDUCTOR_LAYERS"]

#: layers that carry signals, in drawing order
CONDUCTOR_LAYERS = ("diff", "poly", "metal1")


class ExtractionError(ValueError):
    """Raised when mask geometry cannot be read as a circuit."""


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


class _UnionFind:
    """Path-halving disjoint sets, grown on demand."""

    def __init__(self) -> None:
        self.parent: List[int] = []

    def make(self) -> int:
        """New singleton; returns its id."""
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, a: int) -> int:
        """Representative of ``a``'s set."""
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        """Merge the sets holding ``a`` and ``b``."""
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def extract_layers(
    cell: CellDefinition, rules: Optional[DesignRules] = None
) -> Dict[str, List[Box]]:
    """Flatten ``cell`` and expand derived layers to physical masks."""
    layers: Dict[str, List[Box]] = {}
    for layer_box in cell.flatten(Transform()):
        layers.setdefault(layer_box.layer, []).append(layer_box.box)
    return expand_layout(layers, rules or TECH_A)


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
    per node, the run's rectangle so later passes (ports, cuts,
    adjacency) can query geometry.
    """

    def __init__(self) -> None:
        self.sets = _UnionFind()
        #: node id -> (kind, Box)
        self.boxes: List[Tuple[str, Box]] = []
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
        for run in runs:
            node = self.sets.make()
            self.boxes.append((kind, Box(run[0], self._y0, run[1], self._y1)))
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


#: node-creation order of the conductor kinds within one slab
_SWEEP_KINDS = ("poly", "metal1", "diff", "channel")

#: what one sweep pass hands to the netlist-resolution phase:
#: (union-find, node boxes, gate_of, terminals_of, depletion, cut_links)
_SweepResult = Tuple[
    _UnionFind,
    List[Tuple[str, Box]],
    Dict[int, Set[int]],
    Dict[int, Set[int]],
    Set[int],
    List[List[int]],
]


def _sweep_reference(sweep_input: Dict[str, List[Box]]) -> _SweepResult:
    """The interpreted slab walk over the conductor masks.

    One :func:`~repro.geometry.sweep.slab_decompose` pass feeds the
    :class:`_RunGraph`; gates, depletion markers, terminals, and cut
    links are discovered per slab with interval scans.  Retained as the
    equivalence oracle for :func:`_sweep_batch`, which reproduces its
    node numbering and union sequence exactly.
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
        graph.sets, graph.boxes, gate_of, terminals_of, depletion, cut_links
    )


def _sweep_batch(sweep_input: Dict[str, List[Box]]) -> _SweepResult:
    """Numpy batch build of the slab walk.

    All slabs are materialised at once: merged runs per mask come from
    :func:`~repro.geometry.batch.merged_slab_runs`, the channel/
    conductor algebra from the keyed event-depth combinators, and every
    per-slab interval scan of :func:`_sweep_reference` (slab stitching,
    gates, depletion, terminals, cut links) becomes a keyed
    ``searchsorted`` pair query.  Node ids are assigned in exactly the
    interpreted order — (slab, kind, x) — and stitch unions are applied
    in exactly the interpreted sequence, so the resulting union-find
    roots (and hence downstream net numbering) are *identical*, not
    merely isomorphic.
    """
    sets = _UnionFind()
    boxes: List[Tuple[str, Box]] = []
    gate_of: Dict[int, Set[int]] = {}
    terminals_of: Dict[int, Set[int]] = {}
    depletion: Set[int] = set()
    cut_links: List[List[int]] = []
    result = (sets, boxes, gate_of, terminals_of, depletion, cut_links)

    arrays = {
        name: batch.boxes_to_arrays(value) for name, value in sweep_input.items()
    }
    ys = batch.slab_grid(arrays.values())
    if ys.size < 2:
        return result
    poly = batch.merged_slab_runs(ys, arrays["poly"])
    metal = batch.merged_slab_runs(ys, arrays["metal1"])
    diff = batch.merged_slab_runs(ys, arrays["diff"])
    cut = batch.merged_slab_runs(ys, arrays["cut"])
    implant = batch.merged_slab_runs(ys, arrays["implant"])
    channel = batch.runs_subtract(*batch.runs_intersect(*poly, *diff), *cut)
    diff_cond = batch.runs_subtract(*diff, *channel)

    kinds = (poly, metal, diff_cond, channel)
    sizes = [int(runs[0].size) for runs in kinds]
    total = sum(sizes)
    if total == 0:
        return result
    slab_all = np.concatenate([runs[0] for runs in kinds])
    x0_all = np.concatenate([runs[1] for runs in kinds])
    x1_all = np.concatenate([runs[2] for runs in kinds])
    rank_all = np.repeat(np.arange(4, dtype=np.int64), sizes)
    # Node ids in interpreted creation order: slab, then kind, then x.
    order = np.lexsort((x0_all, rank_all, slab_all))
    node_of = np.empty(total, dtype=np.int64)
    node_of[order] = np.arange(total, dtype=np.int64)
    offsets = np.cumsum(sizes) - sizes
    nid = [
        node_of[offsets[index]: offsets[index] + sizes[index]]
        for index in range(4)
    ]
    sets.parent = list(range(total))
    slab_sorted = slab_all[order]
    for kind_rank, box in zip(
        rank_all[order].tolist(),
        batch.boxes_from_arrays(
            x0_all[order], ys[slab_sorted], x1_all[order], ys[slab_sorted + 1]
        ),
    ):
        boxes.append((_SWEEP_KINDS[kind_rank], box))

    # Same-kind stitches across adjacent slabs, in interpreted union
    # order: ascending (new node, previous node).
    stitch_cur: List[Any] = []
    stitch_prev: List[Any] = []
    for index in range(4):
        slab, x0, x1 = kinds[index]
        if slab.size == 0:
            continue
        cur_rows, prev_rows = batch.overlap_pairs(slab, x0, x1, slab + 1, x0, x1)
        if cur_rows.size:
            stitch_cur.append(nid[index][cur_rows])
            stitch_prev.append(nid[index][prev_rows])
    if stitch_cur:
        cur = np.concatenate(stitch_cur)
        prev = np.concatenate(stitch_prev)
        sequence = np.lexsort((prev, cur))
        union = sets.union
        for node, other in zip(cur[sequence].tolist(), prev[sequence].tolist()):
            union(node, other)

    chan_nid, diff_nid, poly_nid, metal_nid = nid[3], nid[2], nid[0], nid[1]
    # Gates: poly runs positively overlapping a channel, same slab.
    rows_a, rows_b = batch.overlap_pairs(*channel, *poly)
    for node, gate in zip(chan_nid[rows_a].tolist(), poly_nid[rows_b].tolist()):
        gate_of.setdefault(node, set()).add(gate)
    # Depletion markers.
    rows_a, _ = batch.overlap_pairs(*channel, *implant)
    depletion.update(chan_nid[rows_a].tolist())
    # Horizontal channel/diff adjacency (shared endpoint counts).
    rows_a, rows_b = batch.overlap_pairs(*channel, *diff_cond, closed=True)
    for node, term in zip(chan_nid[rows_a].tolist(), diff_nid[rows_b].tolist()):
        terminals_of.setdefault(node, set()).add(term)
    # Vertical adjacency, both directions across the slab boundary.
    chan_slab, chan_x0, chan_x1 = channel
    diff_slab, diff_x0, diff_x1 = diff_cond
    rows_a, rows_b = batch.overlap_pairs(
        chan_slab, chan_x0, chan_x1, diff_slab + 1, diff_x0, diff_x1
    )
    for node, term in zip(chan_nid[rows_a].tolist(), diff_nid[rows_b].tolist()):
        terminals_of.setdefault(node, set()).add(term)
    rows_a, rows_b = batch.overlap_pairs(
        diff_slab, diff_x0, diff_x1, chan_slab + 1, chan_x0, chan_x1
    )
    for term, node in zip(diff_nid[rows_a].tolist(), chan_nid[rows_b].tolist()):
        terminals_of.setdefault(node, set()).add(term)

    # Cuts union every conductor they positively overlap, in slab/x
    # order with the linked nodes listed poly, then metal1, then diff.
    cut_slab, cut_x0, cut_x1 = cut
    if cut_slab.size:
        link_cut: List[Any] = []
        link_rank: List[Any] = []
        link_node: List[Any] = []
        for rank, (runs, ids) in enumerate(
            ((poly, poly_nid), (metal, metal_nid), (diff_cond, diff_nid))
        ):
            rows_a, rows_b = batch.overlap_pairs(cut_slab, cut_x0, cut_x1, *runs)
            if rows_a.size:
                link_cut.append(rows_a)
                link_rank.append(np.full(rows_a.size, rank, dtype=np.int64))
                link_node.append(ids[rows_b])
        if link_cut:
            cuts = np.concatenate(link_cut)
            ranks = np.concatenate(link_rank)
            nodes = np.concatenate(link_node)
            sequence = np.lexsort((nodes, ranks, cuts))
            linked_by_cut: Dict[int, List[int]] = {}
            for cut_index, node in zip(
                cuts[sequence].tolist(), nodes[sequence].tolist()
            ):
                linked_by_cut.setdefault(cut_index, []).append(node)
            for cut_index in sorted(linked_by_cut):
                linked = linked_by_cut[cut_index]
                if len(linked) >= 2:
                    cut_links.append(linked)
    return result


def extract_netlist(
    cell: CellDefinition,
    rules: Optional[DesignRules] = None,
    layers: Optional[Dict[str, List[Box]]] = None,
    ports: Optional[Sequence] = None,
    geometry: Optional[List[Tuple[str, Box, int]]] = None,
    finalise: bool = True,
) -> SwitchNetlist:
    """Extract the transistor netlist of a placed cell from its masks.

    Returns a :class:`~repro.verify.netlist.SwitchNetlist` whose nets
    carry every hierarchical port name that landed on them, with rails
    classified from ``vdd``/``gnd`` names and global (``!``) names
    merged.  ``layers``/``ports`` override the flatten step (the
    hierarchical extractor passes pre-translated tiles).

    When ``geometry`` is a list, every conductor run is appended to it
    as ``(layer, box, net)`` — channels as ``("channel", box, -1)`` —
    and with ``finalise=False`` the global-name merge, rail
    classification and floating-net prune are skipped so the recorded
    net ids stay valid; the hierarchical extractor relies on both to
    stitch tiles.
    """
    if layers is None:
        layers = extract_layers(cell, rules)
    if ports is None:
        ports = list(cell.flatten_ports(Transform())) if cell is not None else []

    sweep_input: Dict[str, List[Box]] = {
        name: list(layers.get(name, ())) for name in CONDUCTOR_LAYERS
    }
    sweep_input["cut"] = list(layers.get("cut", ()))
    sweep_input["implant"] = list(layers.get("implant", ()))

    sets, boxes, gate_of, terminals_of, depletion, cut_links = _sweep_batch(
        sweep_input
    )

    for linked in cut_links:
        for node in linked[1:]:
            sets.union(linked[0], node)

    # ------------------------------------------------------------------
    # Resolve components into nets and devices.
    # ------------------------------------------------------------------
    netlist = SwitchNetlist()
    net_of_component: Dict[int, int] = {}
    kind_of: List[str] = [kind for kind, _ in boxes]

    def net_for(node: int) -> int:
        root = sets.find(node)
        net = net_of_component.get(root)
        if net is None:
            net = netlist.add_net()
            net_of_component[root] = net
        return net

    # Channel components -> devices (deduplicated by component root).
    seen_channels: Dict[int, Tuple[Set[int], Set[int], bool]] = {}
    for node in range(len(boxes)):
        if kind_of[node] != "channel":
            continue
        root = sets.find(node)
        gates, terminals, isdep = seen_channels.setdefault(
            root, (set(), set(), False)
        )
        gates |= gate_of.get(node, set())
        terminals |= terminals_of.get(node, set())
        isdep = isdep or node in depletion
        seen_channels[root] = (gates, terminals, isdep)

    for root in sorted(seen_channels):
        gates, terminals, isdep = seen_channels[root]
        gate_nets = sorted({net_for(node) for node in gates})
        terminal_nets = sorted({net_for(node) for node in terminals})
        if len(terminal_nets) < 2:
            raise ExtractionError(
                f"channel region with {len(terminal_nets)} terminal(s); "
                "a transistor needs source and drain diffusion"
            )
        if len(terminal_nets) > 2:
            raise ExtractionError(
                f"channel region touching {len(terminal_nets)} diffusion"
                " nets; split the channel or merge the diffusion"
            )
        if isdep:
            netlist.add_transistor(None, *terminal_nets, depletion=True)
        else:
            if len(gate_nets) != 1:
                raise ExtractionError(
                    f"enhancement channel with {len(gate_nets)} gate nets"
                )
            netlist.add_transistor(gate_nets[0], *terminal_nets)

    # Materialise nets for conductor components that carry no device so
    # port attachment below can still name them.
    component_boxes: Dict[int, List[Tuple[str, Box]]] = {}
    for node, (kind, box) in enumerate(boxes):
        if kind == "channel":
            if geometry is not None:
                geometry.append(("channel", box, -1))
            continue
        component_boxes.setdefault(sets.find(node), []).append((kind, box))
    if geometry is not None:
        for root, boxes in component_boxes.items():
            net = net_for(root)
            for kind, box in boxes:
                geometry.append((kind, box, net))

    # Attach port names by position; boxes are indexed per layer so a
    # port only scans conductors it could legally land on.
    boxes_by_layer: Dict[str, List[Tuple[Box, int]]] = {}
    for root, boxes in component_boxes.items():
        for kind, box in boxes:
            boxes_by_layer.setdefault(kind, []).append((box, root))
    for port in ports:
        x, y = port.position.x, port.position.y
        if port.layer:
            candidates = boxes_by_layer.get(port.layer, ())
        else:
            candidates = [
                item for boxes in boxes_by_layer.values() for item in boxes
            ]
        for box, root in candidates:
            if box.xmin <= x <= box.xmax and box.ymin <= y <= box.ymax:
                netlist.name_net(net_for(root), port.name, (x, y))
                break

    if finalise:
        netlist.merge_global_names()
        netlist.classify_rails()
        netlist.prune_floating()
    return netlist
