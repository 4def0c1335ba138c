"""Mask-level device and node extraction (the EXCL role, chapter 5).

The paper verified generated layouts by extracting a transistor netlist
from the masks and simulating it; this module is that loop's first
half.  The masks come from the cell's column memo
(:meth:`~repro.core.cell.CellDefinition.flat_columns`): layer codes
and int64 box columns, split per layer and expanded to physical masks
by :func:`~repro.compact.layers.expand_columns` (derived ``gate`` and
``contact`` rows widened, extended and cut into grids with array
arithmetic), so extraction builds no ``Box`` or ``LayerBox`` from the
hierarchy to the netlist.  The expanded physical masks are cut into
elementary y slabs (:func:`~repro.geometry.batch.merged_slab_runs`
gives every slab's merged runs per layer at once; the interpreted slab
walk of ``tests/oracles/extract.py`` is its oracle), from which the
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

The sweep's nodes (one per merged run per slab) stay int64 columns
(:class:`_SweepNodes`) from the walk to the netlist: every node's root
is one array computation, devices come from a loop over channel nodes
only, and ports attach in one array pass.  No ``Box`` is built per
node.

Port and label names attach to the net whose conductor geometry
contains their position; names ending in ``!`` merge globally so
physically disjoint rails become one electrical node.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..compact.layers import expand_columns
from ..compact.rules import TECH_A, DesignRules
from ..core.cell import CellDefinition, layer_table
from ..geometry import Transform, batch
from ..geometry.batch import BoxArray
from ..obs import trace as obs_trace
from .netlist import SwitchNetlist

__all__ = ["ExtractionError", "extract_netlist", "CONDUCTOR_LAYERS"]

#: layers that carry signals, in drawing order
CONDUCTOR_LAYERS = ("diff", "poly", "metal1")


class ExtractionError(ValueError):
    """Raised when mask geometry cannot be read as a circuit."""


class _UnionFind:
    """Path-halving disjoint sets, grown on demand.

    The batch sweep hands one over with ``parent`` already flat (every
    entry a root), so the cut-link unions replayed on it stay short.
    """

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


#: the masks the slab walk reads, each one :class:`BoxArray` of columns
_SWEEP_MASKS = CONDUCTOR_LAYERS + ("cut", "implant")


def _mask_columns(
    cell: CellDefinition, rules: Optional[DesignRules]
) -> Dict[str, BoxArray]:
    """The physical masks of ``cell`` as box columns, per layer.

    Read from the cell's column memo (:meth:`CellDefinition.flat_columns`)
    and expanded by :func:`~repro.compact.layers.expand_columns`: the
    layers of the flattened boxes in order of first appearance, each
    keeping the flatten's box order, so the masks equal the decoded
    flatten expanded box by box.
    """
    codes, arrays = cell.flat_columns()
    names = layer_table()
    present, first = np.unique(codes, return_index=True)
    layers: Dict[str, BoxArray] = {}
    for code in present[np.argsort(first)].tolist():
        rows = np.flatnonzero(codes == code)
        layers[names[code]] = BoxArray(
            arrays.xmin[rows], arrays.ymin[rows], arrays.xmax[rows], arrays.ymax[rows]
        )
    return expand_columns(layers, rules or TECH_A)


#: node-creation order of the conductor kinds within one slab; a node's
#: kind code is its index here
_SWEEP_KINDS = ("poly", "metal1", "diff", "channel")
_KIND_CODE = {kind: code for code, kind in enumerate(_SWEEP_KINDS)}
_CHANNEL = _KIND_CODE["channel"]


class _SweepNodes:
    """The sweep's nodes as int64 columns, in node order.

    Node ``i`` is the run ``[x0[i], x1[i]] x [y0[i], y1[i]]`` of kind
    ``_SWEEP_KINDS[kind[i]]``.  Node ids follow creation order: slab,
    then kind (in ``_SWEEP_KINDS`` order), then x.  Within one slab and
    kind the runs are sorted by x and never touch: merged runs coalesce
    touching ones, and a subtraction leaves a positive-length gap.
    """

    __slots__ = ("kind", "x0", "y0", "x1", "y1")

    def __init__(self, kind, x0, y0, x1, y1) -> None:
        self.kind = kind
        self.x0 = x0
        self.y0 = y0
        self.x1 = x1
        self.y1 = y1

    def __len__(self) -> int:
        return int(self.kind.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _SweepNodes):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, column), getattr(other, column))
            for column in self.__slots__
        )

    __hash__ = None  # type: ignore[assignment]


#: what one sweep pass hands to the netlist-resolution phase:
#: (union-find, node columns, gate_of, terminals_of, depletion, cut_links)
_SweepResult = Tuple[
    _UnionFind,
    _SweepNodes,
    Dict[int, Set[int]],
    Dict[int, Set[int]],
    Set[int],
    List[List[int]],
]


def _jump(parent):
    """Pointer-jump a parent array until every entry is its root."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand


def _largest_node_roots(total: int, a, b):
    """Every node's root under the unions ``(a[i], b[i])``, as an array.

    The root of a component is its largest node id: what
    :class:`_UnionFind` ends with when the unions are applied in
    ascending ``(new, previous)`` order and each new node is still a
    singleton when first met, as the slab stitch guarantees.  Computed
    by hooking every root onto the largest root across its edges and
    pointer jumping to stars, until no edge spans two trees (Shiloach
    and Vishkin, J. Algorithms 3(1), 1982).  Pointers only ever grow,
    so no cycle can form, and the star left with the largest id never
    hooks.
    """
    parent = np.arange(total, dtype=np.int64)
    while a.size:
        root_a, root_b = parent[a], parent[b]
        np.maximum.at(parent, root_a, root_b)
        np.maximum.at(parent, root_b, root_a)
        parent = _jump(parent)
        split = parent[a] != parent[b]
        a, b = a[split], b[split]
    return parent


def _sweep_batch(sweep_input: Dict[str, BoxArray]) -> _SweepResult:
    """Numpy batch build of the slab walk.

    ``sweep_input`` holds one :class:`~repro.geometry.batch.BoxArray`
    per mask of ``_SWEEP_MASKS``; the interpreted oracle takes the same
    masks as ``Box`` lists.  All slabs are materialised at once: merged runs per
    mask come from :func:`~repro.geometry.batch.merged_slab_runs`, the
    channel/conductor algebra from the keyed event-depth combinators,
    and every per-slab interval scan of the interpreted walk (slab
    stitching, gates, depletion, terminals, cut links) becomes a keyed
    ``searchsorted`` pair query.  Node ids are assigned in exactly the
    interpreted order — (slab, kind, x) — and the nodes stay columns.
    The stitch roots come from one array computation
    (:func:`_largest_node_roots`) equal to the interpreted union
    sequence's, handed over as an already-flat union-find, so the roots
    (and hence downstream net numbering) are *identical*, not merely
    isomorphic.
    """
    sets = _UnionFind()
    gate_of: Dict[int, Set[int]] = {}
    terminals_of: Dict[int, Set[int]] = {}
    depletion: Set[int] = set()
    cut_links: List[List[int]] = []
    empty = np.empty(0, dtype=np.int64)
    nothing = (
        sets, _SweepNodes(empty, empty, empty, empty, empty),
        gate_of, terminals_of, depletion, cut_links,
    )

    ys = batch.slab_grid(sweep_input.values())
    if ys.size < 2:
        return nothing
    poly = batch.merged_slab_runs(ys, sweep_input["poly"])
    metal = batch.merged_slab_runs(ys, sweep_input["metal1"])
    diff = batch.merged_slab_runs(ys, sweep_input["diff"])
    cut = batch.merged_slab_runs(ys, sweep_input["cut"])
    implant = batch.merged_slab_runs(ys, sweep_input["implant"])
    channel = batch.runs_subtract(*batch.runs_intersect(*poly, *diff), *cut)
    diff_cond = batch.runs_subtract(*diff, *channel)

    kinds = (poly, metal, diff_cond, channel)
    sizes = [int(runs[0].size) for runs in kinds]
    total = sum(sizes)
    if total == 0:
        return nothing
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
    slab_sorted = slab_all[order]
    nodes = _SweepNodes(
        rank_all[order], x0_all[order], ys[slab_sorted], x1_all[order],
        ys[slab_sorted + 1],
    )
    result = (sets, nodes, gate_of, terminals_of, depletion, cut_links)

    # Same-kind stitches across adjacent slabs.  Applied in ascending
    # (new node, previous node) order they leave each component rooted
    # at its largest node, which is what the array computation gives.
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
        roots = _largest_node_roots(
            total, np.concatenate(stitch_cur), np.concatenate(stitch_prev)
        )
        sets.parent = roots.tolist()
    else:
        sets.parent = list(range(total))

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


_NO_NODES: frozenset = frozenset()


def _conductor_order(nodes: _SweepNodes, roots):
    """Conductor node ids, and the order key of each one.

    Conductors order by their component's first node, then by node id:
    the order in which port candidates are tried.  The key is
    ``first * len(nodes) + id``.
    """
    conductor = np.flatnonzero(nodes.kind != _CHANNEL)
    component = roots[conductor]
    total = len(nodes)
    first = np.full(total, total, dtype=np.int64)
    np.minimum.at(first, component, conductor)
    return conductor, first[component] * total + conductor


def _port_nodes(nodes: _SweepNodes, conductor, order, ports: Sequence) -> List[int]:
    """The conductor node each port lands on, or -1, per port.

    A port lands on the first conductor run whose closed rectangle
    contains its position, on its own layer; a port without a layer
    may land on any conductor layer, and ``cut``, ``implant`` or any
    other layer names nothing.  "First" follows ``order`` (see
    :func:`_conductor_order`); for a port without a layer the layers
    themselves come first, in order of their first appearance in
    ``order``.

    One array pass: a run can contain the port only in the slab whose
    bottom is the highest at or below it, or in the slab before (when
    the port sits on their shared line), and within one slab and kind
    the runs are sorted by x and never touch, so one ``searchsorted``
    probe per slab and kind finds the only run that can.
    """
    found = [-1] * len(ports)
    if not ports or conductor.size == 0:
        return found
    kind = nodes.kind[conductor]
    x0, x1 = nodes.x0[conductor], nodes.x1[conductor]
    y0, y1 = nodes.y0[conductor], nodes.y1[conductor]
    groups = _CHANNEL  # the conductor kinds are the codes below it
    appearance = np.full(groups, order.max() + 1)
    np.minimum.at(appearance, kind, order)
    layer_rank = np.argsort(np.argsort(appearance, kind="stable"), kind="stable")
    # Probe keys, ascending in node order: the (slab, kind) group, then
    # the rank of x0 among all the x0s.
    slab_ys = batch.unique_sorted(y0)
    xs = batch.unique_sorted(x0)
    group = np.searchsorted(slab_ys, y0) * groups + kind
    keys = group * xs.size + np.searchsorted(xs, x0)

    query_port: List[int] = []
    query_kind: List[int] = []
    for index, port in enumerate(ports):
        if not port.layer:
            query_port += [index] * groups
            query_kind += range(groups)
        elif port.layer in CONDUCTOR_LAYERS:
            query_port.append(index)
            query_kind.append(_KIND_CODE[port.layer])
    if not query_port:
        return found
    query = np.array(query_port, dtype=np.int64)
    wanted = np.array(query_kind, dtype=np.int64)
    px = np.array([ports[index].position.x for index in query_port], dtype=np.int64)
    py = np.array([ports[index].position.y for index in query_port], dtype=np.int64)
    slab = np.searchsorted(slab_ys, py, side="right") - 1
    x_rank = np.searchsorted(xs, px, side="right") - 1
    hit_port: List[Any] = []
    hit_row: List[Any] = []
    for slab_step in (0, 1):
        # The last row at or before the probe key: in the probed group,
        # the run starting nearest left of the port.
        probe_group = (slab - slab_step) * groups + wanted
        row = np.searchsorted(keys, probe_group * xs.size + x_rank, side="right") - 1
        valid = (slab >= slab_step) & (x_rank >= 0) & (row >= 0)
        row = np.where(valid, row, 0)
        valid &= (group[row] == probe_group) & (x1[row] >= px) & (y1[row] >= py)
        hit_port.append(query[valid])
        hit_row.append(row[valid])
    port_of = np.concatenate(hit_port)
    if port_of.size == 0:
        return found
    row_of = np.concatenate(hit_row)
    layerless = np.array([not port.layer for port in ports])
    rank = np.where(layerless[port_of], layer_rank[kind[row_of]], 0)
    best = np.lexsort((order[row_of], rank, port_of))
    leading = np.empty(best.size, dtype=bool)
    leading[0] = True
    np.not_equal(port_of[best][1:], port_of[best][:-1], out=leading[1:])
    chosen = best[leading]
    for index, node in zip(
        port_of[chosen].tolist(), conductor[row_of[chosen]].tolist()
    ):
        found[index] = node
    return found


def _resolve(
    nodes: _SweepNodes,
    roots,
    gate_of: Dict[int, Set[int]],
    terminals_of: Dict[int, Set[int]],
    depletion: Set[int],
    ports: Sequence,
) -> SwitchNetlist:
    """Devices, nets and port names from the swept nodes and their roots.

    Devices come from one loop over the channel nodes, in order of
    their component roots; a conductor component gets a net only when a
    device terminal or a port asks for it, in that order.
    """
    netlist = SwitchNetlist()
    net_of_component: Dict[int, int] = {}
    root_of: List[int] = roots.tolist()

    def net_for(node: int) -> int:
        root = root_of[node]
        net = net_of_component.get(root)
        if net is None:
            net = netlist.add_net()
            net_of_component[root] = net
        return net

    # Channel components -> devices (deduplicated by component root).
    channels = np.flatnonzero(nodes.kind == _CHANNEL).tolist()
    seen_channels: Dict[int, Tuple[Set[int], Set[int], bool]] = {}
    for node in channels:
        root = root_of[node]
        gates, terminals, isdep = seen_channels.get(root) or (set(), set(), False)
        gates |= gate_of.get(node, _NO_NODES)
        terminals |= terminals_of.get(node, _NO_NODES)
        seen_channels[root] = (gates, terminals, isdep or node in depletion)

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

    conductor, order = _conductor_order(nodes, roots)
    for port, node in zip(ports, _port_nodes(nodes, conductor, order, ports)):
        if node >= 0:
            position = port.position
            netlist.name_net(net_for(node), port.name, (position.x, position.y))
    return netlist


def extract_netlist(
    cell: CellDefinition, rules: Optional[DesignRules] = None
) -> SwitchNetlist:
    """Extract the transistor netlist of a placed cell from its masks.

    Returns a :class:`~repro.verify.netlist.SwitchNetlist` whose nets
    carry every hierarchical port name that landed on them, with rails
    classified from ``vdd``/``gnd`` names and global (``!``) names
    merged.

    Three spans split the work: ``extract.flatten`` (masks and ports
    out of the hierarchy), ``extract.sweep`` (the slab walk and every
    node's root) and ``extract.resolve`` (devices, nets and port names).
    """
    with obs_trace.span("extract.flatten"):
        masks = _mask_columns(cell, rules)
        ports = list(cell.flatten_ports(Transform()))

    empty = np.empty(0, dtype=np.int64)
    none = BoxArray(empty, empty, empty, empty)
    sweep_input = {name: masks.get(name, none) for name in _SWEEP_MASKS}

    with obs_trace.span("extract.sweep") as sweep_span:
        sets, nodes, gate_of, terminals_of, depletion, cut_links = _sweep_batch(
            sweep_input
        )
        for linked in cut_links:
            for node in linked[1:]:
                sets.union(linked[0], node)
        roots = _jump(np.array(sets.parent, dtype=np.int64))
        sweep_span.set(nodes=len(nodes))

    with obs_trace.span("extract.resolve", ports=len(ports)):
        netlist = _resolve(nodes, roots, gate_of, terminals_of, depletion, ports)
        netlist.merge_global_names()
        netlist.classify_rails()
        netlist.prune_floating()
    return netlist
