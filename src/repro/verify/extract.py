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

The sweep is three array passes (:func:`_sweep_batch`): one keyed merge
of the five masks' slab runs, one event pass for the channel algebra,
and one keyed overlap query for every relation between runs.  Its
nodes (one per merged run per slab) stay int64 columns
(:class:`_SweepNodes`) from the walk to the netlist: every node's root
is one array computation, devices and nets are array joins over the
relations, and ports attach in one array pass.  No ``Box`` is built per
node, and no Python loop runs per node or per relation pair.

Port and label names attach to the net whose conductor geometry
contains their position; names ending in ``!`` merge globally so
physically disjoint rails become one electrical node.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from ..compact.layers import expand_columns
from ..compact.rules import TECH_A, DesignRules
from ..core.cell import CellDefinition, layer_table
from ..geometry import Transform, batch
from ..geometry.batch import BoxArray
from ..obs import trace as obs_trace
from .netlist import GLOBAL_SUFFIX, Device, SwitchNetlist

__all__ = ["ExtractionError", "extract_netlist", "CONDUCTOR_LAYERS"]

#: layers that carry signals, in drawing order
CONDUCTOR_LAYERS = ("diff", "poly", "metal1")


class ExtractionError(ValueError):
    """Raised when mask geometry cannot be read as a circuit."""


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


class _Sweep(NamedTuple):
    """What one sweep pass hands to the netlist-resolution phase.

    ``roots[i]`` labels node ``i``'s component: its largest node id,
    with same-kind stitches across slabs and contact cuts both applied.
    The relations are pair columns: ``gates`` (channel node, poly node)
    and ``terminals`` (channel node, diffusion node), each grouped by
    channel node in ascending order, a channel's terminals listed as
    found — same slab, then the slab below, then the slab above, each by
    node id; ``depletion`` holds the channel nodes under implant,
    ascending; ``cut_links`` (cut run, conductor node) lists the
    conductors each contact cut overlaps, by cut, then poly, metal1 and
    diffusion, then node id.
    """

    nodes: "_SweepNodes"
    roots: np.ndarray
    gates: Tuple[np.ndarray, np.ndarray]
    terminals: Tuple[np.ndarray, np.ndarray]
    depletion: np.ndarray
    cut_links: Tuple[np.ndarray, np.ndarray]


def _jump(parent):
    """Pointer-jump a parent array until every entry is its root."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand


def _largest_node_roots(total: int, a, b):
    """Every node's root under the unions ``(a[i], b[i])``, as an array.

    The root of a component is its largest node id.  Computed by
    hooking every root onto the largest root across its edges and
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


#: key codes of the run sets the relation query reads: the node kinds,
#: then the two masks that only mark them
_CUT, _IMPLANT = len(_SWEEP_KINDS), len(_SWEEP_KINDS) + 1
#: the coverage states of the channel algebra, bit 0 poly, bit 1
#: diffusion, bit 2 cut: a channel is poly over diffusion without a cut,
#: conducting diffusion is diffusion that is not channel
_CHANNEL_STATES = np.array([state == 0b011 for state in range(8)])
_DIFF_STATES = np.array([state & 0b010 and state != 0b011 for state in range(8)])
#: the probes per channel run, as (target kind, slab step, closed):
#: gate poly, implant, then the terminal diffusion of the same slab
#: (a shared endpoint counts), the slab below and the slab above
_CHANNEL_PROBES = (
    (_KIND_CODE["poly"], 0, False),
    (_IMPLANT, 0, False),
    (_KIND_CODE["diff"], 0, True),
    (_KIND_CODE["diff"], -1, False),
    (_KIND_CODE["diff"], 1, False),
)
#: the conductors a cut links, in link order
_CUT_PROBES = tuple(_KIND_CODE[kind] for kind in ("poly", "metal1", "diff"))


def _runs(ys, sweep_input: Dict[str, BoxArray]):
    """Every run set the walk reads, as ``(kind, slab, x0, x1)`` columns.

    The sets come in kind order — poly, metal1, conducting diffusion,
    channel, cut, implant — each sorted by slab, then x.  One keyed
    merge gives every mask's runs; one event pass over poly, diffusion
    and cut gives the channels (poly and diffusion without a cut) and
    the conducting diffusion (diffusion without channel).
    """
    stride = np.int64(ys.size)
    masks = [sweep_input[name] for name in ("poly", "metal1", "diff", "cut", "implant")]
    boxes = BoxArray(*(
        np.concatenate([getattr(mask, column) for mask in masks])
        for column in BoxArray.__slots__
    ))
    keys = np.repeat(np.arange(5, dtype=np.int64), [len(mask) for mask in masks])
    keyed, x0, x1 = batch.merged_slab_runs(ys, boxes, keys)
    bounds = np.searchsorted(keyed, np.arange(6, dtype=np.int64) * stride).tolist()
    poly, metal, diff, cut, implant = [
        (keyed[lo:hi] - code * stride, x0[lo:hi], x1[lo:hi])
        for code, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]
    member = np.repeat(np.arange(3, dtype=np.int64), [poly[0].size, diff[0].size, cut[0].size])
    channel, diff_cond = batch.combine_runs(
        *(np.concatenate(column) for column in zip(poly, diff, cut)),
        member, (_CHANNEL_STATES, _DIFF_STATES),
    )
    kinds = (poly, metal, diff_cond, channel, cut, implant)
    return (
        np.repeat(np.arange(len(kinds), dtype=np.int64), [run[0].size for run in kinds]),
        *(np.concatenate(column) for column in zip(*kinds)),
    )


def _sweep_batch(sweep_input: Dict[str, BoxArray]) -> _Sweep:
    """Numpy batch build of the slab walk.

    ``sweep_input`` holds one :class:`~repro.geometry.batch.BoxArray`
    per mask of ``_SWEEP_MASKS``; the interpreted oracle takes the same
    masks as ``Box`` lists.  All slabs are materialised at once, in
    three array passes:

    * one keyed :func:`~repro.geometry.batch.merged_slab_runs` gives
      every mask's merged runs per slab (:func:`_runs`);
    * one :func:`~repro.geometry.batch.combine_runs` event pass over
      poly, diffusion and cut gives the channels and the conducting
      diffusion (:func:`_runs`);
    * one keyed :func:`~repro.geometry.batch.overlap_pairs` query
      answers every per-slab interval scan of the interpreted walk:
      same-kind stitches across slabs, gates, depletion, terminals and
      cut links.  Every run set sits in one key space,
      ``kind * ys.size + slab + 1``, so each probe names its target
      kind and slab by its key.

    Node ids are assigned in exactly the interpreted order — (slab,
    kind, x) — and the nodes stay columns.  The roots come from one
    array computation (:func:`_largest_node_roots`) over the stitches
    and cut links.  A cut links conductors only, so a channel's root
    is the largest node of its stitched region, the root the
    interpreted walk's union sequence gives it, and the devices keep
    the interpreted order.
    """
    empty = np.empty(0, dtype=np.int64)
    nothing = _Sweep(
        _SweepNodes(empty, empty, empty, empty, empty), empty,
        (empty, empty), (empty, empty), empty, (empty, empty),
    )
    ys = batch.slab_grid(sweep_input.values())
    if ys.size < 2:
        return nothing
    stride = np.int64(ys.size)
    kind, slab, x0, x1 = _runs(ys, sweep_input)
    total = int(np.count_nonzero(kind < _CUT))
    if total == 0:
        return nothing
    key = kind * stride + slab + 1

    # Node ids in interpreted creation order: slab, then kind, then x.
    # Each kind's runs are sorted by (slab, x), so a stable sort on
    # (slab, kind) finishes the order.
    order = np.argsort(slab[:total] * _CUT + kind[:total], kind="stable")
    node_of = np.empty(total, dtype=np.int64)
    node_of[order] = np.arange(total, dtype=np.int64)
    node_slab = slab[order]
    nodes = _SweepNodes(
        kind[order], x0[order], ys[node_slab], x1[order], ys[node_slab + 1]
    )

    # One query for every relation: a probe keyed k * stride + s + 1
    # meets the runs of kind k in slab s.  The probes are every node run
    # (its stitch to the slab below), then each channel run once per
    # channel probe, then each cut run once per kind it links.
    chan_rows = np.flatnonzero(kind == _CHANNEL)
    cut_rows = np.flatnonzero(kind == _CUT)
    chan_keys = np.array([code * stride + step for code, step, _ in _CHANNEL_PROBES])
    cut_keys = np.array(_CUT_PROBES) * stride
    rows = np.concatenate([
        np.arange(total),
        np.repeat(chan_rows, len(_CHANNEL_PROBES)),
        np.repeat(cut_rows, len(_CUT_PROBES)),
    ])
    channel_start = total
    cut_start = channel_start + chan_rows.size * len(_CHANNEL_PROBES)
    closed = np.zeros(rows.size, dtype=bool)
    closed[channel_start:cut_start] = np.tile(
        [flag for _, _, flag in _CHANNEL_PROBES], chan_rows.size
    )
    query, target = batch.overlap_pairs(
        np.concatenate([
            key[:total] - 1,
            (slab[chan_rows, None] + 1 + chan_keys).ravel(),
            (slab[cut_rows, None] + 1 + cut_keys).ravel(),
        ]),
        x0[rows], x1[rows], key, x0, x1, closed=closed,
    )
    split = np.searchsorted(query, [channel_start, cut_start]).tolist()

    stitched = slice(0, split[0])
    probe = query[split[0]:split[1]] - channel_start
    probe_kind = probe % len(_CHANNEL_PROBES)
    probe_node = node_of[chan_rows[probe // len(_CHANNEL_PROBES)]]
    probe_target = target[split[0]:split[1]]
    gated = probe_kind == 0
    terminal = probe_kind >= 2
    gates = (probe_node[gated], node_of[probe_target[gated]])
    terminals = (probe_node[terminal], node_of[probe_target[terminal]])
    depletion = batch.unique_sorted(probe_node[probe_kind == 1])

    link_cut = (query[split[1]:] - cut_start) // len(_CUT_PROBES)
    link_node = node_of[target[split[1]:]]
    # A cut joins the conductors it links: chain each to the next.
    chained = np.flatnonzero(link_cut[1:] == link_cut[:-1])
    roots = _largest_node_roots(
        total,
        np.concatenate([node_of[query[stitched]], link_node[chained]]),
        np.concatenate([node_of[target[stitched]], link_node[chained + 1]]),
    )
    return _Sweep(nodes, roots, gates, terminals, depletion, (link_cut, link_node))


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
    # Each port takes its least (rank, order) hit.  An order key is
    # below len(nodes) ** 2 and ends in the node id (its remainder by
    # len(nodes)), so one minimum per port names the node.
    total = np.int64(len(nodes))
    unset = np.iinfo(np.int64).max
    best = np.full(len(ports), unset, dtype=np.int64)
    np.minimum.at(best, port_of, rank * total * total + order[row_of])
    return np.where(best == unset, -1, best % total).tolist()


def _collected(pairs, channels) -> Set[int]:
    """The node set a device collects from one relation, built by the
    set operations of the interpreted walk: per channel node, in
    ascending order, the set of its partners in the order found, unioned
    into the device's set.  Those operations fix the set's iteration
    order, and that order numbers the nets the device asks for first.
    """
    chan, node = pairs
    starts = np.searchsorted(chan, channels).tolist()
    stops = np.searchsorted(chan, channels, side="right").tolist()
    collected: Set[int] = set()
    for start, stop in zip(starts, stops):
        collected |= set(node[start:stop].tolist())
    return collected


def _resolve(sweep: _Sweep, ports: Sequence) -> SwitchNetlist:
    """Devices, nets and port names from the swept nodes and their roots.

    A device is a channel component, in ascending root order.  A
    conductor component gets a net when it is first asked for: the
    devices in order, each its gates, then its terminals, then the
    ports in order.  When one device step asks for several new
    components, the iteration order of the node set the device collects
    (:func:`_collected`) orders them.  Components that carry one global
    (``!``) name share a net, numbered where the first of them is; nets
    with neither a name nor a device pin (a depletion load's gate stub)
    are dropped, and the rest keep their order.
    """
    nodes, roots = sweep.nodes, sweep.roots
    total = len(nodes)
    channels = np.flatnonzero(nodes.kind == _CHANNEL)
    device_roots = batch.unique_sorted(roots[channels])
    devices = int(device_roots.size)

    def per_device(chan, node):
        """The distinct (device, component) pairs of a relation."""
        pairs = batch.unique_sorted(
            np.searchsorted(device_roots, roots[chan]) * total + roots[node]
        )
        return pairs // total, pairs % total

    gate_device, gate_comp = per_device(*sweep.gates)
    term_device, term_comp = per_device(*sweep.terminals)
    gate_count = np.bincount(gate_device, minlength=devices)
    term_count = np.bincount(term_device, minlength=devices)
    depletion = np.zeros(devices, dtype=bool)
    depletion[np.searchsorted(device_roots, roots[sweep.depletion])] = True
    bad = np.flatnonzero((term_count != 2) | (~depletion & (gate_count != 1)))
    if bad.size:
        first = int(bad[0])
        terminals = int(term_count[first])
        if terminals < 2:
            raise ExtractionError(
                f"channel region with {terminals} terminal(s); "
                "a transistor needs source and drain diffusion"
            )
        if terminals > 2:
            raise ExtractionError(
                f"channel region touching {terminals} diffusion"
                " nets; split the channel or merge the diffusion"
            )
        raise ExtractionError(
            f"enhancement channel with {int(gate_count[first])} gate nets"
        )

    conductor, order = _conductor_order(nodes, roots)
    landed = [
        (port, node)
        for port, node in zip(ports, _port_nodes(nodes, conductor, order, ports))
        if node >= 0
    ]
    count = len(landed)
    port_comp = roots[np.array([node for _, node in landed], dtype=np.int64)]

    # Nets before merging, in order of first request.  A request's key
    # is its step: device d's gates 2d, its terminals 2d + 1, the ports
    # last, in port order.
    step = np.int64(count + 1)
    span = (2 * devices + 1) * step
    requests = batch.unique_sorted(np.concatenate([
        gate_comp * span + 2 * gate_device * step,
        term_comp * span + (2 * term_device + 1) * step,
        port_comp * span + 2 * devices * step + np.arange(count, dtype=np.int64),
    ]))
    comp = requests // span
    lead = np.ones(comp.size, dtype=bool)
    np.not_equal(comp[1:], comp[:-1], out=lead[1:])
    comps, first_key = comp[lead], requests[lead] % span
    tie = np.zeros(comps.size, dtype=np.int64)
    keys = np.sort(first_key)
    for key in batch.unique_sorted(keys[1:][keys[1:] == keys[:-1]]).tolist():
        # One device step asks for several new components.
        device, terminal = divmod(key // int(step), 2)
        collected = _collected(
            sweep.terminals if terminal else sweep.gates,
            channels[roots[channels] == device_roots[device]],
        )
        seen: Dict[int, int] = {}
        for node in collected:
            seen.setdefault(int(roots[node]), len(seen))
        members = np.flatnonzero(first_key == key)
        tie[members] = [seen[member] for member in comps[members].tolist()]
    # The (first request, tie) keys are distinct and, the ties counting
    # fewer than the components, fit where the request keys do.
    width = int(tie.max()) + 1 if tie.size else 1
    net = np.empty(comps.size, dtype=np.int64)
    net[np.argsort(first_key * width + tie)] = np.arange(comps.size, dtype=np.int64)

    def net_of(components):
        return net[np.searchsorted(comps, components)]

    # Global names merge nets: a class is numbered by its first net.
    port_net = net_of(port_comp).tolist()
    label = list(range(comps.size))

    def find(item: int) -> int:
        while label[item] != item:
            item = label[item]
        return item

    holder: Dict[str, int] = {}
    for (port, _), item in zip(landed, port_net):
        leaf = port.name.rsplit("/", 1)[-1].lower()
        if leaf.endswith(GLOBAL_SUFFIX):
            low, high = sorted((find(item), find(holder.setdefault(leaf, item))))
            label[high] = low
    merged = _jump(np.array(label, dtype=np.int64))
    # A class survives with a name or a device pin.
    enhancement = ~depletion[gate_device]
    gate_net = np.zeros(devices, dtype=np.int64)
    gate_net[gate_device[enhancement]] = net_of(gate_comp[enhancement])
    term_net = np.sort(net_of(term_comp).reshape(devices, 2), axis=1)
    used = np.zeros(comps.size, dtype=bool)
    used[merged[port_net]] = True
    used[merged[term_net.ravel()]] = True
    used[merged[gate_net[~depletion]]] = True
    final = (np.cumsum(used) - 1)[merged]

    netlist = SwitchNetlist()
    netlist.net_names = [set() for _ in range(int(used.sum()))]
    port_final = final[port_net].tolist()
    # A net's position is its first port's, the nets taken by number.
    for index in sorted(range(count), key=port_net.__getitem__):
        port = landed[index][0]
        position = port.position
        netlist.name_net(port_final[index], port.name, (position.x, position.y))
    netlist.classify_rails()
    netlist.devices = [
        Device("dep", (("ch", a), ("ch", b))) if isdep
        else Device("enh", (("g", gate), ("ch", a), ("ch", b)))
        for isdep, gate, (a, b) in zip(
            depletion.tolist(), final[gate_net].tolist(), final[term_net].tolist()
        )
    ]
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
        sweep = _sweep_batch(sweep_input)
        sweep_span.set(nodes=len(sweep.nodes))

    with obs_trace.span("extract.resolve", ports=len(ports)):
        return _resolve(sweep, ports)
