"""Connectivity extraction through routed wire geometry.

Coincidence extraction (:func:`repro.verify.cellgraph.cell_graph_netlist`)
connects ports that land on the same point — the abutment story.  Routed
composites connect ports through *wires*, so this module traces the
wire geometry instead: same-layer boxes that touch are electrically
one node, and a via square joins whatever it overlaps across layers
(vias are only emitted at genuine junctions, so a branch crossing a
foreign trunk — no via — stays unconnected).  The result is the
round-trip oracle for :func:`repro.route.compose.compose`: the groups
extracted here must reproduce exactly the nets that were requested.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..core.cell import CellDefinition, Port
from ..geometry import Box, Transform, batch
from .style import RouteStyle

__all__ = [
    "wire_components",
    "routed_netlist",
]


class _UnionFind:
    """Path-compressed disjoint sets over integer ids."""

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, a: int) -> int:
        """Representative of ``a``'s set."""
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> None:
        """Merge the sets holding ``a`` and ``b``."""
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _grouped(
    items: List[Tuple[str, Box]], sets: _UnionFind
) -> List[List[Tuple[str, Box]]]:
    """Canonical component listing of a solved union-find partition."""
    grouped: Dict[int, List[Tuple[str, Box]]] = {}
    for index, item in enumerate(items):
        grouped.setdefault(sets.find(index), []).append(item)
    return list(grouped.values())


def wire_components(
    layers: Dict[str, List[Box]], style: RouteStyle
) -> List[List[Tuple[str, Box]]]:
    """Group wire boxes into electrical components.

    Same-layer boxes that touch or overlap merge; across layers only a
    via square merges what it overlaps.  Components are ordered by
    first box in the canonical item order, and boxes within a component
    likewise.

    Two boxes overlap closed in y exactly when they share one of the
    ``ymin``/``ymax`` event lines, so connectivity decomposes per event
    line.  Same-layer touching is interval-graph connectivity: per
    (layer, line), chain every box whose start reaches back to the
    running ``xmax`` argmax of its predecessors — a segmented scan
    producing O(incidence) union edges instead of all overlapping
    pairs.  Via junctions are enumerated with two keyed
    ``searchsorted`` passes (the later starter's start lies inside the
    partner's span), deduplicated, and fed to the same union-find.
    The resulting partition, hence the returned grouping, is identical
    to a plane sweep's that tests every live pair (the oracle,
    ``tests/oracles/route_extract.py``).
    """
    items: List[Tuple[str, Box]] = [
        (layer, box) for layer in sorted(layers) for box in layers[layer]
    ]
    items.sort(key=lambda item: item[1].xmin)
    count = len(items)
    sets = _UnionFind(count)
    if count < 2:
        return _grouped(items, sets)
    layer_names = sorted(layers)
    code_of = {name: index for index, name in enumerate(layer_names)}
    arrays = batch.boxes_to_arrays([box for _, box in items])
    codes = np.fromiter(
        (code_of[layer] for layer, _ in items), dtype=np.int64, count=count
    )
    lines = batch.unique_sorted(np.concatenate([arrays.ymin, arrays.ymax]))
    first = np.searchsorted(lines, arrays.ymin)
    covered = np.searchsorted(lines, arrays.ymax) - first + 1  # inclusive
    total = int(covered.sum())
    entry = np.repeat(np.arange(count, dtype=np.int64), covered)
    bases = np.repeat(np.cumsum(covered) - covered, covered)
    line = np.repeat(first, covered) + np.arange(total, dtype=np.int64) - bases
    entry_x0 = arrays.xmin[entry]
    entry_x1 = arrays.xmax[entry]
    pair_codes = []

    # Same-layer chains per (layer, line).
    group = codes[entry] * np.int64(lines.size + 1) + line
    order = np.lexsort((entry_x1, entry_x0, group))
    sorted_group = group[order]
    sorted_entry = entry[order]
    # searchsorted-left over the duplicate-keeping sorted vector still
    # ranks and decodes xmax correctly (equal values share one index).
    unique_xmax = np.sort(arrays.xmax)
    combined = (
        np.searchsorted(unique_xmax, entry_x1[order]) * np.int64(count)
        + sorted_entry
    )
    running = batch.segmented_cummax(sorted_group, combined)
    link = np.empty(total, dtype=bool)
    link[0] = False
    link[1:] = (sorted_group[1:] == sorted_group[:-1]) & (
        entry_x0[order][1:] <= unique_xmax[running[:-1] // np.int64(count)]
    )
    indices = np.flatnonzero(link)
    if indices.size:
        chained = sorted_entry[indices]
        reached = running[indices - 1] % np.int64(count)
        pair_codes.append(
            np.minimum(chained, reached) * np.int64(count)
            + np.maximum(chained, reached)
        )

    # Via junctions: closed overlap with a via square joins across layers.
    via_code = code_of.get(style.via_layer, -1) if style.via_layer else -1
    if via_code >= 0:
        is_via = codes[entry] == via_code
        span = np.int64(int(arrays.xmax.max()) - int(arrays.xmin.min()) + 2)
        base = np.int64(int(arrays.xmin.min()))
        for queries, targets in (
            (np.flatnonzero(is_via), np.flatnonzero(~is_via)),
            (np.flatnonzero(~is_via), np.flatnonzero(is_via)),
        ):
            if queries.size == 0 or targets.size == 0:
                continue
            target_key = line[targets] * span + (entry_x0[targets] - base)
            target_order = np.argsort(target_key)
            target_key = target_key[target_order]
            target_box = entry[targets][target_order]
            lo = np.searchsorted(
                target_key, line[queries] * span + (entry_x0[queries] - base),
                side="left",
            )
            hi = np.searchsorted(
                target_key, line[queries] * span + (entry_x1[queries] - base),
                side="right",
            )
            query_rows, target_rows = batch.expand_ranges(lo, hi)
            if query_rows.size:
                a = entry[queries][query_rows]
                b = target_box[target_rows]
                pair_codes.append(
                    np.minimum(a, b) * np.int64(count) + np.maximum(a, b)
                )

    if pair_codes:
        for code in batch.unique_sorted(np.concatenate(pair_codes)).tolist():
            sets.union(code // count, code % count)
    return _grouped(items, sets)


def _attaches(port: Port, layer: str, box: Box, via_layer: str) -> bool:
    """True when a port lands on a wire box it can connect to."""
    if not box.contains_point(port.position):
        return False
    return not port.layer or port.layer == layer or layer == via_layer


def routed_netlist(
    composite: CellDefinition,
    style: RouteStyle,
    wires_name: str = "wires",
) -> List[List[str]]:
    """Extract port groups connected through a composite's wiring cell.

    Finds the instance named ``wires_name``, traces its geometry into
    components, and attaches every *other* hierarchical port that lands
    on a component's box.  Returns sorted groups of hierarchical port
    names, one per wire component that touches at least one port — the
    connectivity round-trip oracle for routed composites.
    """
    wires_instance = None
    for instance in composite.instances:
        if instance.name == wires_name:
            wires_instance = instance
            break
    if wires_instance is None:
        raise ValueError(f"composite has no instance named {wires_name!r}")
    layers: Dict[str, List[Box]] = {}
    transform = wires_instance.transform
    for layer_box in wires_instance.definition.flatten(transform):
        layers.setdefault(layer_box.layer, []).append(layer_box.box)
    components = wire_components(layers, style)

    prefix = f"{wires_name}/"
    ports = [
        port
        for port in composite.flatten_ports(Transform())
        if not port.name.startswith(prefix)
    ]
    groups: List[List[str]] = []
    for component in components:
        attached = sorted(
            {
                port.name
                for port in ports
                for layer, box in component
                if _attaches(port, layer, box, style.via_layer)
            }
        )
        if attached:
            groups.append(attached)
    return sorted(groups)
