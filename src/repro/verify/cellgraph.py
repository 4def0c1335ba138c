"""Cell-level netlist extraction for stylised sample libraries.

The multiplier sample (chapter 5) is drawn *above* the transistor
level: its basic cell abstracts the full adder to buses, ports and an
active area, and its function is selected by personalisation masks
superimposed on the cell.  Mask-level device extraction therefore has
nothing to bite on; the verifiable content of such a layout is

* **which** personalised cell sits at each array position (the masks),
* **how** the cells' ports are wired through abutment and the
  register stacks (the seams).

This module extracts exactly that as a cell-level
:class:`~repro.verify.netlist.SwitchNetlist`: one device per leaf cell
occurrence, kind encoding the cell type *and* the masks landed on it,
pins labelled with the cell's port names, and nets formed by port
coincidence (ports sharing a grid point are one node — the same
convention as :mod:`repro.layout.connectivity`, with layers ignored
because the stylised seams mix them).  LVS against the generator's
``intended_netlist`` hook then checks placement and wiring;
:func:`multiplier_personality` reads the personality grid back for the
functional product check.  Both read the host occurrences of one
hierarchy walk (:func:`collect_occurrences`).  It visits each distinct
(definition, orientation) once, placing instances with column
arithmetic over the cells' instance tables, lands every mask on its
host in one vectorised lookup in a bucket grid over the hosts'
bounding boxes, and reports a mask that lands on no host, or on
several, as a stray.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.cell import CellDefinition
from ..geometry import ALL_ORIENTATIONS, NORTH
from ..geometry.batch import expand_ranges
from .netlist import SwitchNetlist

__all__ = [
    "collect_occurrences",
    "cell_graph_netlist",
    "multiplier_personality",
    "MULTIPLIER_HOSTS",
    "MULTIPLIER_MASKS",
]

#: cells that become devices in the multiplier's cell graph
MULTIPLIER_HOSTS = ("basiccell", "reg")
#: personalisation masks folded into their host's device kind
MULTIPLIER_MASKS = (
    "type1",
    "type2",
    "car1",
    "car2",
    "goboth",
    "goin",
    "goout",
    "sgoin",
    "sgoout",
    "phi1_1",
    "phi1_2",
    "phi1_3",
    "phi1_4",
    "phi2_1",
    "phi2_2",
    "phi2_3",
    "phi2_4",
)


class _Occurrence:
    """One placed host cell with its masks and ports.

    ``bbox`` is the world ``(xmin, ymin, xmax, ymax)``, or None for an
    empty cell.  ``ports`` is shared by every occurrence of one
    definition in one orientation: ``(name, dx, dy)`` offsets from
    ``origin``.
    """

    __slots__ = ("celltype", "prefix", "origin", "bbox", "masks", "ports")

    def __init__(self, celltype, prefix, origin, bbox, ports, masks=None):
        self.celltype = celltype
        self.prefix = prefix
        self.origin = origin
        self.bbox = bbox
        self.masks: List[str] = [] if masks is None else masks
        self.ports: List[Tuple[str, int, int]] = ports


#: ``_LINEAR[code]`` is ``(a, b, c, d)``: orientation ``code`` maps
#: ``(x, y)`` to ``(a x + b y, c x + d y)``
_LINEAR = np.array([sum(o.matrix(), ()) for o in ALL_ORIENTATIONS], dtype=np.int64)
#: ``_COMPOSE[o, t]`` is the code of orientation ``o`` composed after ``t``
_COMPOSE = np.array(
    [[o.compose(t).code for t in ALL_ORIENTATIONS] for o in ALL_ORIENTATIONS],
    dtype=np.int64,
)
_NONE = np.zeros(0, dtype=np.int64)


class _Below(NamedTuple):
    """The host occurrences and mask hits below one definition placed at
    the origin under one orientation, in walk order.

    Host ``i`` is host cell ``host[i]`` (an index into the walk's host
    definitions) at ``(x[i], y[i])`` under orientation code
    ``turn[i]``, named by the instance path ``names[i]``; mask ``j`` is
    mask ``mask[j]`` (an index into the walk's mask names) placed at
    ``(mask_x[j], mask_y[j])``.
    """

    x: np.ndarray
    y: np.ndarray
    turn: np.ndarray
    host: np.ndarray
    names: List[str]
    mask_x: np.ndarray
    mask_y: np.ndarray
    mask: np.ndarray


_NOTHING = _Below(_NONE, _NONE, _NONE, _NONE, [], _NONE, _NONE, _NONE)


def _tags(instances, positions: np.ndarray) -> List[str]:
    """The path tags of the instances at ``positions``: the instance
    name, or ``<celltype>#<position>`` for an unnamed one."""
    return [
        instances[position].name or f"{instances[position]._definition.name}#{position}"
        for position in positions.tolist()
    ]


def _merged(own_rows: np.ndarray, below_rows: np.ndarray):
    """The order that puts each row's own entry before the entries
    below it, rows in order (own entries first in the concatenation)."""
    if not len(own_rows) or not len(below_rows):
        return None
    return np.argsort(np.concatenate((own_rows * 2, below_rows * 2 + 1)), kind="stable")


class _Walk:
    """One hierarchy walk of :func:`collect_occurrences`, over distinct
    (definition, orientation) pairs rather than instance paths."""

    def __init__(self, hosts: Sequence[str], masks: Sequence[str]) -> None:
        self.host_names = set(hosts)
        self.mask_names = list(dict.fromkeys(masks))
        self.mask_codes = {name: code for code, name in enumerate(self.mask_names)}
        self.hosts: Dict[CellDefinition, int] = {}
        self.memo: Dict[Tuple[CellDefinition, int], _Below] = {}

    def below(self, node: CellDefinition, turn: int) -> _Below:
        """Every host and mask under ``node`` placed at the origin under
        orientation code ``turn``.

        The instance table's rows are turned and their orientations
        composed as columns.  Each row contributes its own entry when
        it calls a host or a mask, then, when its child has instances,
        the child's entries (memoised per child and orientation) moved
        to its point of call, as in
        :meth:`~repro.core.cell.CellDefinition.flat_columns`.
        """
        found = self.memo.get((node, turn))
        if found is not None:
            return found
        table = node.instance_table()
        if not len(table.rows):
            self.memo[node, turn] = _NOTHING
            return _NOTHING
        a, b, c, d = _LINEAR[turn].tolist()
        x = a * table.x + b * table.y
        y = c * table.x + d * table.y
        turns = _COMPOSE[turn][table.turn]
        kinds = []
        for child in table.children:
            if child.name in self.host_names:
                code = self.hosts.setdefault(child, len(self.hosts))
                kinds.append((code, -1, len(child.instances)))
            else:
                kinds.append((-1, self.mask_codes.get(child.name, -1), len(child.instances)))
        host, mask, deep = np.array(kinds, dtype=np.int64)[table.child].T
        own = np.flatnonzero(host >= 0)
        hit = np.flatnonzero(mask >= 0)
        hosts = [x[own], y[own], turns[own], host[own]]
        names = _tags(node.instances, table.rows[own])
        masks = [x[hit], y[hit], mask[hit]]
        deep = np.flatnonzero(deep)
        host_order = mask_order = None
        if len(deep):
            groups, member = np.unique(
                table.child[deep] * 8 + turns[deep], return_inverse=True
            )
            blocks = [
                self.below(table.children[key >> 3], key & 7) for key in groups.tolist()
            ]
            hosts, rows, index, host_order = _stacked(
                own, hosts, blocks, ("x", "y", "turn", "host"), member, deep, x, y
            )
            tags = _tags(node.instances, table.rows[deep])
            below_names = [name for block in blocks for name in block.names]
            names += [
                f"{tags[row]}/{below_names[source]}"
                for row, source in zip(rows.tolist(), index.tolist())
            ]
            masks, _, _, mask_order = _stacked(
                hit, masks, blocks, ("mask_x", "mask_y", "mask"), member, deep, x, y
            )
        if host_order is not None:
            hosts = [column[host_order] for column in hosts]
            names = [names[index] for index in host_order.tolist()]
        if mask_order is not None:
            masks = [column[mask_order] for column in masks]
        result = _Below(*hosts, names, *masks)
        self.memo[node, turn] = result
        return result


def _stacked(own_rows, own, blocks, fields, member, deep, x, y):
    """The ``own`` columns (one entry per row of ``own_rows``) followed
    by the ``fields`` of each ``deep`` row's block ``member[i]`` moved
    to the row's point of call ``(x, y)``.

    Returns the columns, each entry from below's row (an index into
    ``deep``) and index in the blocks end to end, and the order that
    puts the entries in row order, each row's own entry first (None
    when the columns already are).
    """
    parts = [[getattr(block, field) for block in blocks] for field in fields]
    sizes = np.array([len(part) for part in parts[0]], dtype=np.int64)
    firsts = (np.cumsum(sizes) - sizes)[member]
    rows, index = expand_ranges(firsts, firsts + sizes[member])
    at = deep[rows]
    shifts = (x[at], y[at]) + (0,) * (len(fields) - 2)
    columns = [
        np.concatenate((column, np.concatenate(part)[index] + shift))
        for column, part, shift in zip(own, parts, shifts)
    ]
    return columns, rows, index, _merged(own_rows, at)


def collect_occurrences(
    cell: CellDefinition,
    hosts: Sequence[str] = MULTIPLIER_HOSTS,
    masks: Sequence[str] = MULTIPLIER_MASKS,
) -> Tuple[List[_Occurrence], List[str]]:
    """Collect the placed hierarchy's hosts; land each mask on its host cell.

    Returns the host occurrences, masks attached, in walk order, plus
    one line per stray mask: a mask inside no host's bounding box, or
    inside more than one, has no cell to personalise.
    :func:`cell_graph_netlist` and :func:`multiplier_personality` both
    read the occurrences this returns.

    The walk visits each distinct (definition, orientation) once and
    places its instances with column arithmetic over the definitions'
    instance tables; the masks land on hosts in one vectorised grid
    lookup.  Only the host names are formed per occurrence.
    """
    walk = _Walk(hosts, masks)
    below = walk.below(cell, NORTH.code)
    definitions = list(walk.hosts)
    groups, member = np.unique(below.host * 8 + below.turn, return_inverse=True)
    # per (host, orientation code): its bbox and ports turned about the origin
    shapes = []
    for key in groups.tolist():
        definition, orientation = definitions[key >> 3], ALL_ORIENTATIONS[key & 7]
        bbox = definition.bounding_box()
        if bbox is not None:
            bbox = bbox.transformed(orientation)
        shapes.append((definition.name, bbox, [
            (port.name, *orientation.apply(port.position.x, port.position.y))
            for port in definition.ports
        ]))
    drawn = np.array([bbox is not None for _, bbox, _ in shapes], dtype=bool)[member]
    corners = np.array(
        [(0, 0, 0, 0) if bbox is None else (bbox.xmin, bbox.ymin, bbox.xmax, bbox.ymax)
         for _, bbox, _ in shapes],
        dtype=np.int64,
    ).reshape(-1, 4)[member]
    boxes = corners + np.stack((below.x, below.y, below.x, below.y), axis=1)
    landed, strays = _land_masks(boxes, drawn, below, walk.mask_names)
    occurrences = [
        _Occurrence(shapes[group][0], name, (x, y), bbox if is_drawn else None,
                    shapes[group][2], masks)
        for group, name, x, y, bbox, is_drawn, masks in zip(
            member.tolist(), below.names, below.x.tolist(), below.y.tolist(),
            map(tuple, boxes.tolist()), drawn.tolist(), landed,
        )
    ]
    return occurrences, strays


def _land_masks(
    boxes: np.ndarray, drawn: np.ndarray, below: _Below, mask_names: List[str]
) -> Tuple[List[List[str]], List[str]]:
    """Land each mask of ``below`` on the one host whose bbox contains it.

    ``boxes`` holds each host's world ``(xmin, ymin, xmax, ymax)``, to
    be read only where ``drawn``.  The hosts tile the array, so in a
    grid of buckets as large as the largest host, a host containing a
    mask has its lower-left corner in the mask's bucket or in the
    bucket to its left, below it, or both.  Each mask is tested against
    the hosts filed under those four buckets, all masks at once.
    Returns the names of the masks landed on each host, in walk order,
    and a line for each mask with no host, or with several.
    """
    landed: List[List[str]] = [[] for _ in range(len(boxes))]
    count = len(below.mask)
    if not count:
        return landed, []
    hosts = np.flatnonzero(drawn)
    x0, y0, x1, y1 = boxes[hosts].T
    width = max(int((x1 - x0).max(initial=0)), 1)
    height = max(int((y1 - y0).max(initial=0)), 1)
    # One integer per bucket, columns ``span`` apart.  A neighbour key
    # outside the host rows may alias another column's bucket; the
    # containment test drops the extra candidates that brings.
    low = int((y0 // height).min(initial=0)) - 1
    span = int((y0 // height).max(initial=0)) - low + 2
    keys = (x0 // width) * span + (y0 // height - low)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    mx, my = below.mask_x, below.mask_y
    wanted = (
        ((mx // width)[None, :] + np.array([[-1], [-1], [0], [0]])) * span
        + (my // height - low)[None, :] + np.array([[-1], [0], [-1], [0]])
    ).ravel()
    which, host = expand_ranges(
        np.searchsorted(keys, wanted, "left"), np.searchsorted(keys, wanted, "right")
    )
    which, host = which % count, order[host]
    px, py = mx[which], my[which]
    inside = (x0[host] <= px) & (px < x1[host]) & (y0[host] <= py) & (py < y1[host])
    which, host = which[inside], hosts[host[inside]]
    hits = np.bincount(which, minlength=count)
    target = np.zeros(count, dtype=np.int64)
    target[which] = host
    single = hits == 1
    for index, code in zip(target[single].tolist(), below.mask[single].tolist()):
        landed[index].append(mask_names[code])
    strays = []
    for index in np.flatnonzero(~single).tolist():
        hit = int(hits[index])
        where = f"{hit} host cells" if hit else "no host cell"
        strays.append(
            f"mask {mask_names[int(below.mask[index])]} at"
            f" {(int(mx[index]), int(my[index]))} lands on {where}"
        )
    return landed, strays


def _device_kind(occurrence: _Occurrence) -> str:
    """Fold the landed masks into a canonical device kind string.

    The phi clock masks collapse to their set name (``phi1``/``phi2``)
    — four corner contacts of one set always travel together.
    """
    masks: Set[str] = set()
    for mask in occurrence.masks:
        if mask.startswith("phi"):
            masks.add(mask.split("_", 1)[0])
        else:
            masks.add(mask)
    return "/".join([occurrence.celltype] + sorted(masks))


def cell_graph_netlist(occurrences: Sequence[_Occurrence]) -> SwitchNetlist:
    """Build the cell-level netlist of collected host occurrences.

    One device per placed host cell (kind = cell type plus its masks,
    pins = its ports), nets by exact port-position coincidence.
    ``occurrences`` come from :func:`collect_occurrences`.
    """
    netlist = SwitchNetlist()
    net_at: Dict[Tuple[int, int], int] = {}
    for occurrence in sorted(
        occurrences, key=lambda o: (o.origin[1], o.origin[0], o.celltype)
    ):
        pins = []
        x, y = occurrence.origin
        for name, dx, dy in occurrence.ports:
            position = (x + dx, y + dy)
            net = net_at.get(position)
            if net is None:
                net = net_at[position] = netlist.add_net()
                netlist.net_positions[net] = position
            netlist.net_names[net].add(f"{occurrence.prefix}/{name}")
            pins.append((name, net))
        netlist.add_device(_device_kind(occurrence), pins)
    return netlist


def multiplier_personality(
    occurrences: Sequence[_Occurrence],
) -> Tuple[int, int, List[List[str]], List[str]]:
    """Read the multiplier's personality grid back from its host cells.

    ``occurrences`` come from :func:`collect_occurrences`; only the
    ``basiccell`` hosts and their ``type1``/``type2`` masks are read.
    Returns ``(xsize, ysize, array_grid, cpa_row)``: the carry-save
    grid of ``"I"``/``"II"`` cell types indexed ``[row][column]`` with
    row 0 the *top* array row, plus the carry-propagate row's types.
    Raises :class:`ValueError` when the placed cells do not form a full
    rectangular grid or a cell carries no (or conflicting) type masks.
    """
    occurrences = [o for o in occurrences if o.celltype == "basiccell"]
    if not occurrences:
        raise ValueError("no basiccell instances found")
    xs = sorted({occurrence.origin[0] for occurrence in occurrences})
    ys = sorted({occurrence.origin[1] for occurrence in occurrences})
    column_of = {x: index for index, x in enumerate(xs)}
    row_of = {y: index for index, y in enumerate(reversed(ys))}
    grid: List[List[Optional[str]]] = [
        [None] * len(xs) for _ in range(len(ys))
    ]
    for occurrence in occurrences:
        types = [m for m in occurrence.masks if m in ("type1", "type2")]
        if len(types) != 1:
            raise ValueError(
                f"cell at {occurrence.origin} carries {len(types)} type masks"
            )
        row = row_of[occurrence.origin[1]]
        column = column_of[occurrence.origin[0]]
        if grid[row][column] is not None:
            raise ValueError(f"two cells at grid position {(column, row)}")
        grid[row][column] = "II" if types[0] == "type2" else "I"
    if any(entry is None for row in grid for entry in row):
        raise ValueError("basiccell grid has holes")
    xsize = len(xs)
    ysize = len(ys) - 1  # the last row is the carry-propagate row
    if ysize < 1:
        raise ValueError("multiplier needs at least one carry-save row")
    return xsize, ysize, [list(row) for row in grid[:ysize]], list(grid[ysize])
