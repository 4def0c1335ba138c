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
hierarchy walk (:func:`collect_occurrences`), which lands every mask on
its host through a bucket index over the hosts' bounding boxes and
reports a mask that lands on no host, or on several, as a stray.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.cell import CellDefinition
from ..geometry import NORTH, Box, Orientation
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

    def __init__(self, celltype, prefix, origin, bbox, ports):
        self.celltype = celltype
        self.prefix = prefix
        self.origin = origin
        self.bbox = bbox
        self.masks: List[str] = []
        self.ports: List[Tuple[str, int, int]] = ports


def collect_occurrences(
    cell: CellDefinition,
    hosts: Sequence[str] = MULTIPLIER_HOSTS,
    masks: Sequence[str] = MULTIPLIER_MASKS,
) -> Tuple[List[_Occurrence], List[str]]:
    """Walk the placed hierarchy once; land each mask on its host cell.

    Returns the host occurrences, masks attached, in walk order, plus
    one line per stray mask: a mask inside no host's bounding box, or
    inside more than one, has no cell to personalise.
    :func:`cell_graph_netlist` and :func:`multiplier_personality` both
    read the occurrences this returns.
    """
    host_set, mask_set = set(hosts), set(masks)
    occurrences: List[_Occurrence] = []
    mask_hits: List[Tuple[str, int, int]] = []
    # (definition id, orientation) -> its bbox and ports turned about the origin
    shapes: Dict[Tuple[int, Orientation], Tuple[Optional[Box], list]] = {}

    def shape(definition: CellDefinition, orientation: Orientation):
        key = (id(definition), orientation)
        if key not in shapes:
            bbox = definition.bounding_box()
            shapes[key] = (
                bbox.transformed(orientation) if bbox is not None else None,
                [
                    (port.name, *orientation.apply(port.position.x, port.position.y))
                    for port in definition.ports
                ],
            )
        return shapes[key]

    def walk(node: CellDefinition, x: int, y: int, orientation: Orientation,
             prefix: str) -> None:
        for index, instance in enumerate(node.instances):
            if not instance.is_placed:
                continue
            location = instance.location
            dx, dy = orientation.apply(location.x, location.y)
            wx, wy = x + dx, y + dy
            definition = instance.definition
            celltype = definition.name
            is_host = celltype in host_set
            if not is_host and celltype in mask_set:
                mask_hits.append((celltype, wx, wy))
            if not (is_host or definition.instances):
                continue
            turn = orientation.compose(instance.orientation)
            tag = instance.name or f"{celltype}#{index}"
            if is_host:
                bbox, ports = shape(definition, turn)
                occurrences.append(_Occurrence(
                    celltype,
                    f"{prefix}{tag}",
                    (wx, wy),
                    None if bbox is None else (
                        bbox.xmin + wx, bbox.ymin + wy, bbox.xmax + wx, bbox.ymax + wy
                    ),
                    ports,
                ))
            if definition.instances:
                walk(definition, wx, wy, turn, f"{prefix}{tag}/")

    walk(cell, 0, 0, NORTH, "")
    return occurrences, _attach_masks(occurrences, mask_hits)


def _attach_masks(
    occurrences: List[_Occurrence],
    mask_hits: List[Tuple[str, int, int]],
) -> List[str]:
    """Append each mask to the one host whose bbox contains it.

    The hosts tile the array, so a grid of buckets as large as the
    largest host files each host under at most four buckets, and a
    mask's candidates are the hosts of the one bucket it falls in.
    Returns a line for each mask with no host, or with several.
    """
    boxes = [(*o.bbox, o) for o in occurrences if o.bbox is not None]
    width = max([x1 - x0 for x0, _, x1, _, _ in boxes] + [1])
    height = max([y1 - y0 for _, y0, _, y1, _ in boxes] + [1])
    buckets: Dict[Tuple[int, int], list] = defaultdict(list)
    for entry in boxes:
        x0, y0, x1, y1, _ = entry
        for column in range(x0 // width, (x1 - 1) // width + 1):
            for row in range(y0 // height, (y1 - 1) // height + 1):
                buckets[column, row].append(entry)
    strays = []
    for mask, x, y in mask_hits:
        found = [
            occurrence
            for x0, y0, x1, y1, occurrence in buckets.get((x // width, y // height), ())
            if x0 <= x < x1 and y0 <= y < y1
        ]
        if len(found) == 1:
            found[0].masks.append(mask)
        else:
            where = f"{len(found)} host cells" if found else "no host cell"
            strays.append(f"mask {mask} at {(x, y)} lands on {where}")
    return strays


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
