"""The per-instance hierarchy walk of the cell-level verifier: the
oracle for ``repro.verify.cellgraph.collect_occurrences``.

One recursive visit per instance path composes each placement, files
each host occurrence and each mask hit, then lands every mask on its
host through a bucket index over the hosts' bounding boxes.  It must
give the program's occurrences (cell type, prefix, origin, bounding
box, ports and landed masks, in walk order) and stray lines on any
input.
"""

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cell import CellDefinition
from repro.geometry import NORTH, Box, Orientation
from repro.verify.cellgraph import MULTIPLIER_HOSTS, MULTIPLIER_MASKS, _Occurrence


def collect_occurrences_reference(
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
    return occurrences, _attach_masks_reference(occurrences, mask_hits)


def _attach_masks_reference(
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
