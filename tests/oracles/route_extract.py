"""The interpreted wire-extraction sweep: the oracle for
``repro.route.extract.wire_components``.

Its union-find and its canonical grouping are the program's own, so
the two builds are compared on the partition they find.
"""

from typing import Dict, List, Tuple

from repro.geometry import Box
from repro.route.extract import _grouped, _UnionFind
from repro.route.style import RouteStyle


def _connects(
    layer_a: str, box_a: Box, layer_b: str, box_b: Box, via_layer: str
) -> bool:
    """True when two overlapping wire boxes are electrically one node."""
    if not box_a.overlaps(box_b):
        return False
    if layer_a == layer_b:
        return True
    return bool(via_layer) and via_layer in (layer_a, layer_b)


def wire_components_reference(
    layers: Dict[str, List[Box]], style: RouteStyle
) -> List[List[Tuple[str, Box]]]:
    """Group wire boxes into electrical components by a plane sweep.

    A plane sweep over x that rebuilds the whole active list per item
    and checks every live pair — quadratic when wires stay live across
    the sweep — and must return the identical grouping to
    ``wire_components`` on any input.
    """
    items: List[Tuple[str, Box]] = [
        (layer, box) for layer in sorted(layers) for box in layers[layer]
    ]
    items.sort(key=lambda item: item[1].xmin)
    sets = _UnionFind(len(items))
    active: List[int] = []
    for index, (layer, box) in enumerate(items):
        active = [j for j in active if items[j][1].xmax >= box.xmin]
        for j in active:
            other_layer, other_box = items[j]
            if _connects(layer, box, other_layer, other_box, style.via_layer):
                sets.union(index, j)
        active.append(index)
    return _grouped(items, sets)
