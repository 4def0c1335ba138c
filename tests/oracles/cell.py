"""The recursive walkers of a cell hierarchy: the oracle for the memoized
flatten and bounding box of ``repro.core.cell.CellDefinition``.

Each walker composes a :class:`Transform` per instance and applies it
to every object of the subtree: instance-proportional transform work,
but straight-line enough to trust.  They read no memo and no column,
and must give the identical sequence (and box) to the cell's
``flatten``, ``flatten_ports``, ``flatten_labels`` and
``bounding_box`` on any input.
"""

from typing import Iterator, Optional

from repro.core.cell import CellDefinition, Label, LayerBox, Port
from repro.geometry import Box, Transform


def bounding_box_reference(cell: CellDefinition) -> Optional[Box]:
    """Uncached recursive bounding box."""
    result: Optional[Box] = None
    for layer_box in cell.boxes:
        result = layer_box.box if result is None else result.union(layer_box.box)
    for instance in cell.instances:
        if not instance.is_placed:
            continue
        sub = bounding_box_reference(instance.definition)
        if sub is not None:
            sub = instance.transform.apply_box(sub)
            result = sub if result is None else result.union(sub)
    return result


def flatten_reference(
    cell: CellDefinition, transform: Transform = Transform()
) -> Iterator[LayerBox]:
    """Every box of the subtree, in the recursive walk's order."""
    for layer_box in cell.boxes:
        yield layer_box.transformed(transform)
    for instance in cell.instances:
        if not instance.is_placed:
            continue
        yield from flatten_reference(
            instance.definition, transform.compose(instance.transform)
        )


def flatten_ports_reference(
    cell: CellDefinition, transform: Transform = Transform(), prefix: str = ""
) -> Iterator[Port]:
    """Every port of the subtree, named by its instance path."""
    for port in cell.ports:
        item = port.transformed(transform)
        item.name = prefix + port.name
        yield item
    for index, instance in enumerate(cell.instances):
        if not instance.is_placed:
            continue
        tag = instance.name or f"{instance.celltype}#{index}"
        yield from flatten_ports_reference(
            instance.definition,
            transform.compose(instance.transform),
            prefix=f"{prefix}{tag}/",
        )


def flatten_labels_reference(
    cell: CellDefinition, transform: Transform = Transform()
) -> Iterator[Label]:
    """Every label of the subtree."""
    for label in cell.labels:
        yield label.transformed(transform)
    for instance in cell.instances:
        if not instance.is_placed:
            continue
        yield from flatten_labels_reference(
            instance.definition, transform.compose(instance.transform)
        )
