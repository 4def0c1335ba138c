"""The per-path hierarchy walk of ``repro.verify.driver._celltypes``: the
oracle for the program's walk over distinct definitions."""

from repro.core.cell import CellDefinition


def celltypes_reference(cell: CellDefinition) -> set:
    """The names of every definition called below ``cell``, one visit
    per instance path, unplaced instances included."""
    names = set()

    def walk(node: CellDefinition) -> None:
        for instance in node.instances:
            names.add(instance.celltype)
            walk(instance.definition)

    walk(cell)
    return names
