"""The per-instance ``C``-line writer of CIF output: the oracle for
``repro.layout.cif``'s ``_symbols`` and ``_write_calls``.

``symbols_reference`` numbers the definitions with one recursive visit
per instance; ``write_calls_reference`` writes one f-string per placed
instance, in instance order.  With ``write_cif``'s ``_symbols`` and
``_write_calls`` replaced by these, the writer must give byte-identical
text.
"""

from typing import Dict

from repro.core.cell import CellDefinition
from repro.layout.cif import _orientation_directives


def symbols_reference(cell: CellDefinition) -> Dict[CellDefinition, int]:
    """Every definition under ``cell``, numbered bottom-up from 1."""
    symbols: Dict[CellDefinition, int] = {}

    def visit(node: CellDefinition) -> None:
        if node in symbols:
            return
        for instance in node.instances:
            visit(instance.definition)
        symbols[node] = len(symbols) + 1

    visit(cell)
    return symbols


def write_calls_reference(stream, node, symbols, scale):
    """One ``C`` line per placed instance of ``node``, in instance order."""
    for instance in node.instances:
        if not instance.is_placed:
            continue
        directives = _orientation_directives(instance.orientation)
        offset = instance.location
        call = f"C {symbols[instance.definition]}"
        if directives:
            call += f" {directives}"
        call += f" T {offset.x * scale} {offset.y * scale}"
        stream.write(call + ";\n")
