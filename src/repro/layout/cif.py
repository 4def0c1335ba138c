"""CIF (Caltech Intermediate Form) output and input (section 4.5).

The RSG supported CIF and DEF output through a pluggable writer; we
implement hierarchical CIF 2.0 with the common extensions:

* ``DS``/``DF`` symbol definitions, one per cell;
* ``L`` layer selection, ``B`` boxes (width height center-x center-y);
* ``C`` calls with ``T`` translation, ``R`` rotation (direction vector)
  and ``MX``/``MY`` mirroring;
* ``94`` user extension for point labels (ports).

Coordinates are written in centimicrons via a configurable scale factor.
A reader for the same dialect supports round-trip testing.
"""

from __future__ import annotations

import io
import re
from typing import Callable, Dict, List, Optional, TextIO, Tuple, Union

import numpy as np

from ..core.cell import CellDefinition, CellTable
from ..core.errors import ParseError
from ..geometry import ALL_ORIENTATIONS, FLIP_NORTH, NORTH, Orientation, Vec2

__all__ = ["write_cif", "cif_text", "read_cif"]

# CIF R directives give the direction the symbol's positive x axis maps to.
_ROT_TO_DIRECTION = {0: (1, 0), 1: (0, 1), 2: (-1, 0), 3: (0, -1)}
_DIRECTION_TO_ROT = {value: key for key, value in _ROT_TO_DIRECTION.items()}


def _orientation_directives(orientation: Orientation) -> str:
    """CIF transform fragment for an orientation (applied before T).

    Our orientations apply the y-axis mirror first, then the rotation;
    CIF applies directives left to right, so emit ``MX`` then ``R``.
    """
    parts: List[str] = []
    if orientation.k:
        parts.append("MX")
    if orientation.r:
        dx, dy = _ROT_TO_DIRECTION[orientation.r]
        parts.append(f"R {dx} {dy}")
    return " ".join(parts)


def write_cif(
    cell: CellDefinition,
    stream: Union[TextIO, str],
    scale: int = 100,
    layer_names: Optional[Dict[str, str]] = None,
) -> None:
    """Write ``cell`` and everything below it as hierarchical CIF.

    ``scale`` multiplies grid units into CIF centimicrons.  ``layer_names``
    optionally maps internal layer names to CIF layer codes (defaults to
    an upper-cased, truncated form of the internal name).
    """
    if isinstance(stream, str):
        with open(stream, "w", encoding="utf-8") as handle:
            write_cif(cell, handle, scale=scale, layer_names=layer_names)
        return

    # Each layer's CIF name is worked out once per write, not once per box.
    cif_names: Dict[str, str] = dict(layer_names or {})

    def cif_layer(layer: str) -> str:
        name = cif_names.get(layer)
        if name is None:
            cleaned = re.sub(r"[^A-Za-z0-9]", "", layer).upper()
            name = cif_names[layer] = (cleaned or "X")[:8]
        return name

    symbols = _symbols(cell)
    stream.write(f"( CIF generated by repro RSG for cell {cell.name} );\n")
    for node, symbol in symbols.items():
        stream.write(f"DS {symbol} 1 1;\n")
        stream.write(f"9 {node.name};\n")
        _write_boxes(stream, node, cif_layer, scale)
        for port in node.ports:
            # The common 94 extension takes an optional trailing layer
            # name; ports written without one read back layerless.
            suffix = f" {cif_layer(port.layer)}" if port.layer else ""
            stream.write(
                f"94 {port.name} {port.position.x * scale}"
                f" {port.position.y * scale}{suffix};\n"
            )
        _write_calls(stream, node, symbols, scale)
        stream.write("DF;\n")
    stream.write(f"C {symbols[cell]};\nE\n")


def _symbols(cell: CellDefinition) -> Dict[CellDefinition, int]:
    """Every definition under ``cell`` numbered bottom-up from 1.

    A depth-first walk over each definition's distinct children
    (:meth:`~repro.core.cell.CellDefinition.instance_table`), in order
    of first call, numbers a definition after all of its children, so
    every call refers to an earlier symbol.  The dict iterates in
    symbol order.
    """
    symbols: Dict[CellDefinition, int] = {}
    _number(cell, symbols)
    return symbols


def _number(node: CellDefinition, symbols: Dict[CellDefinition, int]) -> None:
    if node in symbols:
        return
    for child in node.instance_table().children:
        _number(child, symbols)
    symbols[node] = len(symbols) + 1


def _write_calls(
    stream: TextIO, node: CellDefinition, symbols: Dict[CellDefinition, int], scale: int
) -> None:
    """The ``C`` lines of one symbol, from its instance table.

    One head (``C <symbol> <directives> T``) is formatted per (child,
    orientation) group, and the symbol's calls are written in one ``%``
    over the points of call, in instance order.
    """
    table = node.instance_table()
    count = len(table.rows)
    if not count:
        return
    groups, member = np.unique(table.child * 8 + table.turn, return_inverse=True)
    heads = []
    for key in groups.tolist():
        directives = _orientation_directives(ALL_ORIENTATIONS[key & 7])
        call = f"C {symbols[table.children[key >> 3]]}"
        if directives:
            call += f" {directives}"
        heads.append(call + " T %d %d;\n")
    values = np.empty((count, 2), dtype=np.int64)
    np.multiply(table.x, scale, out=values[:, 0])
    np.multiply(table.y, scale, out=values[:, 1])
    template = "".join([heads[group] for group in member.tolist()])
    stream.write(template % tuple(values.ravel().tolist()))


def _write_boxes(
    stream: TextIO, node: CellDefinition, cif_layer: Callable[[str], str], scale: int
) -> None:
    """The ``L`` and ``B`` lines of one symbol, from its box columns.

    Reads :meth:`~repro.core.cell.CellDefinition.own_columns`, so a
    column-born cell is never decoded.  An ``L`` line opens each run of
    boxes on one CIF layer, and the symbol's lines are formatted in one
    ``%`` over its width, height and centre columns (int64 floor
    division matches Python's for the centre halving).
    """
    layers, codes, arrays = node.own_columns()
    count = len(codes)
    if not count:
        return
    # Internal layers may share a CIF name: runs break on the CIF name.
    names: Dict[str, int] = {}
    cif_codes = [names.setdefault(cif_layer(layer), len(names)) for layer in layers]
    if len(names) == 1:
        starts = [0, count]
    else:
        per_box = np.array(cif_codes, dtype=np.int64)[codes]
        starts = [0, *(np.flatnonzero(per_box[1:] != per_box[:-1]) + 1).tolist(), count]
    values = np.empty((count, 4), dtype=np.int64)
    np.subtract(arrays.xmax, arrays.xmin, out=values[:, 0])
    np.subtract(arrays.ymax, arrays.ymin, out=values[:, 1])
    np.add(arrays.xmin, arrays.xmax, out=values[:, 2])
    np.add(arrays.ymin, arrays.ymax, out=values[:, 3])
    values *= scale
    values[:, 2:] //= 2
    # One format over the whole symbol; a name's "%" must not format.
    cif_names = [name.replace("%", "%%") for name in names]
    template = "".join(
        f"L {cif_names[cif_codes[codes[start]]]};\n" + "B %d %d %d %d;\n" * (stop - start)
        for start, stop in zip(starts, starts[1:])
    )
    stream.write(template % tuple(values.ravel().tolist()))


def cif_text(cell: CellDefinition, scale: int = 100) -> str:
    """Return the CIF for ``cell`` as a string."""
    buffer = io.StringIO()
    write_cif(cell, buffer, scale=scale)
    return buffer.getvalue()


# Identifiers admit the trailing "!" of global-net port names (the
# classic VDD!/GND! convention), which must round-trip through 94 lines.
_TOKEN = re.compile(r"[-]?\d+|[A-Za-z][A-Za-z0-9_!]*|[^\s;]+")


def _parse_call_transform(tokens: List[str], line_number: int) -> Tuple[Vec2, Orientation]:
    """Fold a CIF call's transform directives into (offset, orientation).

    Directives apply left to right to the symbol's coordinates; we fold
    them into a single affine isometry.
    """
    orientation = NORTH
    offset = Vec2(0, 0)
    position = 0
    while position < len(tokens):
        directive = tokens[position].upper()
        if directive == "T":
            dx, dy = int(tokens[position + 1]), int(tokens[position + 2])
            offset = offset + Vec2(dx, dy)
            position += 3
        elif directive == "R":
            dx, dy = int(tokens[position + 1]), int(tokens[position + 2])
            rotation = _DIRECTION_TO_ROT.get(
                (0 if dx == 0 else (1 if dx > 0 else -1),
                 0 if dy == 0 else (1 if dy > 0 else -1))
            )
            if rotation is None:
                raise ParseError(f"line {line_number}: non-manhattan R directive")
            orientation = Orientation(rotation, 0).compose(orientation)
            offset = offset.transformed(Orientation(rotation, 0))
            position += 3
        elif directive == "MX":
            orientation = FLIP_NORTH.compose(orientation)
            offset = offset.transformed(FLIP_NORTH)
            position += 1
        elif directive == "MY":
            # Mirror about x axis = MX followed by half turn.
            my = Orientation(2, 1)
            orientation = my.compose(orientation)
            offset = offset.transformed(my)
            position += 1
        else:
            raise ParseError(
                f"line {line_number}: unknown call directive {directive!r}"
            )
    return offset, orientation


def read_cif(stream: Union[TextIO, str], scale: int = 100) -> CellTable:
    """Read CIF (the dialect produced by :func:`write_cif`) into a table.

    Returns a :class:`CellTable`; the top-level call is exposed under the
    name ``"__top__"`` when the file ends with a bare ``C`` command.
    """
    if isinstance(stream, str) and "\n" not in stream and stream.endswith(".cif"):
        with open(stream, "r", encoding="utf-8") as handle:
            return read_cif(handle, scale=scale)
    if isinstance(stream, str):
        stream = io.StringIO(stream)

    table = CellTable()
    by_symbol: Dict[int, CellDefinition] = {}
    current: Optional[CellDefinition] = None
    current_layer = ""
    anonymous = 0
    top_calls: List[Tuple[int, Vec2, Orientation]] = []

    text = stream.read()
    for line_number, statement in enumerate(text.split(";"), start=1):
        statement = re.sub(r"\(.*?\)", " ", statement).strip()
        if not statement or statement == "E" or statement.startswith("E\n"):
            continue
        tokens = _TOKEN.findall(statement)
        if not tokens:
            continue
        command = tokens[0].upper()
        if command == "DS":
            symbol = int(tokens[1])
            anonymous += 1
            current = CellDefinition(f"symbol{symbol}")
            by_symbol[symbol] = current
        elif command == "DF":
            if current is None:
                raise ParseError(f"statement {line_number}: DF without DS")
            if current.name not in table:
                table.define(current)
            current = None
        elif command == "9" and current is not None:
            current.name = tokens[1]
        elif command == "L":
            current_layer = tokens[1].lower()
        elif command == "B":
            if current is None:
                raise ParseError(f"statement {line_number}: box outside symbol")
            width, height, cx, cy = (int(token) for token in tokens[1:5])
            current.add_box(
                current_layer,
                (2 * cx - width) // (2 * scale),
                (2 * cy - height) // (2 * scale),
                (2 * cx + width) // (2 * scale),
                (2 * cy + height) // (2 * scale),
            )
        elif command == "94":
            if current is None:
                continue
            layer = tokens[4].lower() if len(tokens) > 4 else ""
            current.add_port(
                tokens[1], int(tokens[2]) // scale, int(tokens[3]) // scale, layer
            )
        elif command == "C":
            symbol = int(tokens[1])
            offset, orientation = _parse_call_transform(tokens[2:], line_number)
            offset = Vec2(offset.x // scale, offset.y // scale)
            if current is None:
                top_calls.append((symbol, offset, orientation))
            else:
                current.add_instance(by_symbol[symbol], offset, orientation)
        elif command == "E":
            break
        else:
            raise ParseError(f"statement {line_number}: unknown command {command!r}")

    if top_calls:
        top = CellDefinition("__top__")
        for symbol, offset, orientation in top_calls:
            top.add_instance(by_symbol[symbol], offset, orientation)
        table.define(top)
    return table
