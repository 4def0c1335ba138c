"""Sample-layout files: the graphical half of the design (section 2.3).

A sample layout supplies (a) the definitions of all primitive cells and
(b) interfaces between them, *by example*: calling two cells together in
a higher-order example cell with the appropriate relative placement
defines an interface.  A numerical label placed in the overlap region
names the interface index (paper Figure 5.5).

File format (line oriented, ``#`` comments)::

    cell <name>
      box <layer> <xmin> <ymin> <xmax> <ymax>
      port <name> <x> <y> [layer]
    end

    example [<name>]
      inst <cellname> <x> <y> <orientation>
      inst <cellname> <x> <y> <orientation>
      label <index> <x> <y>
    end

Within an ``example`` block each ``label`` declares one interface.  The
pair of instances it refers to are those whose bounding boxes contain the
label point; when more than two qualify, the two *earliest listed* are
taken.  The earlier-listed instance of the pair is the **reference
instance** (the paper's A1 of Figure 3.7) — this is the graphical
discrimination section 3.4 calls for, made deterministic by listing
order.  If the label point is ambiguous (fewer than two containing
instances and not exactly two instances in the block), a
:class:`~repro.core.errors.ParseError` is raised.

Each distinct text is parsed once per process, as design texts are
compiled once: the parse is cached by text as a tuple of replay steps
holding only immutable values, with every interface already derived
when the example block places only cells the text defines.  Loading
replays the steps into the workspace, so each load still makes its own
cell definitions and summary and meets the workspace's duplicate-cell
and duplicate-interface checks, in text order.  An example block that
places a cell the text does not define derives its interfaces from the
workspace's definition when it loads.
"""

from __future__ import annotations

import functools
import io
from typing import Callable, Dict, List, Optional, Sequence, TextIO, Tuple, Union

from ..core.cell import CellDefinition, Instance, LayerBox
from ..core.errors import ParseError
from ..core.interface import Interface, derive_interface
from ..core.operators import Rsg
from ..geometry import Box, Orientation, Vec2

__all__ = ["load_sample", "loads_sample", "dump_sample", "SampleSummary"]


class SampleSummary:
    """What a sample layout contributed to the workspace."""

    def __init__(self) -> None:
        self.cells: List[str] = []
        self.interfaces: List[Tuple[str, str, int]] = []

    def __repr__(self) -> str:
        return (
            f"SampleSummary(cells={len(self.cells)},"
            f" interfaces={len(self.interfaces)})"
        )


def _parse_int(token: str, line_number: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"line {line_number}: expected integer, got {token!r}") from None


def _instances_containing(
    instances: List[Instance], point: Vec2
) -> List[Instance]:
    hits = []
    for instance in instances:
        bbox = instance.bounding_box()
        if bbox is not None and bbox.contains_point(point):
            hits.append(instance)
    return hits


#: (reference cell, other cell, index, I_ab) of one example-block label
Declaration = Tuple[str, str, int, Interface]
#: (index, point, line) of one example-block label
LabelRecord = Tuple[int, Vec2, int]


def _derive_example(
    instances: List[Instance], labels: Sequence[LabelRecord], end_line: int
) -> Tuple[List[Declaration], Optional[str]]:
    """The interfaces an example block's labels declare, in label order,
    and the ``ParseError`` text that stops the block (None if none)."""
    if not labels:
        return [], f"line {end_line}: example block declares no interface labels"
    declarations: List[Declaration] = []
    for index, point, label_line in labels:
        hits = _instances_containing(instances, point)
        if len(hits) >= 2:
            ref, other = hits[0], hits[1]
        elif len(instances) == 2:
            ref, other = instances
        else:
            return declarations, (
                f"line {label_line}: interface label {index} at"
                f" ({point.x}, {point.y}) does not identify two instances"
            )
        interface = derive_interface(
            ref.location, ref.orientation, other.location, other.orientation
        )
        declarations.append((ref.celltype, other.celltype, index, interface))
    return declarations, None


# ----------------------------------------------------------------------
# The pure parse: sample text -> replay steps, once per distinct text
# ----------------------------------------------------------------------
#: one replay step: ``step(rsg, replace, summary)``
Step = Callable[[Rsg, bool, SampleSummary], None]


def _fail(message: str) -> Step:
    def fail(rsg: Rsg, replace: bool, summary: SampleSummary) -> None:
        raise ParseError(message)

    return fail


def _define(
    name: str,
    boxes: Tuple[Tuple[str, Box], ...],
    ports: Tuple[Tuple[str, int, int, str], ...],
) -> Step:
    """A ``cell`` block: a fresh definition, its boxes and ports."""

    def define(rsg: Rsg, replace: bool, summary: SampleSummary) -> None:
        cell = rsg.define_cell(name, replace=replace)
        summary.cells.append(name)
        if boxes:
            cell.add_boxes([LayerBox(layer, box) for layer, box in boxes])
        for port in ports:
            cell.add_port(*port)

    return define


def _require(name: str) -> Step:
    """An ``inst`` of a cell the text has not defined: it must exist."""

    def require(rsg: Rsg, replace: bool, summary: SampleSummary) -> None:
        rsg.cells.lookup(name)

    return require


def _declare(declarations: Tuple[Declaration, ...], error: Optional[str]) -> Step:
    """An example block whose interfaces were derived when parsing."""

    def declare(rsg: Rsg, replace: bool, summary: SampleSummary) -> None:
        for cell_a, cell_b, index, interface in declarations:
            rsg.interfaces.declare(cell_a, cell_b, index, interface, replace=replace)
            summary.interfaces.append((cell_a, cell_b, index))
        if error is not None:
            raise ParseError(error)

    return declare


def _derive_at_load(
    placements: Tuple[Tuple[str, Vec2, Orientation], ...],
    labels: Tuple[LabelRecord, ...],
    end_line: int,
) -> Step:
    """An example block placing a cell the text does not define: its
    interfaces depend on the workspace's definition, so they are derived
    when the text loads."""

    def derive(rsg: Rsg, replace: bool, summary: SampleSummary) -> None:
        instances = [
            Instance(rsg.cells.lookup(name), location, orientation)
            for name, location, orientation in placements
        ]
        declarations, error = _derive_example(instances, labels, end_line)
        _declare(tuple(declarations), error)(rsg, replace, summary)

    return derive


@functools.lru_cache(maxsize=32)
def _compile_sample(text: str) -> Tuple[Step, ...]:
    """Parse sample text into replay steps, once per distinct text.

    The steps hold only immutable values (names, ``Box``es, ``Vec2``s,
    interfaces), so one parse serves every workspace.  What the
    workspace decides stays in the steps, in text order: each cell's
    definition (a duplicate name is an error unless replacing), the
    lookup of every placed cell the text has not defined by then, and
    each declared interface (a duplicate is an error unless
    replacing).  A syntax error becomes a last step that raises it, so
    a load fails at the same point, with the same error, as a
    line-by-line load.
    """
    steps: List[Step] = []
    #: the text's own definitions so far, for deriving interfaces here
    defined: Dict[str, CellDefinition] = {}
    current: Optional[str] = None
    boxes: List[Tuple[str, Box]] = []
    ports: List[Tuple[str, int, int, str]] = []
    in_example = False
    placements: List[Tuple[str, Vec2, Orientation]] = []
    labels: List[LabelRecord] = []
    workspace_cells = False

    def close_cell() -> None:
        nonlocal current
        template = CellDefinition(current)
        if boxes:
            template.add_boxes([LayerBox(layer, box) for layer, box in boxes])
        defined[current] = template
        steps.append(_define(current, tuple(boxes), tuple(ports)))
        current = None
        boxes.clear()
        ports.clear()

    try:
        for line_number, raw in enumerate(io.StringIO(text), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            keyword = tokens[0].lower()

            if keyword == "cell":
                if current is not None or in_example:
                    raise ParseError(f"line {line_number}: nested block")
                if len(tokens) != 2:
                    raise ParseError(f"line {line_number}: cell needs exactly one name")
                current = tokens[1]
            elif keyword == "example":
                if current is not None or in_example:
                    raise ParseError(f"line {line_number}: nested block")
                in_example = True
            elif keyword == "end":
                if current is not None:
                    close_cell()
                elif in_example:
                    if workspace_cells:
                        steps.append(_derive_at_load(
                            tuple(placements), tuple(labels), line_number
                        ))
                    else:
                        instances = [
                            Instance(defined[name], location, orientation)
                            for name, location, orientation in placements
                        ]
                        declarations, error = _derive_example(
                            instances, labels, line_number
                        )
                        steps.append(_declare(tuple(declarations), error))
                        if error is not None:
                            break
                    in_example = workspace_cells = False
                    placements, labels = [], []
                else:
                    raise ParseError(f"line {line_number}: end outside a block")
            elif keyword == "box":
                if current is None:
                    raise ParseError(f"line {line_number}: box outside a cell block")
                if len(tokens) != 6:
                    raise ParseError(f"line {line_number}: box needs layer + 4 coords")
                boxes.append((
                    tokens[1],
                    Box(*(_parse_int(token, line_number) for token in tokens[2:6])),
                ))
            elif keyword == "port":
                if current is None:
                    raise ParseError(f"line {line_number}: port outside a cell block")
                if len(tokens) not in (4, 5):
                    raise ParseError(f"line {line_number}: port needs name x y [layer]")
                layer = tokens[4] if len(tokens) == 5 else ""
                ports.append((
                    tokens[1],
                    _parse_int(tokens[2], line_number),
                    _parse_int(tokens[3], line_number),
                    layer,
                ))
            elif keyword == "inst":
                if not in_example:
                    raise ParseError(f"line {line_number}: inst outside an example block")
                if len(tokens) != 5:
                    raise ParseError(f"line {line_number}: inst needs cell x y orientation")
                name = tokens[1]
                if name not in defined:
                    steps.append(_require(name))
                    workspace_cells = True
                try:
                    orientation = Orientation.from_name(tokens[4])
                except ValueError as exc:
                    raise ParseError(f"line {line_number}: {exc}") from None
                location = Vec2(
                    _parse_int(tokens[2], line_number),
                    _parse_int(tokens[3], line_number),
                )
                placements.append((name, location, orientation))
            elif keyword == "label":
                if not in_example:
                    raise ParseError(f"line {line_number}: label outside an example block")
                if len(tokens) != 4:
                    raise ParseError(f"line {line_number}: label needs index x y")
                labels.append((
                    _parse_int(tokens[1], line_number),
                    Vec2(
                        _parse_int(tokens[2], line_number),
                        _parse_int(tokens[3], line_number),
                    ),
                    line_number,
                ))
            else:
                raise ParseError(f"line {line_number}: unknown keyword {keyword!r}")
        else:
            if current is not None or in_example:
                raise ParseError("unterminated block at end of file")
    except ParseError as error:
        if current is not None:
            close_cell()  # a line-by-line load defined it before failing
        steps.append(_fail(str(error)))
    return tuple(steps)


def loads_sample(text: str, rsg: Rsg, replace: bool = False) -> SampleSummary:
    """Parse sample-layout text into the workspace (see module docstring).

    The text is parsed once per process (:func:`_compile_sample`, cached
    by text) and replayed into ``rsg``: fresh cell definitions, boxes
    and ports, and a fresh summary, on every load.
    """
    summary = SampleSummary()
    for step in _compile_sample(text):
        step(rsg, replace, summary)
    return summary


def load_sample(stream: Union[TextIO, str], rsg: Rsg, replace: bool = False) -> SampleSummary:
    """Load a sample layout from a file path or text stream into ``rsg``.

    Primitive cells go into the cell table; each example-block label adds
    an interface to the interface table.  Returns a summary.
    """
    if isinstance(stream, str):
        with open(stream, "r", encoding="utf-8") as handle:
            return loads_sample(handle.read(), rsg, replace=replace)
    return loads_sample(stream.read(), rsg, replace=replace)


def dump_sample(rsg: Rsg, cell_names: List[str]) -> str:
    """Serialise primitive cells back to sample-file syntax.

    Interfaces are not round-tripped (they would need example blocks with
    synthetic placements); this is the cell-library half only, used when
    emitting a *new* sample layout after leaf-cell compaction
    (section 6.3).
    """
    lines: List[str] = []
    for name in cell_names:
        cell = rsg.cells.lookup(name)
        lines.append(f"cell {cell.name}")
        for layer_box in cell.boxes:
            box = layer_box.box
            lines.append(
                f"  box {layer_box.layer} {box.xmin} {box.ymin} {box.xmax} {box.ymax}"
            )
        for port in cell.ports:
            suffix = f" {port.layer}" if port.layer else ""
            lines.append(f"  port {port.name} {port.position.x} {port.position.y}{suffix}")
        lines.append("end")
        lines.append("")
    return "\n".join(lines)
