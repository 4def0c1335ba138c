"""A line-by-line sample-layout loader: the oracle for
``repro.layout.sample``, which parses each text once and replays it.

This loader reads the text a line at a time straight into the
workspace, with no cache: each ``cell`` line defines its cell on the
spot, each ``inst`` line looks its cell up in the workspace, and each
example block derives and declares its interfaces when its ``end`` line
is read.  Errors, their texts, and what a failed load leaves in the
workspace are those of the program's loader.
"""

import io
from typing import List, Optional, Tuple

from repro.core.cell import CellDefinition, Instance
from repro.core.errors import ParseError
from repro.core.interface import derive_interface
from repro.core.operators import Rsg
from repro.geometry import Orientation, Vec2
from repro.layout.sample import SampleSummary


def _parse_int(token: str, line_number: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"line {line_number}: expected integer, got {token!r}") from None


def load_sample_by_line(text: str, rsg: Rsg, replace: bool = False) -> SampleSummary:
    summary = SampleSummary()
    current: Optional[CellDefinition] = None
    in_example = False
    instances: List[Instance] = []
    labels: List[Tuple[int, Vec2, int]] = []

    def finish_example(line_number: int) -> None:
        if not labels:
            raise ParseError(
                f"line {line_number}: example block declares no interface labels"
            )
        for index, point, label_line in labels:
            hits = []
            for instance in instances:
                bbox = instance.bounding_box()
                if bbox is not None and bbox.contains_point(point):
                    hits.append(instance)
            if len(hits) >= 2:
                ref, other = hits[0], hits[1]
            elif len(instances) == 2:
                ref, other = instances
            else:
                raise ParseError(
                    f"line {label_line}: interface label {index} at"
                    f" ({point.x}, {point.y}) does not identify two instances"
                )
            interface = derive_interface(
                ref.location, ref.orientation, other.location, other.orientation
            )
            rsg.interfaces.declare(
                ref.celltype, other.celltype, index, interface, replace=replace
            )
            summary.interfaces.append((ref.celltype, other.celltype, index))

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
            current = rsg.define_cell(tokens[1], replace=replace)
            summary.cells.append(tokens[1])
        elif keyword == "example":
            if current is not None or in_example:
                raise ParseError(f"line {line_number}: nested block")
            in_example = True
        elif keyword == "end":
            if current is not None:
                current = None
            elif in_example:
                finish_example(line_number)
                in_example = False
                instances, labels = [], []
            else:
                raise ParseError(f"line {line_number}: end outside a block")
        elif keyword == "box":
            if current is None:
                raise ParseError(f"line {line_number}: box outside a cell block")
            if len(tokens) != 6:
                raise ParseError(f"line {line_number}: box needs layer + 4 coords")
            current.add_box(
                tokens[1], *(_parse_int(token, line_number) for token in tokens[2:6])
            )
        elif keyword == "port":
            if current is None:
                raise ParseError(f"line {line_number}: port outside a cell block")
            if len(tokens) not in (4, 5):
                raise ParseError(f"line {line_number}: port needs name x y [layer]")
            layer = tokens[4] if len(tokens) == 5 else ""
            current.add_port(
                tokens[1],
                _parse_int(tokens[2], line_number),
                _parse_int(tokens[3], line_number),
                layer,
            )
        elif keyword == "inst":
            if not in_example:
                raise ParseError(f"line {line_number}: inst outside an example block")
            if len(tokens) != 5:
                raise ParseError(f"line {line_number}: inst needs cell x y orientation")
            definition = rsg.cells.lookup(tokens[1])
            try:
                orientation = Orientation.from_name(tokens[4])
            except ValueError as exc:
                raise ParseError(f"line {line_number}: {exc}") from None
            location = Vec2(
                _parse_int(tokens[2], line_number), _parse_int(tokens[3], line_number)
            )
            instances.append(Instance(definition, location, orientation))
        elif keyword == "label":
            if not in_example:
                raise ParseError(f"line {line_number}: label outside an example block")
            if len(tokens) != 4:
                raise ParseError(f"line {line_number}: label needs index x y")
            labels.append((
                _parse_int(tokens[1], line_number),
                Vec2(_parse_int(tokens[2], line_number), _parse_int(tokens[3], line_number)),
                line_number,
            ))
        else:
            raise ParseError(f"line {line_number}: unknown keyword {keyword!r}")

    if current is not None or in_example:
        raise ParseError("unterminated block at end of file")
    return summary
