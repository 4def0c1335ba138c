"""Python-API multiplier generator (the same construction as Appendix B,
driven through :class:`~repro.core.operators.Rsg` directly).

``generate_multiplier`` mirrors the design file step for step — inner
array with per-cell personalisation, peripheral register stacks attached
through inherited interfaces — so the two paths can be cross-checked for
layout equality (an integration test the paper could not run, since it
had only one front end).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.cell import CellDefinition
from ..core.graph import Node
from ..core.operators import Rsg
from ..layout.database import FlatLayout, flatten_cell
from ..verify.netlist import SwitchNetlist
from .cells import CELL_PITCH, REG_PITCH, load_multiplier_library

__all__ = [
    "generate_multiplier",
    "MultiplierReport",
    "report_for",
    "intended_multiplier_netlist",
]

# Interface index numbers, matching PARAMETER_FILE.
H_INUM = 1
V_INUM = 2
MASK_INUM = 1
REG_H = 1
REG_UP = 2
REG_DOWN = 3
REG_ROWPITCH = 4
CELL_TO_TOPREG = 1
CELL_TO_BOTTOMREG = 2
CELL_TO_RIGHTREG = 3
R_TO_REGS = 1

_PHI1 = ("phi1_1", "phi1_2", "phi1_3", "phi1_4")
_PHI2 = ("phi2_1", "phi2_2", "phi2_3", "phi2_4")


def _personalise_cell(rsg: Rsg, xsize: int, ysize: int, xloc: int, yloc: int) -> Node:
    """The mcell macro: personalise one basic cell by array position."""
    node = rsg.mk_instance("basiccell")
    # Type mask.
    if yloc == ysize + 1:
        type_cell = "type1"
    elif xloc == xsize:
        type_cell = "type1" if yloc == ysize else "type2"
    else:
        type_cell = "type2" if yloc == ysize else "type1"
    rsg.connect(node, rsg.mk_instance(type_cell), MASK_INUM)
    # Clock masks by column parity.
    for mask in (_PHI1 if xloc % 2 == 0 else _PHI2):
        rsg.connect(node, rsg.mk_instance(mask), MASK_INUM)
    # Carry-interface mask.
    if yloc == ysize:
        carry = "car2"
    elif yloc == ysize + 1:
        carry = "car1" if xloc == xsize else "car2"
    else:
        carry = "car1"
    rsg.connect(node, rsg.mk_instance(carry), MASK_INUM)
    return node


def _build_array(rsg: Rsg, xsize: int, ysize: int, name: str) -> Dict[str, Node]:
    """m2darray: the inner array plus carry-propagate row as one cell.

    Returns handles: ``topright`` (first cell, row 1), ``bottomright``
    (first cell, CPA row), ``rowend`` (last cell, row 1) — the nodes the
    design file exposes through its returned environments.
    """
    rows: List[List[Node]] = []
    for yloc in range(1, ysize + 2):
        row = [
            _personalise_cell(rsg, xsize, ysize, xloc, yloc)
            for xloc in range(1, xsize + 1)
        ]
        rsg.chain(row, H_INUM)
        if rows:
            rsg.connect(rows[-1][0], row[0], V_INUM)
        rows.append(row)
    rsg.mk_cell(name, rows[0][0])
    return {
        "topright": rows[0][0],
        "bottomright": rows[-1][0],
        "rowend": rows[0][-1],
    }


def _build_stack(rsg: Rsg, count: int, dirnum: int) -> List[Node]:
    """mstack: a vertical chain of `count` registers."""
    nodes = [rsg.mk_instance("reg") for _ in range(count)]
    rsg.chain(nodes, dirnum)
    return nodes


def _build_top_registers(rsg: Rsg, xsize: int, name: str) -> Node:
    """mtopregs: stacks of height 1..xsize (the input skew triangle)."""
    bases: List[Node] = []
    for column in range(1, xsize + 1):
        bases.append(_build_stack(rsg, column, REG_UP)[0])
    rsg.chain(bases, REG_H)
    rsg.mk_cell(name, bases[0])
    return bases[0]


def _build_bottom_registers(rsg: Rsg, xsize: int, name: str) -> Node:
    """mbottomregs: stacks of height xsize..1 (output deskew triangle)."""
    bases: List[Node] = []
    for column in range(1, xsize + 1):
        bases.append(_build_stack(rsg, xsize + 1 - column, REG_DOWN)[0])
    rsg.chain(bases, REG_H)
    rsg.mk_cell(name, bases[0])
    return bases[0]


def _assign_directions(
    rsg: Rsg, row: List[Node], regnum: int, index: int
) -> None:
    """assdirection: bidirectional/single/double register masks."""
    ins = index * 2
    outs = regnum - ins
    bi = min(ins, outs, len(row))
    if ins > outs:
        double, single = "goin", "sgoin"
    else:
        double, single = "goout", "sgoout"
    for position, node in enumerate(row, start=1):
        if position <= bi:
            mask = "goboth"
        elif position == bi + 1:
            mask = single
        else:
            mask = double
        rsg.connect(node, rsg.mk_instance(mask), R_TO_REGS)


def _build_right_registers(rsg: Rsg, ysize: int, name: str) -> Node:
    """mrightregs: one register row per array row, with direction masks."""
    regnum = 3 * ysize + 1
    length = (regnum + 1) // 2
    bases: List[Node] = []
    for index in range(1, ysize + 1):
        row = [rsg.mk_instance("reg") for _ in range(length)]
        rsg.chain(row, REG_H)
        _assign_directions(rsg, row, regnum, index)
        bases.append(row[0])
    rsg.chain(bases, REG_ROWPITCH)
    rsg.mk_cell(name, bases[0])
    return bases[0]


def generate_multiplier(
    xsize: int,
    ysize: int,
    rsg: Optional[Rsg] = None,
    top_name: str = "thewholething",
) -> CellDefinition:
    """Generate the complete pipelined-multiplier layout (the mall macro).

    ``xsize`` x ``ysize`` carry-save array plus carry-propagate row, with
    top/bottom/right register stacks attached through interfaces
    inherited from the single basiccell-to-reg examples in the sample
    layout.
    """
    if xsize < 1 or ysize < 1:
        raise ValueError("multiplier size must be at least 1x1")
    if rsg is None:
        rsg = load_multiplier_library()

    right_ref = _build_right_registers(rsg, ysize, "rightregs")
    bottom_ref = _build_bottom_registers(rsg, xsize, "bottomregs")
    handles = _build_array(rsg, xsize, ysize, "array")
    top_ref = _build_top_registers(rsg, xsize, "topregs")

    rsg.declare_interface(
        "topregs", "array", 1, top_ref, handles["topright"], CELL_TO_TOPREG
    )
    tri = rsg.mk_instance("topregs")
    arrayi = rsg.mk_instance("array")
    rsg.connect(tri, arrayi, 1)

    rsg.declare_interface(
        "array", "bottomregs", 1, handles["bottomright"], bottom_ref, CELL_TO_BOTTOMREG
    )
    rsg.connect(arrayi, rsg.mk_instance("bottomregs"), 1)

    rsg.declare_interface(
        "array", "rightregs", 1, handles["rowend"], right_ref, CELL_TO_RIGHTREG
    )
    rsg.connect(arrayi, rsg.mk_instance("rightregs"), 1)

    return rsg.mk_cell(top_name, arrayi)


def intended_multiplier_netlist(xsize: int, ysize: int) -> SwitchNetlist:
    """Golden cell-level netlist of an ``xsize`` x ``ysize`` multiplier.

    Encodes the architecture of Figure 5.1 / Appendix B directly —
    independently of the generator, interface tables and graph
    expansion: the carry-save array plus carry-propagate row on the
    20-lambda grid, sum seams straight down and carry seams to the
    left neighbour, the input-skew and output-deskew register
    triangles, and the bidirectional right-edge register rows with
    their direction masks.  Device kinds fold in the personalisation
    masks exactly as :func:`repro.verify.cellgraph.cell_graph_netlist`
    reads them back, so LVS between the two checks every placement and
    personalisation decision the generator makes.
    """
    if xsize < 1 or ysize < 1:
        raise ValueError("multiplier size must be at least 1x1")
    netlist = SwitchNetlist()
    net_at: Dict[Tuple[int, int], int] = {}

    def net(position: Tuple[int, int]) -> int:
        found = net_at.get(position)
        if found is None:
            found = netlist.add_net()
            net_at[position] = found
            netlist.net_positions[found] = position
        return found

    def add(kind_parts: List[str], pins: List[Tuple[str, Tuple[int, int]]]) -> None:
        head, masks = kind_parts[0], sorted(kind_parts[1:])
        netlist.add_device(
            "/".join([head] + masks),
            [(name, net(position)) for name, position in pins],
        )

    pitch, reg_pitch = CELL_PITCH, REG_PITCH
    for yloc in range(1, ysize + 2):
        for xloc in range(1, xsize + 1):
            x = pitch * (xloc - 1)
            y = -pitch * (yloc - 1)
            if yloc == ysize + 1:
                type_mask = "type1"
            elif xloc == xsize:
                type_mask = "type1" if yloc == ysize else "type2"
            else:
                type_mask = "type2" if yloc == ysize else "type1"
            phi = "phi1" if xloc % 2 == 0 else "phi2"
            if yloc == ysize:
                car = "car2"
            elif yloc == ysize + 1:
                car = "car1" if xloc == xsize else "car2"
            else:
                car = "car1"
            add(
                ["basiccell", type_mask, phi, car],
                [
                    ("sin", (x + 10, y + 20)),
                    ("sout", (x + 10, y)),
                    ("cin", (x + 20, y + 9)),
                    ("cout", (x, y + 9)),
                ],
            )
    # Input-skew triangle: column c carries c registers, stacked upward
    # from directly above array row 1.
    for column in range(1, xsize + 1):
        x = pitch * (column - 1)
        for step in range(column):
            y = pitch + reg_pitch * step
            add(
                ["reg"],
                [("din", (x + 10, y)), ("dout", (x + 10, y + reg_pitch))],
            )
    # Output-deskew triangle: column c carries xsize+1-c registers,
    # stacked downward from directly below the carry-propagate row.
    cpa_y = -pitch * ysize
    for column in range(1, xsize + 1):
        x = pitch * (column - 1)
        for step in range(xsize + 1 - column):
            y = cpa_y - reg_pitch * (step + 1)
            add(
                ["reg"],
                [("din", (x + 10, y)), ("dout", (x + 10, y + reg_pitch))],
            )
    # Right-edge register rows with bidirectional direction masks.
    regnum = 3 * ysize + 1
    length = (regnum + 1) // 2
    for index in range(1, ysize + 1):
        ins = index * 2
        outs = regnum - ins
        bi = min(ins, outs, length)
        if ins > outs:
            double, single = "goin", "sgoin"
        else:
            double, single = "goout", "sgoout"
        y = -pitch * (index - 1)
        for position in range(1, length + 1):
            if position <= bi:
                mask = "goboth"
            elif position == bi + 1:
                mask = single
            else:
                mask = double
            x = pitch * xsize + pitch * (position - 1)
            add(
                ["reg", mask],
                [("din", (x + 10, y)), ("dout", (x + 10, y + reg_pitch))],
            )
    return netlist


@dataclass
class MultiplierReport:
    """Layout statistics for a generated multiplier (Figure 5.6 metrics)."""

    xsize: int
    ysize: int
    basic_cells: int = 0
    type1_masks: int = 0
    type2_masks: int = 0
    clock_masks: int = 0
    carry_masks: int = 0
    registers: int = 0
    direction_masks: int = 0
    total_instances: int = 0
    bounding_box: Optional[Tuple[int, int, int, int]] = None
    mask_box_count: int = 0
    layer_area: Dict[str, int] = field(default_factory=dict)


def report_for(cell: CellDefinition, xsize: int, ysize: int) -> MultiplierReport:
    """Count personalisation features in a generated multiplier layout."""
    report = MultiplierReport(xsize, ysize)

    def walk(node: CellDefinition) -> None:
        for instance in node.instances:
            name = instance.celltype
            report.total_instances += 1
            if name == "basiccell":
                report.basic_cells += 1
            elif name == "type1":
                report.type1_masks += 1
            elif name == "type2":
                report.type2_masks += 1
            elif name.startswith("phi"):
                report.clock_masks += 1
            elif name.startswith("car"):
                report.carry_masks += 1
            elif name == "reg":
                report.registers += 1
            elif name.startswith(("go", "sgo")):
                report.direction_masks += 1
            walk(instance.definition)

    walk(cell)
    flat: FlatLayout = flatten_cell(cell)
    bbox = flat.bounding_box()
    if bbox is not None:
        report.bounding_box = (bbox.xmin, bbox.ymin, bbox.xmax, bbox.ymax)
    report.mask_box_count = flat.box_count()
    report.layer_area = flat.area_by_layer()
    return report
