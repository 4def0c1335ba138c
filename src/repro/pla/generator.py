"""RSG-based PLA generator (section 1.2.2: "The RSG can generate any PLA
that HPLA can").

The PLA is built hierarchically: one connectivity-graph row per product
term spanning pull-up, AND plane, connect_ao spacer, OR plane and
OR-side pull-up, with crosspoint masks personalising the plane squares
from the truth table; rows are stacked via the pull-up cells; input and
output buffers hang below the bottom row.  Also includes the decoder
generator built from the *same* sample cells — the paper's argument that
not requiring "the sample layout look like the finished product" widens
the scope of a given sample.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.cell import CellDefinition
from ..core.graph import Node
from ..core.operators import Rsg
from ..geometry import Transform, Vec2
from ..verify.netlist import SwitchNetlist
from .cells import load_pla_library
from .truthtable import TruthTable

__all__ = [
    "generate_pla",
    "generate_decoder",
    "extract_personality",
    "intended_pla_netlist",
    "intended_decoder_netlist",
]


def _build_term_row(rsg: Rsg, table: TruthTable, term: int) -> Tuple[Node, List[Node]]:
    """One product-term row: pull-up, AND squares, spacer, OR squares."""
    pull = rsg.mk_instance("andpull")
    previous = pull
    and_cells: List[Node] = []
    for column in range(table.num_inputs):
        square = rsg.mk_instance("andsq")
        rsg.connect(previous, square, 1)
        literal = table.and_plane[term][column]
        if literal == "1":
            rsg.connect(square, rsg.mk_instance("xtrue"), 1)
        elif literal == "0":
            rsg.connect(square, rsg.mk_instance("xfalse"), 1)
        and_cells.append(square)
        previous = square
    spacer = rsg.mk_instance("connectao")
    rsg.connect(previous, spacer, 1)
    previous = spacer
    or_cells: List[Node] = []
    for column in range(table.num_outputs):
        square = rsg.mk_instance("orsq")
        rsg.connect(previous, square, 1)
        if table.or_plane[term][column] == "1":
            rsg.connect(square, rsg.mk_instance("xout"), 1)
        or_cells.append(square)
        previous = square
    rsg.connect(previous, rsg.mk_instance("orpull"), 1)
    return pull, and_cells + or_cells


def generate_pla(
    table: TruthTable,
    rsg: Optional[Rsg] = None,
    name: str = "pla",
) -> CellDefinition:
    """Generate a complete PLA layout for ``table``."""
    if rsg is None:
        rsg = load_pla_library()
    pulls: List[Node] = []
    bottom_squares: List[Node] = []
    for term in range(table.num_terms):
        pull, squares = _build_term_row(rsg, table, term)
        if pulls:
            rsg.connect(pulls[-1], pull, 2)
        else:
            bottom_squares = squares
        pulls.append(pull)
    # Buffers below the bottom row.
    for column, square in enumerate(bottom_squares):
        if column < table.num_inputs:
            rsg.connect(square, rsg.mk_instance("inbuf"), 1)
        else:
            rsg.connect(square, rsg.mk_instance("outbuf"), 1)
    return rsg.mk_cell(name, pulls[0])


def generate_decoder(
    n: int,
    rsg: Optional[Rsg] = None,
    name: str = "decoder",
) -> CellDefinition:
    """An n-to-2^n decoder from the *same* PLA sample cells.

    A decoder is an AND plane whose product terms are all minterms, with
    output buffers directly on the AND columns — "decoders can be built
    from an AND plane with appropriate output buffers" (section 1.2.2).
    """
    if rsg is None:
        rsg = load_pla_library()
    if n < 1:
        raise ValueError("decoder needs at least one input")
    and_rows = []
    for minterm in range(1 << n):
        bits = [(minterm >> i) & 1 for i in range(n)]
        and_rows.append("".join("1" if bit else "0" for bit in bits))
    pulls: List[Node] = []
    bottom: List[Node] = []
    for term, row in enumerate(and_rows):
        pull = rsg.mk_instance("andpull")
        previous = pull
        squares = []
        for column in range(n):
            square = rsg.mk_instance("andsq")
            rsg.connect(previous, square, 1)
            mask = "xtrue" if row[column] == "1" else "xfalse"
            rsg.connect(square, rsg.mk_instance(mask), 1)
            squares.append(square)
            previous = square
        if pulls:
            rsg.connect(pulls[-1], pull, 2)
        else:
            bottom = squares
        pulls.append(pull)
    for square in bottom:
        rsg.connect(square, rsg.mk_instance("inbuf"), 1)
    return rsg.mk_cell(name, pulls[0])


def _intended_and_plane(
    netlist: SwitchNetlist, and_rows: List[str]
) -> Tuple[int, int, List[int]]:
    """Build the shared AND-plane structure into ``netlist``.

    Rails, one input inverter per column (enhancement pull-down plus
    depletion load), one depletion row pull-up per term, and one
    enhancement pull-down per programmed literal — gated by the
    complement column for ``'1'``, the true column for ``'0'``.  The
    input columns are appended to ``netlist.inputs``; returns
    ``(vdd, gnd, row nets)`` so callers add their output structure.
    """
    vdd = netlist.add_net("vdd!")
    gnd = netlist.add_net("gnd!")
    netlist.vdd_nets.add(vdd)
    netlist.gnd_nets.add(gnd)
    true_cols: List[int] = []
    comp_cols: List[int] = []
    for index in range(len(and_rows[0]) if and_rows else 0):
        true_col = netlist.add_net(f"in{index}")
        comp_col = netlist.add_net(f"comp{index}")
        netlist.add_transistor(true_col, comp_col, gnd)
        netlist.add_transistor(None, comp_col, vdd, depletion=True)
        true_cols.append(true_col)
        comp_cols.append(comp_col)
        netlist.inputs.append(true_col)
    rows: List[int] = []
    for term, row_bits in enumerate(and_rows):
        row = netlist.add_net(f"row{term}")
        netlist.add_transistor(None, row, vdd, depletion=True)
        rows.append(row)
        for index, literal in enumerate(row_bits):
            if literal == "1":
                netlist.add_transistor(comp_cols[index], row, gnd)
            elif literal == "0":
                netlist.add_transistor(true_cols[index], row, gnd)
    return vdd, gnd, rows


def intended_pla_netlist(table: TruthTable) -> SwitchNetlist:
    """The golden transistor netlist a PLA for ``table`` must extract to.

    Mirrors the electrical plan of the sample library
    (:mod:`repro.pla.cells`) device for device: the shared AND plane
    (:func:`_intended_and_plane`), one enhancement pull-down per
    OR-plane crosspoint, and per output a column pull-up plus an
    inverting buffer.  LVS (:mod:`repro.verify.lvs`) compares the
    extracted netlist against this one.
    """
    netlist = SwitchNetlist()
    vdd, gnd, rows = _intended_and_plane(netlist, list(table.and_plane))
    for index in range(table.num_outputs):
        column = netlist.add_net(f"col{index}")
        out = netlist.add_net(f"out{index}")
        netlist.add_transistor(None, column, vdd, depletion=True)
        netlist.add_transistor(None, out, vdd, depletion=True)
        netlist.add_transistor(column, out, gnd)
        for term, row_bits in enumerate(table.or_plane):
            if row_bits[index] == "1":
                netlist.add_transistor(rows[term], column, gnd)
        netlist.outputs.append(out)
    return netlist


def intended_decoder_netlist(n: int) -> SwitchNetlist:
    """Golden netlist of :func:`generate_decoder`'s output.

    A decoder is the AND plane of a full-minterm PLA with the rows
    themselves as outputs: the builder reuses the exact
    :func:`_intended_and_plane` structure shared with
    :func:`intended_pla_netlist`, minus OR plane and output buffers.
    """
    if n < 1:
        raise ValueError("decoder needs at least one input")
    and_rows = []
    for minterm in range(1 << n):
        bits = [(minterm >> i) & 1 for i in range(n)]
        and_rows.append("".join("1" if bit else "0" for bit in bits))
    netlist = SwitchNetlist()
    _, _, rows = _intended_and_plane(netlist, and_rows)
    netlist.outputs.extend(rows)
    return netlist


def extract_personality(cell: CellDefinition) -> TruthTable:
    """Reverse-engineer a truth table from a generated PLA layout.

    Walks the placed hierarchy, maps plane squares to (term, column)
    grid positions from their absolute coordinates and reads the
    crosspoint masks back out — the functional check that layout
    personalisation matches the specification.
    """
    squares: Dict[Tuple[int, int], str] = {}
    crosspoints: List[Tuple[str, Vec2]] = []

    def walk(node: CellDefinition, transform: Transform) -> None:
        for instance in node.instances:
            if not instance.is_placed:
                continue
            world = transform.compose(instance.transform)
            if instance.celltype in ("andsq", "orsq"):
                squares[(world.offset.x, world.offset.y)] = instance.celltype
            elif instance.celltype in ("xtrue", "xfalse", "xout"):
                crosspoints.append((instance.celltype, world.offset))
            walk(instance.definition, world)

    walk(cell, Transform())
    if not squares:
        raise ValueError("no plane squares found in layout")
    xs = sorted({x for x, _ in squares})
    ys = sorted({y for _, y in squares})
    and_xs = sorted({x for (x, y), kind in squares.items() if kind == "andsq"})
    or_xs = sorted({x for (x, y), kind in squares.items() if kind == "orsq"})
    column_of = {x: index for index, x in enumerate(and_xs)}
    or_column_of = {x: index for index, x in enumerate(or_xs)}
    term_of = {y: index for index, y in enumerate(ys)}

    and_plane = [["-"] * len(and_xs) for _ in ys]
    or_plane = [["0"] * len(or_xs) for _ in ys]
    for kind, where in crosspoints:
        # Crosspoint masks sit inside their square; snap to the square
        # whose origin is at or below-left of the mask.
        sx = max((x for x in xs if x <= where.x), default=None)
        sy = max((y for y in ys if y <= where.y), default=None)
        if sx is None or sy is None:
            raise ValueError(f"stray crosspoint at {where!r}")
        term = term_of[sy]
        if kind == "xout":
            or_plane[term][or_column_of[sx]] = "1"
        else:
            and_plane[term][column_of[sx]] = "1" if kind == "xtrue" else "0"
    return TruthTable(
        ["".join(row) for row in and_plane],
        ["".join(row) for row in or_plane],
    )
