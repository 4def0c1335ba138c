"""HPLA-style baseline: PLA generation by the *relocation scheme*
(sections 1.2.2 and 1.2.3).

HPLA compiled a fully-assembled 2-input/2-output/2-term sample PLA into a
*description file* — cell definitions plus spacing parameters (pitches) —
and then generated PLAs by placing cells at arithmetically computed
absolute positions.  Its architecture is hard-coded; the description
file enables HPLA's three-phase delayed binding: (1) build the skeleton,
(2) encode (add crosspoints) later, (3) plot.

We reproduce that pipeline faithfully so the RSG-vs-HPLA comparison of
Figure 1.2 can be run: same leaf cells, same output geometry, but a flat,
single-architecture generator with no macro abstraction, no hierarchy,
and no interface inheritance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.cell import CellDefinition
from ..core.operators import Rsg
from ..geometry import NORTH, Vec2
from .cells import CONNECT_WIDTH, PLA_PITCH, load_pla_library
from .truthtable import TruthTable

__all__ = ["HplaDescription", "compile_description", "HplaGenerator"]


@dataclass
class HplaDescription:
    """The HPLA description file: cell definitions plus pitches.

    Compiled once from a sample (here: from the shared PLA cell library)
    and then consulted at every phase of the three-phase flow.
    """

    cells: Dict[str, CellDefinition] = field(default_factory=dict)
    #: x pitch between plane squares
    square_pitch: int = PLA_PITCH
    #: x width of the connect_ao spacer
    connect_width: int = CONNECT_WIDTH
    #: y pitch between product-term rows
    row_pitch: int = PLA_PITCH
    #: offsets of crosspoint masks inside their squares
    xtrue_offset: Vec2 = field(default_factory=lambda: Vec2(2, 4))
    xfalse_offset: Vec2 = field(default_factory=lambda: Vec2(6, 4))
    xout_offset: Vec2 = field(default_factory=lambda: Vec2(4, 4))
    #: y drop of the buffer row
    buffer_drop: int = PLA_PITCH


def compile_description(rsg: Optional[Rsg] = None) -> HplaDescription:
    """Compile the description file from the PLA cell library.

    HPLA extracted these pitches from an assembled sample PLA; we read
    them from the same interface table the RSG uses, which is exactly
    the paper's observation that the assembled sample was superfluous.
    """
    if rsg is None:
        rsg = load_pla_library()
    description = HplaDescription()
    for name in (
        "andsq",
        "orsq",
        "connectao",
        "andpull",
        "orpull",
        "inbuf",
        "outbuf",
        "xtrue",
        "xfalse",
        "xout",
    ):
        description.cells[name] = rsg.cells.lookup(name)
    description.square_pitch = rsg.interfaces.lookup("andsq", "andsq", 1).vector.x
    description.connect_width = rsg.interfaces.lookup("connectao", "orsq", 1).vector.x
    description.row_pitch = rsg.interfaces.lookup("andpull", "andpull", 2).vector.y
    description.xtrue_offset = rsg.interfaces.lookup("andsq", "xtrue", 1).vector
    description.xfalse_offset = rsg.interfaces.lookup("andsq", "xfalse", 1).vector
    description.xout_offset = rsg.interfaces.lookup("orsq", "xout", 1).vector
    description.buffer_drop = -rsg.interfaces.lookup("andsq", "inbuf", 1).vector.y
    return description


class HplaGenerator:
    """The three-phase HPLA flow on a compiled description file."""

    def __init__(self, description: Optional[HplaDescription] = None) -> None:
        """``description`` defaults to :func:`compile_description` of the
        PLA cell library."""
        self.description = description if description else compile_description()

    # ------------------------------------------------------------------
    # Phase 1: skeleton (sized but unencoded PLA)
    # ------------------------------------------------------------------
    def make_skeleton(
        self, num_inputs: int, num_outputs: int, num_terms: int, name: str = "hpla"
    ) -> CellDefinition:
        """Place every structural cell at an arithmetic position.

        This is the relocation scheme: absolute coordinates computed from
        indices and pitches — no interfaces, no hierarchy, one flat cell.
        """
        d = self.description
        pla = CellDefinition(name)
        pitch = d.square_pitch
        and_x0 = pitch  # pull-up occupies column 0
        or_x0 = and_x0 + num_inputs * pitch + d.connect_width
        for term in range(num_terms):
            y = term * d.row_pitch
            pla.add_instance(d.cells["andpull"], Vec2(0, y), NORTH)
            for column in range(num_inputs):
                pla.add_instance(
                    d.cells["andsq"], Vec2(and_x0 + column * pitch, y), NORTH
                )
            pla.add_instance(
                d.cells["connectao"], Vec2(and_x0 + num_inputs * pitch, y), NORTH
            )
            for column in range(num_outputs):
                pla.add_instance(
                    d.cells["orsq"], Vec2(or_x0 + column * pitch, y), NORTH
                )
            pla.add_instance(
                d.cells["orpull"], Vec2(or_x0 + num_outputs * pitch, y), NORTH
            )
        for column in range(num_inputs):
            pla.add_instance(
                d.cells["inbuf"],
                Vec2(and_x0 + column * pitch, -d.buffer_drop),
                NORTH,
            )
        for column in range(num_outputs):
            pla.add_instance(
                d.cells["outbuf"],
                Vec2(or_x0 + column * pitch, -d.buffer_drop),
                NORTH,
            )
        return pla

    # ------------------------------------------------------------------
    # Phase 2: encoding (delayed binding of the personality)
    # ------------------------------------------------------------------
    def encode(self, skeleton: CellDefinition, table: TruthTable) -> CellDefinition:
        """Add crosspoint masks for ``table`` to a phase-1 skeleton.

        HPLA's three-part flow let the PLA be recoded "after the PLA is
        fully installed into the rest of a layout"; encoding mutates the
        skeleton in place and returns it.
        """
        d = self.description
        pitch = d.square_pitch
        and_x0 = pitch
        or_x0 = and_x0 + table.num_inputs * pitch + d.connect_width
        for term in range(table.num_terms):
            y = term * d.row_pitch
            for column, literal in enumerate(table.and_plane[term]):
                if literal == "-":
                    continue
                offset = d.xtrue_offset if literal == "1" else d.xfalse_offset
                mask = d.cells["xtrue"] if literal == "1" else d.cells["xfalse"]
                skeleton.add_instance(
                    mask, Vec2(and_x0 + column * pitch, y) + offset, NORTH
                )
            for column, wired in enumerate(table.or_plane[term]):
                if wired == "1":
                    skeleton.add_instance(
                        d.cells["xout"],
                        Vec2(or_x0 + column * pitch, y) + d.xout_offset,
                        NORTH,
                    )
        return skeleton

    # ------------------------------------------------------------------
    # Convenience: the whole flow
    # ------------------------------------------------------------------
    def generate(self, table: TruthTable, name: str = "hpla") -> CellDefinition:
        """Size a skeleton for ``table`` (phase 1), then encode it (phase 2)."""
        skeleton = self.make_skeleton(
            table.num_inputs, table.num_outputs, table.num_terms, name=name
        )
        return self.encode(skeleton, table)
