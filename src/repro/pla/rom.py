"""ROM generation from the PLA cell library.

A ROM is structurally a PLA whose AND plane is a full address decoder
(one product term per word) and whose OR plane holds the stored data —
another architecture out of the same sample layout, alongside PLAs and
decoders (the introduction's list: "RAMs, ROMs, PLAs, and array
multipliers").
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.cell import CellDefinition
from ..core.operators import Rsg
from ..verify.netlist import SwitchNetlist
from .cells import load_pla_library
from .generator import extract_personality, generate_pla, intended_pla_netlist
from .truthtable import TruthTable

__all__ = ["rom_table", "generate_rom", "read_rom_back", "intended_rom_netlist"]


def rom_table(words: Sequence[int], data_bits: int) -> TruthTable:
    """Build the ROM personality: minterm rows, data-bit columns.

    ``words[w]`` is stored at address ``w``; addresses are little-endian
    over ``ceil(log2(len(words)))`` inputs.
    """
    if not words:
        raise ValueError("a ROM needs at least one word")
    if data_bits < 1:
        raise ValueError("data width must be at least 1")
    address_bits = max(1, (len(words) - 1).bit_length())
    and_rows: List[str] = []
    or_rows: List[str] = []
    for address, word in enumerate(words):
        if word < 0 or word >= (1 << data_bits):
            raise ValueError(f"word {word} does not fit in {data_bits} bits")
        and_rows.append(
            "".join("1" if (address >> bit) & 1 else "0" for bit in range(address_bits))
        )
        or_rows.append(
            "".join("1" if (word >> bit) & 1 else "0" for bit in range(data_bits))
        )
    return TruthTable(and_rows, or_rows)


def generate_rom(
    words: Sequence[int],
    data_bits: int,
    rsg: Optional[Rsg] = None,
    name: str = "rom",
) -> Tuple[CellDefinition, TruthTable]:
    """Generate a ROM layout storing ``words``; returns (cell, table)."""
    if rsg is None:
        rsg = load_pla_library()
    table = rom_table(words, data_bits)
    return generate_pla(table, rsg=rsg, name=name), table


def intended_rom_netlist(words: Sequence[int], data_bits: int) -> SwitchNetlist:
    """Golden transistor netlist of a ROM storing ``words``.

    A ROM is a PLA whose personality is the stored data, so the hook
    delegates to :func:`~repro.pla.generator.intended_pla_netlist` over
    :func:`rom_table` — the netlist LVS must recover from the masks.
    """
    return intended_pla_netlist(rom_table(words, data_bits))


def read_rom_back(cell: CellDefinition, word_count: int, data_bits: int) -> List[int]:
    """Recover the stored words from a generated ROM layout.

    Reads the personality out of the crosspoint masks and evaluates the
    decoder for every address — the functional verification loop.
    """
    table = extract_personality(cell)
    address_bits = table.num_inputs
    words = []
    for address in range(word_count):
        bits = [(address >> bit) & 1 for bit in range(address_bits)]
        outputs = table.evaluate(bits)
        words.append(sum(bit << position for position, bit in enumerate(outputs)))
    return words
