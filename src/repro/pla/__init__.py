"""PLA generation: RSG-based generator plus the HPLA relocation baseline."""

from .._lazy import lazy_exports

__all__ = [
    "generate_rom",
    "read_rom_back",
    "rom_table",
    "PLA_DESIGN_FILE",
    "PLA_PARAMETER_FILE",
    "generate_pla_via_language",
    "TruthTable",
    "PLA_SAMPLE",
    "load_pla_library",
    "PLA_PITCH",
    "CONNECT_WIDTH",
    "generate_pla",
    "intended_pla_netlist",
    "intended_decoder_netlist",
    "intended_rom_netlist",
    "generate_decoder",
    "extract_personality",
    "HplaGenerator",
    "HplaDescription",
    "compile_description",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cells": ["CONNECT_WIDTH", "PLA_PITCH", "PLA_SAMPLE", "load_pla_library"],
    ".designfile": [
        "PLA_DESIGN_FILE", "PLA_PARAMETER_FILE", "generate_pla_via_language",
    ],
    ".generator": [
        "extract_personality", "generate_decoder", "generate_pla",
        "intended_decoder_netlist", "intended_pla_netlist",
    ],
    ".hpla": ["HplaDescription", "HplaGenerator", "compile_description"],
    ".rom": [
        "generate_rom", "intended_rom_netlist", "read_rom_back", "rom_table",
    ],
    ".truthtable": ["TruthTable"],
})
