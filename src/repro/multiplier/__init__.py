"""The pipelined Baugh-Wooley array multiplier case study (chapter 5)."""

from .._lazy import lazy_exports

__all__ = [
    "build_baugh_wooley",
    "intended_multiplier_netlist",
    "multiply",
    "reference_product",
    "cell_type_grid",
    "to_signed",
    "to_bits",
    "from_bits",
    "Netlist",
    "Cell",
    "retime",
    "RegisterAssignment",
    "PipelinedSimulator",
    "MULTIPLIER_SAMPLE",
    "load_multiplier_library",
    "CELL_PITCH",
    "REG_PITCH",
    "DESIGN_FILE",
    "DESIGN_FILE_RETIMED",
    "generate_retimed_multiplier",
    "RegisterConfiguration",
    "register_configuration",
    "PARAMETER_FILE",
    "generate_via_language",
    "generate_multiplier",
    "report_for",
    "MultiplierReport",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".baughwooley": [
        "build_baugh_wooley", "cell_type_grid", "from_bits", "multiply",
        "reference_product", "to_bits", "to_signed",
    ],
    ".cells": [
        "CELL_PITCH", "MULTIPLIER_SAMPLE", "REG_PITCH",
        "load_multiplier_library",
    ],
    ".designfile": [
        "DESIGN_FILE", "DESIGN_FILE_RETIMED", "PARAMETER_FILE",
        "generate_retimed_multiplier", "generate_via_language",
    ],
    ".regconfig": ["RegisterConfiguration", "register_configuration"],
    ".generator": [
        "MultiplierReport", "generate_multiplier",
        "intended_multiplier_netlist", "report_for",
    ],
    ".netlist": ["Cell", "Netlist"],
    ".retiming": ["PipelinedSimulator", "RegisterAssignment", "retime"],
})
