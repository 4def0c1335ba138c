"""Silicon verification: extraction, switch-level simulation, LVS.

The subsystem closes the loop the paper closed with EXCL and SPICE:
from generated mask geometry back to logical function.

* :mod:`repro.verify.netlist` — the switch-level netlist substrate;
* :mod:`repro.verify.extract` — mask-level device/node extraction;
* :mod:`repro.verify.switchsim` — lane-parallel 0/1/X simulation;
* :mod:`repro.verify.lvs` — canonical-form netlist comparison;
* :mod:`repro.verify.driver` — the high-level ``verify_*`` entry
  points the CLI and the examples call.
"""

from .._lazy import lazy_exports

__all__ = [
    "Device",
    "SwitchNetlist",
    "ExtractionError",
    "extract_netlist",
    "collect_occurrences",
    "cell_graph_netlist",
    "multiplier_personality",
    "LvsReport",
    "compare_netlists",
    "SimulationError",
    "X",
    "simulate",
    "exhaustive_vectors",
    "input_planes",
    "sample_vectors",
    "sample_words",
    "VerificationReport",
    "verify_cell",
    "verify_multiplier",
    "verify_pla",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cellgraph": [
        "cell_graph_netlist", "collect_occurrences", "multiplier_personality",
    ],
    ".driver": [
        "VerificationReport", "verify_cell", "verify_multiplier", "verify_pla",
    ],
    ".extract": ["ExtractionError", "extract_netlist"],
    ".lvs": ["LvsReport", "compare_netlists"],
    ".netlist": ["Device", "SwitchNetlist"],
    ".switchsim": [
        "SimulationError", "X", "exhaustive_vectors", "input_planes",
        "sample_vectors", "sample_words", "simulate",
    ],
})
