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

from .cellgraph import cell_graph_netlist, collect_occurrences, multiplier_personality
from .driver import (
    VerificationReport,
    verify_cell,
    verify_multiplier,
    verify_pla,
)
from .extract import ExtractionError, extract_netlist
from .lvs import LvsReport, compare_netlists
from .netlist import Device, SwitchNetlist
from .switchsim import (
    SimulationError,
    X,
    exhaustive_vectors,
    input_planes,
    sample_vectors,
    sample_words,
    simulate,
)

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
