"""Layout database, sample-layout ingestion, CIF I/O, rendering."""

from .cif import cif_text, read_cif, write_cif
from .connectivity import PortNetlist, extract_ports
from .database import FlatLayout, flatten_cell, merge_boxes
from .render import ascii_render, svg_render
from .sample import SampleSummary, dump_sample, load_sample, loads_sample

__all__ = [
    "PortNetlist",
    "extract_ports",
    "FlatLayout",
    "flatten_cell",
    "merge_boxes",
    "load_sample",
    "loads_sample",
    "dump_sample",
    "SampleSummary",
    "write_cif",
    "read_cif",
    "cif_text",
    "ascii_render",
    "svg_render",
]
