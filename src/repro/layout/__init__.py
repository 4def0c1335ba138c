"""Layout database, sample-layout ingestion, CIF I/O, rendering."""

from .._lazy import lazy_exports

__all__ = [
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

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cif": ["cif_text", "read_cif", "write_cif"],
    ".database": ["FlatLayout", "flatten_cell", "merge_boxes"],
    ".render": ["ascii_render", "svg_render"],
    ".sample": ["SampleSummary", "dump_sample", "load_sample", "loads_sample"],
})
