"""The leaf-cell compaction study (chapter 6)."""

from .cache import (
    CacheStats,
    CompactionCache,
    cache_key,
    fingerprint_cell,
    fingerprint_geometry,
    fingerprint_rules,
)
from .constraints import Constraint, ConstraintSystem
from .drc import Violation, check_layout, check_layout_reference
from .flat import (
    CompactionResult,
    compact_cell,
    compact_layout,
    compact_layout_xy,
    compact_passes,
)
from .pipeline import (
    HierarchicalCompactor,
    PipelineReport,
    compact_cells,
    distinct_leaf_cells,
)
from .layers import cut_count, expand_contact, expand_gate, expand_layout
from .leafcell import LeafCellCompactor, LeafCellResult, PitchCost, pitch_name
from .rubberband import AlignmentPairs, alignment_pairs, misalignment, rubber_band_solve
from .rules import TECH_A, TECH_B, ContactRule, DesignRules, RuleTables
from .scanline import (
    CompactionBox,
    EdgeBoxes,
    add_width_constraints,
    build_edge_variables,
    naive_constraints,
    rebuild_boxes,
    solved_columns,
    visibility_constraints,
    visibility_constraints_reference,
)
from .solver import SolveStats, solve_longest_path

__all__ = [
    "CacheStats",
    "CompactionCache",
    "cache_key",
    "fingerprint_cell",
    "fingerprint_geometry",
    "fingerprint_rules",
    "HierarchicalCompactor",
    "PipelineReport",
    "compact_cells",
    "distinct_leaf_cells",
    "Constraint",
    "ConstraintSystem",
    "Violation",
    "check_layout",
    "check_layout_reference",
    "CompactionResult",
    "compact_cell",
    "compact_layout",
    "compact_layout_xy",
    "compact_passes",
    "expand_contact",
    "expand_gate",
    "expand_layout",
    "cut_count",
    "LeafCellCompactor",
    "LeafCellResult",
    "PitchCost",
    "pitch_name",
    "AlignmentPairs",
    "alignment_pairs",
    "misalignment",
    "rubber_band_solve",
    "DesignRules",
    "RuleTables",
    "ContactRule",
    "TECH_A",
    "TECH_B",
    "CompactionBox",
    "EdgeBoxes",
    "build_edge_variables",
    "add_width_constraints",
    "naive_constraints",
    "visibility_constraints",
    "visibility_constraints_reference",
    "rebuild_boxes",
    "solved_columns",
    "SolveStats",
    "solve_longest_path",
]
