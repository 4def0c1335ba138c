"""Leaf-cell compaction with pitch variables (sections 6.1-6.3).

A *leaf cell compactor* compacts cells from a library "while taking into
account how the cells in the library may potentially interface
together": the unknowns are the edge abscissas of every leaf cell plus
one pitch variable lambda per interface.  An inter-cell constraint
between an edge of A and an edge of B placed at pitch lambda becomes

    (x_v + lambda) - x_u >= w      i.e.      x_v - x_u >= w - lambda

— a linear constraint with a pitch term, so the system "cannot be solved
by shortest path algorithms" (section 6.3) and goes to a linear program
minimising a cost that "should depend essentially on the lambdas and to
a much lesser extent on the physical sizes of the cells themselves"
(section 6.2).

All instances of a cell share one set of variables, so after compaction
every instance has identical geometry — the defining property (and
documented restriction) of leaf-cell compaction.

The LP is assembled as a ``scipy.sparse`` matrix, and scipy is imported
only when :meth:`LeafCellCompactor.solve` runs, so importing the
package does not pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.cell import CellDefinition
from ..core.errors import CompactionError, InfeasibleConstraintsError
from ..core.interface import Interface
from ..core.operators import Rsg
from ..geometry import Box, NORTH, Vec2, batch
from .constraints import EQUAL, ConstraintSystem
from .drc import Violation, check_layout
from .rules import DesignRules
from .scanline import (
    EdgeBoxes,
    add_width_constraints,
    build_edge_variables,
    solved_columns,
    visibility_constraints,
)
from .solver import SolveStats, solve_longest_path

__all__ = ["PitchCost", "LeafCellResult", "LeafCellCompactor", "pitch_name"]


def pitch_name(cell_a: str, cell_b: str, index: int) -> str:
    """Canonical pitch-variable name for an interface triple."""
    return f"lam[{cell_a},{cell_b},{index}]"


@dataclass
class PitchCost:
    """The user-supplied cost function of section 6.2.

    ``weights`` carries the expected replication factor of each pitch
    (``n`` and ``m`` of Figure 6.1); pitches not listed get
    ``default_weight``.  ``size_weight`` is the small epsilon applied to
    every edge abscissa so cell sizes matter "to a much lesser extent".
    """

    weights: Dict[str, float] = field(default_factory=dict)
    default_weight: float = 1.0
    size_weight: float = 1e-3

    def weight(self, pitch: str) -> float:
        """Cost-function weight of one pitch variable."""
        return self.weights.get(pitch, self.default_weight)


@dataclass
class LeafCellResult:
    """Outcome of a leaf-cell compaction run."""

    cells: Dict[str, CellDefinition] = field(default_factory=dict)
    pitches: Dict[str, int] = field(default_factory=dict)
    interfaces: Dict[Tuple[str, str, int], Interface] = field(default_factory=dict)
    edge_positions: Dict[str, int] = field(default_factory=dict)
    variable_count: int = 0
    naive_variable_count: int = 0
    constraint_count: int = 0
    cost: float = 0.0


class LeafCellCompactor:
    """Compacts a cell library against its interface table (x axis)."""

    def __init__(
        self,
        rsg: Rsg,
        rules: DesignRules,
        width_mode: str = "min",
    ) -> None:
        """``width_mode`` is each cell's width policy (``"min"`` enforces
        only the rule minimum, ``"preserve"`` pins the drawn widths; see
        :func:`~repro.compact.scanline.add_width_constraints`).  The
        integer rounding search solves each candidate pitch assignment
        with the Bellman-Ford solver of :mod:`repro.compact.solver`."""
        self.rsg = rsg
        self.rules = rules
        self.width_mode = width_mode
        self.system = ConstraintSystem()
        self._cell_boxes: Dict[str, EdgeBoxes] = {}
        #: cache-key snapshots taken at registration time:
        #: name -> (geometry fingerprint, frozen, sizing)
        self._cell_meta: Dict[str, Tuple[str, bool, Optional[Tuple]]] = {}
        self._interface_keys: List[Tuple[str, str, int]] = []
        #: (fingerprint_a, fingerprint_b, index, vx, vy, r, k) snapshots
        self._interface_meta: List[Tuple] = []
        self._frozen: List[str] = []

    # ------------------------------------------------------------------
    # System construction
    # ------------------------------------------------------------------
    def add_cell(
        self,
        name: str,
        frozen: bool = False,
        sizing: Optional[Dict[str, int]] = None,
    ) -> EdgeBoxes:
        """Register a leaf cell: edge variables plus intra-cell constraints.

        ``frozen`` pins the cell's geometry exactly (the "critical parts
        of the layout such as sense amplifiers which must be left
        unchanged" of section 6.4.1).  ``sizing`` maps a layer name to a
        minimum width applied to this cell's boxes of that layer (device
        and bus sizing).
        """
        if name in self._cell_boxes:
            return self._cell_boxes[name]
        cell = self.rsg.cells.lookup(name)
        # Fingerprint *now*: the constraints below snapshot this
        # geometry, so the cache key must describe the registered state,
        # not whatever the workspace holds at solve() time.
        from .cache import fingerprint_cell

        self._cell_meta[name] = (
            fingerprint_cell(cell),
            frozen,
            tuple(sorted(sizing.items())) if sizing else None,
        )
        pairs = [(item.layer, item.box) for item in cell.boxes]
        if not pairs:
            raise CompactionError(f"cell {name!r} has no boxes to compact")
        tags = [name] * len(pairs)
        _, boxes = build_edge_variables(
            pairs, self.system, prefix=f"{name}/b", tags=tags
        )
        self._cell_boxes[name] = boxes
        if frozen:
            self._frozen.append(name)
            # Per box: left, then right, pinned to the first box's left
            # edge at the drawn offset (two ``equal`` rows each).
            anchor = np.full(len(boxes), boxes.left[0])
            offset_left = boxes.arrays.xmin - boxes.arrays.xmin[0]
            offset_right = boxes.arrays.xmax - boxes.arrays.xmin[0]
            self.system.extend(
                np.column_stack((anchor, boxes.left, anchor, boxes.right)).ravel(),
                np.column_stack((boxes.left, anchor, boxes.right, anchor)).ravel(),
                np.column_stack(
                    (offset_left, -offset_left, offset_right, -offset_right)
                ).ravel(),
                EQUAL,
            )
            return boxes
        sizing_map = (
            {(name, layer): width for layer, width in sizing.items()}
            if sizing
            else None
        )
        add_width_constraints(
            self.system, boxes, self.rules, mode=self.width_mode, sizing=sizing_map
        )
        visibility_constraints(self.system, boxes, self.rules)
        return boxes

    def add_interface(self, cell_a: str, cell_b: str, index: int) -> str:
        """Register an interface: a pitch variable plus folded inter-cell
        constraints (the Figure 6.3 construction).

        The interface must have orientation North (the x-compactor's
        restriction); both endpoint cells must be registered first.
        """
        interface = self.rsg.interfaces.lookup(cell_a, cell_b, index)
        if interface.orientation != NORTH:
            raise CompactionError(
                "leaf-cell x compaction handles North-oriented interfaces"
                f" only; ({cell_a},{cell_b},{index}) is"
                f" {interface.orientation.name}"
            )
        for name in (cell_a, cell_b):
            if name not in self._cell_boxes:
                self.add_cell(name)
        pitch = pitch_name(cell_a, cell_b, index)
        self.system.add_pitch(pitch)
        self._interface_keys.append((cell_a, cell_b, index))
        self._interface_meta.append(
            (
                self._cell_meta[cell_a][0],
                self._cell_meta[cell_b][0],
                index,
                interface.vector.x,
                interface.vector.y,
                interface.orientation.r,
                interface.orientation.k,
            )
        )
        self._fold_interface_constraints(cell_a, cell_b, interface, pitch)
        return pitch

    def _fold_interface_constraints(
        self, cell_a: str, cell_b: str, interface: Interface, pitch: str
    ) -> None:
        """Generate constraints between the two instances of the example
        placement and fold the B instance's x offset into the pitch
        variable.
        """
        offset = interface.vector
        boxes_a = self._cell_boxes[cell_a]
        boxes_b = self._cell_boxes[cell_b]
        # Instance 0 of A at the origin, instance 1 of B at the example
        # pitch, scanned in a scratch system of their own.
        layers = sorted(set(boxes_a.layers) | set(boxes_b.layers))
        codes = np.concatenate([
            np.array([layers.index(name) for name in boxes.layers],
                     dtype=np.int64)[boxes.codes]
            for boxes in (boxes_a, boxes_b)
        ])
        a, b = boxes_a.arrays, boxes_b.arrays
        arrays = batch.BoxArray(
            np.concatenate((a.xmin, b.xmin + offset.x)),
            np.concatenate((a.ymin, b.ymin + offset.y)),
            np.concatenate((a.xmax, b.xmax + offset.x)),
            np.concatenate((a.ymax, b.ymax + offset.y)),
        )
        scratch, combined = build_edge_variables(EdgeBoxes(layers, codes, arrays))
        visibility_constraints(scratch, combined, self.rules)
        # Scratch id -> (real variable, on the shifted instance).
        real = np.concatenate([
            np.column_stack((boxes.left, boxes.right)).ravel()
            for boxes in (boxes_a, boxes_b)
        ])
        shifted = np.repeat(np.array([0, 1]), (2 * len(boxes_a), 2 * len(boxes_b)))
        source, target, weight, kind = scratch.columns()
        # Intra-instance constraints are already covered by add_cell.
        cross = shifted[source] != shifted[target]
        # x'_t - x'_s >= w with x' = x + lambda on the shifted side.
        coefficients = (shifted[source] - shifted[target])[cross].tolist()
        kind_codes = np.zeros(len(scratch.kinds), dtype=np.int64)
        for code in np.unique(kind[cross]).tolist():
            kind_codes[code] = self.system.kind_code("inter:" + scratch.kinds[code])
        self.system.extend(
            real[source[cross]],
            real[target[cross]],
            weight[cross],
            kind_codes[kind[cross]],
            pitch_terms=[((pitch, coefficient),) for coefficient in coefficients],
        )

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self, cost: Optional[PitchCost] = None, cache=None) -> LeafCellResult:
        """Minimise the pitch cost by linear programming, round pitches
        to integers, re-solve edges exactly, and rebuild the library.

        ``cache`` (a :class:`~repro.compact.cache.CompactionCache`)
        memoizes the whole solve under a content hash of the registered
        cells' geometry (with their frozen/sizing options), the
        registered interfaces, the rule tables, the width mode and the
        cost function — any change to one of those is a miss;
        ``cache=None`` is the uncached oracle.
        """
        cost = cost or PitchCost()
        key = None
        if cache is not None:
            key = self._cache_key(cost)
            entry = cache.get(key)
            if entry is not None:
                return self._build_result(*entry, cost)
        from scipy import sparse  # deferred: see the module notes
        from scipy.optimize import linprog

        system = self.system
        pitches = system.pitches
        pitch_index = {
            name: system.variable_count + position
            for position, name in enumerate(pitches)
        }
        total = system.variable_count + len(pitches)

        count = len(system)
        source, target, weight, _ = system.columns()
        term_rows, term_columns, term_values = [], [], []
        for row, terms in system.pitch_terms.items():
            for pitch, coefficient in terms:
                term_rows.append(row)
                term_columns.append(pitch_index[pitch])
                term_values.append(float(coefficient))
        rows = np.concatenate(
            (np.arange(count), np.arange(count), np.array(term_rows, dtype=np.int64))
        )
        columns = np.concatenate(
            (source, target, np.array(term_columns, dtype=np.int64))
        )
        values = np.concatenate((np.ones(count), -np.ones(count), term_values))
        rhs = -weight.astype(float)

        objective = np.full(total, cost.size_weight)
        for pitch in pitches:
            objective[pitch_index[pitch]] = cost.weight(pitch)

        matrix = None
        if count:
            # Repeated (row, column) entries are summed, as the row
            # arithmetic reads; entries that cancel (a pinned self-edge)
            # are dropped, as a dense row would hold no entry there.
            matrix = sparse.csr_array(
                (values, (rows, columns)),
                shape=(count, total),
            )
            matrix.eliminate_zeros()
        result = linprog(
            objective,
            A_ub=matrix,
            b_ub=rhs if count else None,
            bounds=[(0.0, None)] * total,
            method="highs",
        )
        if not result.success:
            raise InfeasibleConstraintsError(
                f"leaf-cell LP infeasible: {result.message}"
            )
        fractional = {name: result.x[pitch_index[name]] for name in pitches}
        pitch_values, stats = self._integerise(fractional, cost)
        entry = (tuple(pitch_values.items()), np.array(stats.values, dtype=np.int64))
        if cache is not None and key is not None:
            cache.put(key, entry)
        return self._build_result(*entry, cost)

    def _cache_key(self, cost: PitchCost) -> str:
        """Content hash of everything that determines the solve outcome.

        Built from the snapshots recorded by ``add_cell`` /
        ``add_interface`` — the constraint system describes the geometry
        as registered, so the key must too (fingerprinting the live
        workspace here would let a post-registration mutation poison
        the cache).
        """
        from .cache import FORMAT_VERSION, cache_key, fingerprint_rules

        return cache_key(
            "leafcell",
            FORMAT_VERSION,
            [self._cell_meta[name] for name in self._cell_boxes],
            self._interface_meta,
            fingerprint_rules(self.rules),
            self.width_mode,
            sorted(cost.weights.items()),
            cost.default_weight,
            cost.size_weight,
        )

    def _integerise(
        self, fractional: Dict[str, float], cost: PitchCost
    ) -> Tuple[Dict[str, int], SolveStats]:
        """Find integral pitches near the LP optimum with a feasible
        integral edge assignment (Bellman-Ford at fixed pitches)."""
        names = list(fractional)
        if len(names) > 12:
            # Too many pitches to enumerate corners: round up (always
            # loosens replication constraints in practice) and verify.
            candidates = [tuple(-int(-fractional[n] // 1) for n in names)]
        else:
            floors = {n: int(np.floor(fractional[n] + 1e-9)) for n in names}
            options = [
                (floors[n],) if abs(fractional[n] - floors[n]) < 1e-9 else (
                    floors[n],
                    floors[n] + 1,
                )
                for n in names
            ]
            candidates = sorted(
                product(*options),
                key=lambda values: sum(
                    cost.weight(n) * v for n, v in zip(names, values)
                ),
            )
        for values in candidates:
            trial = dict(zip(names, values))
            try:
                stats = solve_longest_path(self.system, pitches=trial)
            except InfeasibleConstraintsError:
                continue
            return trial, stats
        raise InfeasibleConstraintsError(
            "no integral pitch assignment near the LP optimum is feasible"
        )

    def _build_result(
        self, pitch_values: Tuple[Tuple[str, int], ...], edges: np.ndarray, cost: PitchCost
    ) -> LeafCellResult:
        """The result at integer ``(pitch, value)`` pairs and solved edge
        values by variable id: what a cache entry holds."""
        result = LeafCellResult()
        result.pitches = dict(pitch_values)
        result.edge_positions = dict(zip(self.system.variables, edges.tolist()))
        result.variable_count = self.system.variable_count + len(self.system.pitches)
        result.naive_variable_count = 0
        result.constraint_count = len(self.system)
        result.cost = sum(
            cost.weight(name) * value for name, value in pitch_values
        )
        for name, boxes in self._cell_boxes.items():
            # The registered boxes with their solved x edges.
            solved = solved_columns(boxes, edges)
            cell = CellDefinition.from_columns(name, solved.layers, solved.codes, solved.arrays)
            for port in self.rsg.cells.lookup(name).ports:
                cell.add_port(port.name, port.position.x, port.position.y, port.layer)
            result.cells[name] = cell
            # Two instances per interface would double-count: naive
            # variable count is per-instance edges of the example pairs.
        for cell_a, cell_b, index in self._interface_keys:
            old = self.rsg.interfaces.lookup(cell_a, cell_b, index)
            pitch = pitch_name(cell_a, cell_b, index)
            result.interfaces[(cell_a, cell_b, index)] = Interface(
                Vec2(result.pitches[pitch], old.vector.y), old.orientation
            )
            result.naive_variable_count += 2 * (
                len(self._cell_boxes[cell_a]) + len(self._cell_boxes[cell_b])
            )
        return result

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify(self, result: LeafCellResult) -> List[Violation]:
        """DRC every interface's example pair with the new geometry."""
        violations: List[Violation] = []
        for (cell_a, cell_b, index), interface in result.interfaces.items():
            layers: Dict[str, List[Box]] = {}
            for layer_box in result.cells[cell_a].boxes:
                layers.setdefault(layer_box.layer, []).append(layer_box.box)
            for layer_box in result.cells[cell_b].boxes:
                layers.setdefault(layer_box.layer, []).append(
                    layer_box.box.translated(interface.vector)
                )
            violations.extend(check_layout(layers, self.rules))
        return violations
