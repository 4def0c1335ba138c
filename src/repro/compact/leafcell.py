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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.cell import CellDefinition
from ..core.errors import CompactionError, InfeasibleConstraintsError
from ..core.interface import Interface
from ..core.operators import Rsg
from ..geometry import Box, NORTH, Vec2
from .constraints import Constraint, ConstraintSystem
from .drc import Violation, check_layout
from .rules import DesignRules
from .scanline import (
    CompactionBox,
    add_width_constraints,
    build_edge_variables,
    visibility_constraints,
)
from .solvers import DEFAULT_SOLVER, get_solver

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
        solver: Optional[str] = None,
    ) -> None:
        """``solver`` names the longest-path backend used for the integer
        rounding search (``"incremental"`` pays off there: the candidate
        loop re-solves the same system at nearby pitch values)."""
        self.rsg = rsg
        self.rules = rules
        self.width_mode = width_mode
        self.solver = get_solver(solver)
        self.solver_name = solver or DEFAULT_SOLVER
        self.system = ConstraintSystem()
        self._cell_boxes: Dict[str, List[CompactionBox]] = {}
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
    ) -> List[CompactionBox]:
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
            anchor = boxes[0]
            for item in boxes:
                self.system.require_equal(
                    anchor.left, item.left, item.box.xmin - anchor.box.xmin
                )
                self.system.require_equal(
                    anchor.left, item.right, item.box.xmax - anchor.box.xmin
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
        scratch = ConstraintSystem()
        combined: List[CompactionBox] = []
        # Instance 0 of A at the origin; instance 1 of B at the example
        # pitch.  Scratch variables are per-instance so the scanner can
        # run; the mapping carries (real variable, is-instance-1).
        mapping: Dict[str, Tuple[str, bool]] = {}
        for which, (boxes, shift, shifted) in enumerate(
            ((boxes_a, Vec2(0, 0), False), (boxes_b, offset, True))
        ):
            for position, item in enumerate(boxes):
                left = scratch.add_variable(
                    f"i{which}.{position}.l", initial=item.box.xmin + shift.x
                )
                right = scratch.add_variable(
                    f"i{which}.{position}.r", initial=item.box.xmax + shift.x
                )
                mapping[left] = (item.left, shifted)
                mapping[right] = (item.right, shifted)
                combined.append(
                    CompactionBox(
                        item.layer, item.box.translated(shift), left, right, item.tag
                    )
                )
        visibility_constraints(scratch, combined, self.rules)
        for constraint in scratch.constraints:
            source, source_shifted = mapping[constraint.source]
            target, target_shifted = mapping[constraint.target]
            if source_shifted == target_shifted:
                # Intra-instance constraint: already covered by add_cell.
                continue
            # x'_t - x'_s >= w with x' = x + lambda on the shifted side.
            coefficient = (1 if source_shifted else 0) - (
                1 if target_shifted else 0
            )
            self.system.add(
                source,
                target,
                constraint.weight,
                pitch_terms=((pitch, coefficient),),
                kind="inter:" + constraint.kind,
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
        registered interfaces, the rule tables, the width mode, the
        solver backend and the cost function — any change to one of
        those is a miss; ``cache=None`` is the uncached oracle.
        """
        cost = cost or PitchCost()
        key = None
        if cache is not None:
            key = self._cache_key(cost)
            cached = cache.get(key)
            if cached is not None:
                return cached
        from scipy import sparse  # deferred: see the module notes
        from scipy.optimize import linprog

        variables = self.system.variables
        pitches = self.system.pitches
        index = {name: position for position, name in enumerate(variables)}
        pitch_index = {
            name: len(variables) + position for position, name in enumerate(pitches)
        }
        total = len(variables) + len(pitches)

        rows: List[int] = []
        columns: List[int] = []
        values: List[float] = []
        rhs: List[float] = []
        for row, constraint in enumerate(self.system.constraints):
            rows += (row, row)
            columns += (index[constraint.source], index[constraint.target])
            values += (1.0, -1.0)
            for pitch, coefficient in constraint.pitch_terms:
                rows.append(row)
                columns.append(pitch_index[pitch])
                values.append(float(coefficient))
            rhs.append(-float(constraint.weight))

        objective = np.full(total, cost.size_weight)
        for pitch in pitches:
            objective[pitch_index[pitch]] = cost.weight(pitch)

        matrix = None
        if rhs:
            # Repeated (row, column) entries are summed, as the row
            # arithmetic reads; entries that cancel (a pinned self-edge)
            # are dropped, as a dense row would hold no entry there.
            matrix = sparse.csr_array(
                (values, (rows, columns)), shape=(len(rhs), total)
            )
            matrix.eliminate_zeros()
        result = linprog(
            objective,
            A_ub=matrix,
            b_ub=np.array(rhs) if rhs else None,
            bounds=[(0.0, None)] * total,
            method="highs",
        )
        if not result.success:
            raise InfeasibleConstraintsError(
                f"leaf-cell LP infeasible: {result.message}"
            )
        fractional = {name: result.x[pitch_index[name]] for name in pitches}
        solved = self._integerise(fractional, cost)
        built = self._build_result(solved, cost)
        if cache is not None and key is not None:
            cache.put(key, built)
        return built

    def _cache_key(self, cost: PitchCost) -> str:
        """Content hash of everything that determines the solve outcome.

        Built from the snapshots recorded by ``add_cell`` /
        ``add_interface`` — the constraint system describes the geometry
        as registered, so the key must too (fingerprinting the live
        workspace here would let a post-registration mutation poison
        the cache).
        """
        from .cache import cache_key, fingerprint_rules

        return cache_key(
            "leafcell",
            [self._cell_meta[name] for name in self._cell_boxes],
            self._interface_meta,
            fingerprint_rules(self.rules),
            self.width_mode,
            self.solver_name,
            sorted(cost.weights.items()),
            cost.default_weight,
            cost.size_weight,
        )

    def _integerise(
        self, fractional: Dict[str, float], cost: PitchCost
    ) -> Tuple[Dict[str, int], Dict[str, int]]:
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
                stats = self.solver.solve(self.system, pitches=trial)
            except InfeasibleConstraintsError:
                continue
            return trial, stats.solution
        raise InfeasibleConstraintsError(
            "no integral pitch assignment near the LP optimum is feasible"
        )

    def _build_result(
        self,
        solved: Tuple[Dict[str, int], Dict[str, int]],
        cost: PitchCost,
    ) -> LeafCellResult:
        pitch_values, edges = solved
        result = LeafCellResult()
        result.pitches = pitch_values
        result.edge_positions = edges
        result.variable_count = len(self.system.variables) + len(self.system.pitches)
        result.naive_variable_count = 0
        result.constraint_count = len(self.system)
        result.cost = sum(
            cost.weight(name) * value for name, value in pitch_values.items()
        )
        for name, boxes in self._cell_boxes.items():
            cell = CellDefinition(name)
            original = self.rsg.cells.lookup(name)
            for item, layer_box in zip(boxes, original.boxes):
                cell.add_box(
                    item.layer,
                    edges[item.left],
                    layer_box.box.ymin,
                    edges[item.right],
                    layer_box.box.ymax,
                )
            for port in original.ports:
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
