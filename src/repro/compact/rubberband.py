"""Wirelength-minimising refinement pass (the Figure 6.8 fix).

Bellman-Ford "consists of pushing all the objects in a layout as much to
the left as they can go", which develops jogs: connected boxes that were
aligned drift apart up to the slack of the longest path.  The paper asks
for "an algorithm that tries to bring all objects close together as if
they were all connected by rubber bands".

We implement that second pass as a linear program: keep the bounding box
achieved by the first pass, re-solve positions minimising the total
misalignment of connected boxes (centre-to-centre |displacement| terms,
linearised with auxiliary variables).  The difference-constraint matrix
is totally unimodular, so the LP optimum is integral.

The program is assembled as a ``scipy.sparse`` matrix (at most five
non-zeros a row), so memory grows with the number of constraints, not
with constraints times variables.  scipy is imported only when the pass
runs: importing this module, and so every CLI start, does not pay for
it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import InfeasibleConstraintsError
from ..geometry import batch
from .constraints import ConstraintSystem, Variable
from .scanline import CompactionBox

__all__ = ["alignment_pairs", "rubber_band_solve", "misalignment"]


def alignment_pairs(
    boxes: Sequence[CompactionBox],
) -> List[Tuple[CompactionBox, CompactionBox]]:
    """Pairs of drawn-connected boxes whose centres want to align.

    Same-layer boxes whose closed rectangles meet, as ``(a, b)`` with
    ``a`` listed before ``b`` and the pairs in input order.  Found by the
    per-layer sweep of :func:`repro.geometry.batch.touching_pairs`, so
    the cost follows the layout's local density, not the square of its
    box count.
    """
    items = list(boxes)
    if len(items) < 2:
        return []
    layers = sorted({item.layer for item in items})
    code_of = {name: code for code, name in enumerate(layers)}
    codes = np.fromiter(
        (code_of[item.layer] for item in items), dtype=np.int64, count=len(items)
    )
    first, second = batch.touching_pairs(
        batch.boxes_to_arrays([item.box for item in items]), codes
    )
    return [(items[i], items[j]) for i, j in zip(first.tolist(), second.tolist())]


def misalignment(
    pairs: Sequence[Tuple[CompactionBox, CompactionBox]],
    solution: Dict[Variable, int],
) -> int:
    """Total centre-to-centre x misalignment over connected pairs.

    Uses doubled centres to stay on the integer grid.  Zero for a
    perfectly jog-free solution of aligned pairs.
    """
    total = 0
    for a, b in pairs:
        center_a = solution[a.left] + solution[a.right]
        center_b = solution[b.left] + solution[b.right]
        drawn_a = a.box.xmin + a.box.xmax
        drawn_b = b.box.xmin + b.box.xmax
        total += abs((center_a - center_b) - (drawn_a - drawn_b))
    return total


def rubber_band_solve(
    system: ConstraintSystem,
    boxes: Sequence[CompactionBox],
    max_width: int,
    pairs: Optional[Sequence[Tuple[CompactionBox, CompactionBox]]] = None,
    solver: Optional[str] = None,
) -> Dict[Variable, int]:
    """Minimise connected-pair misalignment within ``max_width``.

    Subject to every constraint in ``system`` plus ``0 <= x <= max_width``
    for all variables.  Preserves the bounding box of the greedy solve
    while removing the jogs it introduced.  ``solver`` names the
    longest-path backend used to repair integer rounding: when the
    rounded LP optimum violates a constraint, the backend re-relaxes
    from the rounded point (hint-seeded solve) and the repair is kept if
    it stays inside ``max_width``.
    """
    if system.has_pitch_terms():
        raise InfeasibleConstraintsError(
            "rubber-band pass does not handle symbolic pitches"
        )
    if pairs is None:
        pairs = alignment_pairs(boxes)

    cost, matrix, rhs, bounds = _rubber_band_program(system, pairs, max_width)
    from scipy.optimize import linprog  # deferred: see the module notes

    result = linprog(
        cost,
        A_ub=matrix,
        b_ub=rhs,
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise InfeasibleConstraintsError(f"rubber-band LP failed: {result.message}")
    solution = {
        name: int(round(value))
        for name, value in zip(system.variables, result.x.tolist())
    }
    violated = system.check(solution)
    if violated:
        # Repair: least feasible point at or above the rounded one.
        from .solvers import get_solver  # deferred: solvers import siblings

        repaired = get_solver(solver).solve(system, hint=solution).solution
        if max(repaired.values(), default=0) > max_width:
            raise InfeasibleConstraintsError(
                f"rubber-band rounding violated {len(violated)} constraint(s)"
                " and the repair exceeded the width limit"
            )
        return repaired
    return solution


def _rubber_band_program(
    system: ConstraintSystem,
    pairs: Sequence[Tuple[CompactionBox, CompactionBox]],
    max_width: int,
):
    """The rubber-band LP as ``(cost, A_ub, b_ub, bounds)``.

    Variables are the edge abscissas in declaration order followed by
    one misalignment bound ``t_k`` per pair.  Rows are every difference
    constraint ``x[s] - x[t] <= -w`` in system order, then per pair
    ``k`` the two rows of ``|d_k - drawn_k| <= t_k`` with
    ``d_k = (l_a + r_a) - (l_b + r_b)``.  ``A_ub`` is a CSR matrix, or
    ``None`` when there are no rows.
    """
    from scipy import sparse  # deferred: see the module notes

    index = {name: position for position, name in enumerate(system.variables)}
    num_x = len(system.variables)
    num_t = len(pairs)
    count = len(system.constraints)
    # Difference rows, in system order: x[s] - x[t] <= -w.
    rows = [np.arange(count), np.arange(count)]
    columns = [
        np.array([index[c.source] for c in system.constraints], dtype=np.int64),
        np.array([index[c.target] for c in system.constraints], dtype=np.int64),
    ]
    values = [np.ones(count), -np.ones(count)]
    rhs = np.empty(count + 2 * num_t)
    rhs[:count] = [-float(c.weight) for c in system.constraints]
    # Pair k, sign s (rows interleaved per pair):
    # s * ((l_a + r_a) - (l_b + r_b)) - t_k <= s * drawn_k.
    edges = np.array(
        [(index[a.left], index[a.right], index[b.left], index[b.right])
         for a, b in pairs],
        dtype=np.int64,
    ).reshape(num_t, 4)
    drawn = np.array(
        [(a.box.xmin + a.box.xmax) - (b.box.xmin + b.box.xmax) for a, b in pairs],
        dtype=float,
    )
    bound_columns = num_x + np.arange(num_t)
    for offset, sign in enumerate((1.0, -1.0)):
        pair_rows = count + 2 * np.arange(num_t) + offset
        for column, coefficient in zip(edges.T, (sign, sign, -sign, -sign)):
            rows.append(pair_rows)
            columns.append(column)
            values.append(np.full(num_t, coefficient))
        rows.append(pair_rows)
        columns.append(bound_columns)
        values.append(-np.ones(num_t))
        rhs[count + offset::2] = sign * drawn

    cost = np.ones(num_x + num_t)
    # Mild leftward pressure keeps the solution canonical when several
    # jog-free placements exist.
    cost[:num_x] = 1e-6
    bounds = [(0.0, float(max_width))] * num_x + [(0.0, None)] * num_t
    if rhs.size == 0:
        return cost, None, None, bounds
    matrix = sparse.csr_array(
        (np.concatenate(values), (np.concatenate(rows), np.concatenate(columns))),
        shape=(rhs.size, num_x + num_t),
    )
    return cost, matrix, rhs, bounds
