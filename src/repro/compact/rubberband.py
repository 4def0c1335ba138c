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

from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..core.errors import InfeasibleConstraintsError
from ..geometry import batch
from .constraints import ConstraintSystem
from .scanline import CompactionBox, EdgeBoxes
from .solver import solve_longest_path

__all__ = ["AlignmentPairs", "alignment_pairs", "rubber_band_solve", "misalignment"]


class AlignmentPairs:
    """Index pairs ``(first[k], second[k])`` of boxes that want to align.

    ``len()`` is the pair count; iterating yields
    :class:`~repro.compact.scanline.CompactionBox` view pairs.
    """

    __slots__ = ("boxes", "first", "second")

    def __init__(self, boxes: EdgeBoxes, first, second) -> None:
        self.boxes = boxes
        self.first = first
        self.second = second

    def __len__(self) -> int:
        return int(self.first.shape[0])

    def __iter__(self) -> Iterator[Tuple[CompactionBox, CompactionBox]]:
        boxes = self.boxes
        for i, j in zip(self.first.tolist(), self.second.tolist()):
            yield boxes[i], boxes[j]


def alignment_pairs(boxes: EdgeBoxes) -> AlignmentPairs:
    """Pairs of drawn-connected boxes whose centres want to align.

    Same-layer boxes whose closed rectangles meet, as ``(i, j)`` with
    ``i < j`` and the pairs in input order.  Found by the banded sweep
    of :func:`repro.geometry.batch.touching_pairs`, so the cost follows
    the layout's local density, not the square of its box count.
    """
    first, second = batch.touching_pairs(boxes.arrays, boxes.codes)
    return AlignmentPairs(boxes, first, second)


def misalignment(pairs: AlignmentPairs, solution) -> int:
    """Total centre-to-centre x misalignment over connected pairs.

    ``solution`` holds values by variable id.  Uses doubled centres to
    stay on the integer grid.  Zero for a perfectly jog-free solution of
    aligned pairs.
    """
    if not len(pairs):
        return 0
    values = np.asarray(solution, dtype=np.int64)
    boxes = pairs.boxes
    centre = values[boxes.left] + values[boxes.right]
    drawn = boxes.arrays.xmin + boxes.arrays.xmax
    a, b = pairs.first, pairs.second
    return int(np.abs((centre[a] - centre[b]) - (drawn[a] - drawn[b])).sum())


def rubber_band_solve(
    system: ConstraintSystem,
    boxes: EdgeBoxes,
    max_width: int,
    pairs: Optional[AlignmentPairs] = None,
) -> List[int]:
    """Minimise connected-pair misalignment within ``max_width``.

    Subject to every constraint in ``system`` plus ``0 <= x <= max_width``
    for all variables.  Preserves the bounding box of the greedy solve
    while removing the jogs it introduced.  Returns values by variable
    id.  Integer rounding is repaired by Bellman-Ford: when the rounded
    LP optimum violates a constraint, the solver re-relaxes from the
    rounded point (hint-seeded solve) and the repair is kept if it
    stays inside ``max_width``.
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
    solution = [
        int(round(value)) for value in result.x[: system.variable_count].tolist()
    ]
    violated = system.check(solution)
    if violated:
        # Repair: least feasible point at or above the rounded one.
        repaired = solve_longest_path(system, hint=solution).values
        if max(repaired, default=0) > max_width:
            raise InfeasibleConstraintsError(
                f"rubber-band rounding violated {len(violated)} constraint(s)"
                " and the repair exceeded the width limit"
            )
        return repaired
    return solution


def _rubber_band_program(
    system: ConstraintSystem,
    pairs: AlignmentPairs,
    max_width: int,
):
    """The rubber-band LP as ``(cost, A_ub, b_ub, bounds)``.

    Variables are the edge abscissas by id followed by one misalignment
    bound ``t_k`` per pair.  Rows are every difference constraint
    ``x[s] - x[t] <= -w`` in system order, then per pair ``k`` the two
    rows of ``|d_k - drawn_k| <= t_k`` with
    ``d_k = (l_a + r_a) - (l_b + r_b)``.  ``A_ub`` is a CSR matrix, or
    ``None`` when there are no rows.
    """
    from scipy import sparse  # deferred: see the module notes

    num_x = system.variable_count
    num_t = len(pairs)
    count = len(system)
    source, target, weight, _ = system.columns()
    # Difference rows, in system order: x[s] - x[t] <= -w.
    rows = [np.arange(count), np.arange(count)]
    columns = [source, target]
    values = [np.ones(count), -np.ones(count)]
    rhs = np.empty(count + 2 * num_t)
    rhs[:count] = -weight.astype(float)
    # Pair k, sign s (rows interleaved per pair):
    # s * ((l_a + r_a) - (l_b + r_b)) - t_k <= s * drawn_k.
    boxes, a, b = pairs.boxes, pairs.first, pairs.second
    edges = (boxes.left[a], boxes.right[a], boxes.left[b], boxes.right[b])
    centre = boxes.arrays.xmin + boxes.arrays.xmax
    drawn = (centre[a] - centre[b]).astype(float)
    bound_columns = num_x + np.arange(num_t)
    for offset, sign in enumerate((1.0, -1.0)):
        pair_rows = count + 2 * np.arange(num_t) + offset
        for column, coefficient in zip(edges, (sign, sign, -sign, -sign)):
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
