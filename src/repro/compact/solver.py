"""Constraint-system solving entry point (section 6.4.2).

The minimal solution of ``x[t] - x[s] >= w`` with ``x >= lower_bound``
is the longest path from a virtual source; positive cycles mean the
constraints are infeasible.  The actual algorithms live in
:mod:`repro.compact.solvers` as pluggable backends — the paper's
sorted-edge Bellman-Ford (the default here), a topological-order
longest-path sweep, and an incremental re-solver.  This module keeps the
original single-call interface as a thin wrapper over the registry.
"""

from __future__ import annotations

from typing import Dict, Optional

from .constraints import ConstraintSystem
from .solvers import SolveStats, get_solver

__all__ = ["SolveStats", "solve_longest_path"]


def solve_longest_path(
    system: ConstraintSystem,
    sort_edges: bool = True,
    lower_bound: int = 0,
    pitches: Optional[Dict[str, int]] = None,
    solver: Optional[str] = None,
    hint=None,
) -> SolveStats:
    """Solve for the least solution with every variable >= lower_bound.

    ``pitches`` substitutes fixed values for pitch variables so that a
    leaf-cell system can be solved for given pitches (used to explore
    the tradeoff curves of section 6.2).  ``solver`` names a registered
    backend (default ``"bellman-ford"``); ``hint`` (values by id, or a
    mapping keyed by variable name) seeds the relaxation, returning the
    least solution at or above the hint.  Raises
    :class:`InfeasibleConstraintsError` on a positive cycle and
    :class:`SolverConfigurationError` on an unknown backend name.
    """
    backend = get_solver(solver)
    return backend.solve(
        system,
        sort_edges=sort_edges,
        lower_bound=lower_bound,
        pitches=pitches,
        hint=hint,
    )
