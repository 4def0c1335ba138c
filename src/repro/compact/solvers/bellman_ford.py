"""The paper's sorted-edge Bellman-Ford backend (section 6.4.2).

Relaxes the full constraint list pass after pass until a fixpoint.
Bamji: the algorithm "proved to be extremely fast, especially if the
edges are traversed in sorted (according to their abscissa) order" —
when the drawn edge ordering survives compaction, exactly one productive
pass suffices and a second pass confirms the fixpoint.  More than
``|V| + 1`` passes means a positive cycle: the system is infeasible.

This is the reference backend: every other backend must reproduce its
solutions exactly.
"""

from __future__ import annotations

from typing import Dict, Optional

from ...core.errors import InfeasibleConstraintsError
from ..constraints import ConstraintSystem
from .base import SolveStats, register_solver, resolve_weights, seed_solution

__all__ = ["BellmanFordSolver"]


class BellmanFordSolver:
    """Pass-based relaxation over the (optionally sorted) edge list."""

    name = "bellman-ford"

    def solve(
        self,
        system: ConstraintSystem,
        sort_edges: bool = True,
        lower_bound: int = 0,
        pitches: Optional[Dict[str, int]] = None,
        hint=None,
    ) -> SolveStats:
        """Least solution by repeated relaxation passes.

        With ``sort_edges`` the constraint list is ordered by the drawn
        abscissa of each source variable, ties in constraint order (a
        stable sort), then relaxed over plain int lists.
        """
        weight = resolve_weights(system, pitches)
        source, target, _, _ = system.columns()
        if sort_edges:
            order = system.initial[source].argsort(kind="stable")
            source, target, weight = source[order], target[order], weight[order]
        sources, targets, weights = source.tolist(), target.tolist(), weight.tolist()

        x = seed_solution(system, lower_bound, hint)
        passes = relaxations = 0
        limit = system.variable_count + 1
        while True:
            passes += 1
            before = relaxations
            for s, t, bound in zip(sources, targets, weights):
                candidate = x[s] + bound
                if candidate > x[t]:
                    x[t] = candidate
                    relaxations += 1
            if relaxations == before:
                break
            if passes > limit:
                raise InfeasibleConstraintsError(
                    "positive cycle: the constraint system is overconstrained"
                )
        return SolveStats(
            passes=passes, relaxations=relaxations, sorted_edges=sort_edges,
            values=x, backend=self.name, lower_bound=lower_bound,
            names=system.names(),
        )


register_solver(BellmanFordSolver.name, BellmanFordSolver)
