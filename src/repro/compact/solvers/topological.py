"""Topological-order longest-path backend.

The constraint graphs the scanline generator emits are acyclic in the
common case (every spacing/width/connection constraint points from a
left edge to a right edge), so the least solution is a single dynamic-
programming sweep in topological order — O(V + E), no repeated passes,
and integer-indexed adjacency instead of per-pass dict traffic.

Cycles do occur: ``require_equal`` (frozen cells) and ``preserve`` width
mode emit opposite-direction constraint pairs.  Those cycles always live
inside strongly connected components, so the backend falls back to an
exact condensation sweep: Tarjan's algorithm finds the components, the
component DAG is processed in topological order, and each non-trivial
component is relaxed to its local fixpoint (bounded by the component
size — exceeding it proves a positive cycle).  Cost is
O(V + E + sum |C_i| * |E_i|) over components, which stays linear when
components are the small rigid clusters compaction produces.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...core.errors import InfeasibleConstraintsError
import numpy as np

from ..constraints import ConstraintSystem
from .base import SolveStats, register_solver, resolve_weights, seed_solution

__all__ = ["TopologicalSolver"]


class TopologicalSolver:
    """DAG dynamic programming with an exact SCC-condensation fallback."""

    name = "topological"

    def solve(
        self,
        system: ConstraintSystem,
        sort_edges: bool = True,
        lower_bound: int = 0,
        pitches: Optional[Dict[str, int]] = None,
        hint=None,
    ) -> SolveStats:
        """Least solution in one sweep of the condensation order.

        ``sort_edges`` is accepted for interface compatibility; the
        processing order here is graph-derived, not abscissa-derived.
        """
        n = system.variable_count
        weights = resolve_weights(system, pitches).tolist()
        source, target, _, _ = system.columns()

        adjacency: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for u, v, weight in zip(source.tolist(), target.tolist(), weights):
            adjacency[u].append((v, weight))
        indegree = np.bincount(target, minlength=n).tolist()

        seed = seed_solution(system, lower_bound, hint)

        stats = SolveStats(
            sorted_edges=False, backend=self.name, lower_bound=lower_bound,
            names=system.names(),
        )

        # Fast path: Kahn's sweep doubling as the DP.  A vertex is
        # popped only once every incoming edge has been relaxed, so its
        # value is final at pop time.
        x = list(seed)
        remaining = list(indegree)
        stack = [v for v in range(n) if remaining[v] == 0]
        processed = 0
        relaxations = 0
        while stack:
            u = stack.pop()
            processed += 1
            value = x[u]
            for target, weight in adjacency[u]:
                candidate = value + weight
                if candidate > x[target]:
                    x[target] = candidate
                    relaxations += 1
                remaining[target] -= 1
                if remaining[target] == 0:
                    stack.append(target)
        if processed == n:
            stats.passes = 1
            stats.relaxations = relaxations
            stats.values = x
            return stats

        # Cyclic system: exact sweep over the condensation.
        x, passes, relaxations = self._solve_condensation(
            n, adjacency, seed
        )
        stats.backend = f"{self.name}+scc"
        stats.passes = passes
        stats.relaxations = relaxations
        stats.values = x
        return stats

    # ------------------------------------------------------------------
    def _solve_condensation(
        self,
        n: int,
        adjacency: List[List[Tuple[int, int]]],
        seed: List[int],
    ) -> Tuple[List[int], int, int]:
        components = _tarjan_components(n, adjacency)
        component_of = [0] * n
        for cid, members in enumerate(components):
            for v in members:
                component_of[v] = cid

        x = list(seed)
        relaxations = 0
        worst_passes = 1
        # Tarjan emits components sinks-first; reverse for source-first
        # processing so every cross edge into a component is relaxed
        # before the component itself.
        for cid in range(len(components) - 1, -1, -1):
            members = components[cid]
            intra = [
                (u, target, weight)
                for u in members
                for target, weight in adjacency[u]
                if component_of[target] == cid
            ]
            if intra:
                limit = len(members) + 1
                passes = 0
                while True:
                    passes += 1
                    changed = False
                    for u, target, weight in intra:
                        candidate = x[u] + weight
                        if candidate > x[target]:
                            x[target] = candidate
                            relaxations += 1
                            changed = True
                    if not changed:
                        break
                    if passes > limit:
                        raise InfeasibleConstraintsError(
                            "positive cycle: the constraint system is"
                            " overconstrained"
                        )
                worst_passes = max(worst_passes, passes)
            # Component solved; push its values across outgoing edges.
            for u in members:
                value = x[u]
                for target, weight in adjacency[u]:
                    if component_of[target] == cid:
                        continue
                    candidate = value + weight
                    if candidate > x[target]:
                        x[target] = candidate
                        relaxations += 1
        return x, worst_passes, relaxations


def _tarjan_components(
    n: int, adjacency: List[List[Tuple[int, int]]]
) -> List[List[int]]:
    """Strongly connected components, emitted sinks-first (iterative)."""
    order = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0

    for root in range(n):
        if order[root] != -1:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            v, edge_position = work[-1]
            if edge_position == 0:
                order[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            out = adjacency[v]
            for position in range(edge_position, len(out)):
                successor = out[position][0]
                if order[successor] == -1:
                    work[-1] = (v, position + 1)
                    work.append((successor, 0))
                    descended = True
                    break
                if on_stack[successor]:
                    if order[successor] < low[v]:
                        low[v] = order[successor]
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == order[v]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == v:
                        break
                components.append(component)
    return components


register_solver(TopologicalSolver.name, TopologicalSolver)
