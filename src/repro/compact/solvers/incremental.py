"""Incremental re-solve backend.

Workloads like the pitch-tradeoff sweep and the integer rounding search
of the leaf-cell compactor solve the *same* constraint system dozens of
times with only a handful of effective weights changed (a pitch value
moved by one).  A full Bellman-Ford run re-derives every variable from
scratch each time; this backend keeps the previous solution and relaxes
only the *cone* of variables reachable from the changed constraints.

Soundness of the reuse: a variable outside the cone has no constraint
path from any changed constraint, so every ancestor that determines its
least value is also outside the cone and unchanged — its previous value
is still both feasible and minimal.  Variables inside the cone are reset
to ``lower_bound`` and re-relaxed (Gauss-Seidel over their incoming
constraints, processed in prior-solution order so convergence is
near-single-pass), which handles weights that loosened as well as
weights that tightened.

The backend is stateful: hold one instance per solving loop (the
registry hands out a fresh instance per :func:`~.base.get_solver` call).
Without a cached run — or across different systems — it degrades to a
full worklist solve, so it is always safe to use.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from ...core.errors import InfeasibleConstraintsError
from ..constraints import ConstraintSystem
from .base import SolveStats, register_solver, resolve_weights, seed_solution

__all__ = ["IncrementalSolver"]


class IncrementalSolver:
    """Cone-limited re-solve seeded from the previous solution."""

    name = "incremental"

    def __init__(self) -> None:
        self._system: Optional[ConstraintSystem] = None
        self._variable_count = 0
        self._constraint_count = 0
        self._lower_bound: Optional[int] = None
        self._weights: Optional[List[int]] = None
        self._values: Optional[List[int]] = None
        self._forward: List[List[int]] = []
        self._incoming: List[List[Tuple[int, int]]] = []

    # ------------------------------------------------------------------
    def solve(
        self,
        system: ConstraintSystem,
        sort_edges: bool = True,
        lower_bound: int = 0,
        pitches: Optional[Dict[str, int]] = None,
        hint=None,
    ) -> SolveStats:
        """Least solution, reusing the cached previous run when valid."""
        n = system.variable_count
        weights = resolve_weights(system, pitches).tolist()
        self._ensure_adjacency(system)

        cached = (
            hint is None
            and self._values is not None
            and self._weights is not None
            and self._lower_bound == lower_bound
        )
        if cached:
            previous = self._weights
            changed = [
                position
                for position, weight in enumerate(weights)
                if position >= len(previous) or weight != previous[position]
            ]
        else:
            changed = list(range(len(weights)))

        targets = system.columns()[1]
        affected = self._cone(n, targets[changed].tolist())
        if cached:
            base = list(self._values)
            for v in affected:
                base[v] = lower_bound
        else:
            base = seed_solution(system, lower_bound, hint)

        stats = SolveStats(
            sorted_edges=sort_edges, backend=self.name, lower_bound=lower_bound,
            names=system.names(),
        )
        stats.reused = n - len(affected)
        x = list(base)
        if affected:
            self._relax(system, weights, x, base, affected, sort_edges, stats)

        stats.values = list(x)
        if hint is None:
            # A hinted solve is minimal only above its hint; caching it
            # would poison later cone reuse, so only unhinted runs are
            # remembered.
            self._lower_bound = lower_bound
            self._weights = weights
            self._values = x
        return stats

    # ------------------------------------------------------------------
    def _ensure_adjacency(self, system: ConstraintSystem) -> None:
        """(Re)build adjacency and drop the cache when the system changed shape."""
        n = system.variable_count
        fresh = (
            self._system is not system
            or self._variable_count != n
            or self._constraint_count != len(system)
        )
        if not fresh:
            return
        # Any change of shape voids the cached solution; the win this
        # backend targets is same-shape re-solves with new weights.
        self._weights = None
        self._values = None
        forward: List[List[int]] = [[] for _ in range(n)]
        incoming: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        source, target, _, _ = system.columns()
        for position, (u, v) in enumerate(zip(source.tolist(), target.tolist())):
            forward[u].append(v)
            incoming[v].append((u, position))
        self._system = system
        self._variable_count = n
        self._constraint_count = len(system)
        self._forward = forward
        self._incoming = incoming

    def _cone(self, n: int, roots: List[int]) -> List[int]:
        """Vertices reachable from ``roots`` along constraint edges."""
        forward = self._forward
        marked = [False] * n
        queue = deque()
        for root in roots:
            if not marked[root]:
                marked[root] = True
                queue.append(root)
        cone: List[int] = []
        while queue:
            v = queue.popleft()
            cone.append(v)
            for successor in forward[v]:
                if not marked[successor]:
                    marked[successor] = True
                    queue.append(successor)
        return cone

    def _relax(
        self,
        system: ConstraintSystem,
        weights: List[int],
        x: List[int],
        base: List[int],
        affected: List[int],
        sort_edges: bool,
        stats: SolveStats,
    ) -> None:
        """Gauss-Seidel over the affected cone's incoming constraints."""
        incoming = self._incoming
        forward = self._forward
        in_cone = [False] * len(x)
        for v in affected:
            in_cone[v] = True
        if sort_edges:
            previous = self._values
            if previous is not None and len(previous) == len(x):
                order_key = previous
            else:
                order_key = system.initial.tolist()
            ordered = sorted(affected, key=lambda v: order_key[v])
        else:
            ordered = list(affected)

        queue = deque(ordered)
        queued = [False] * len(x)
        for v in ordered:
            queued[v] = True
        pops = [0] * len(x)
        limit = len(affected) + 1
        relaxations = 0
        total_pops = 0
        while queue:
            v = queue.popleft()
            queued[v] = False
            pops[v] += 1
            total_pops += 1
            if pops[v] > limit:
                self._weights = None
                self._values = None
                raise InfeasibleConstraintsError(
                    "positive cycle: the constraint system is overconstrained"
                )
            value = base[v]
            for source, position in incoming[v]:
                candidate = x[source] + weights[position]
                if candidate > value:
                    value = candidate
            if value > x[v]:
                x[v] = value
                relaxations += 1
                for successor in forward[v]:
                    if in_cone[successor] and not queued[successor]:
                        queued[successor] = True
                        queue.append(successor)
        stats.relaxations = relaxations
        stats.passes = max(1, -(-total_pops // max(1, len(affected))))


register_solver(IncrementalSolver.name, IncrementalSolver)
