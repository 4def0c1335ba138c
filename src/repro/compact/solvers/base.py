"""Solver-backend contract, diagnostics, and registry.

A *solver backend* computes the least solution of a difference-constraint
system ``x[t] - x[s] >= w`` with every variable at least ``lower_bound``
— the longest-path problem of section 6.4.2.  Backends are
interchangeable through :class:`SolverBackend` and are looked up by name
in a process-wide registry, so callers (leaf-cell compactor, flat
compactor, rubber-band pass, CLI) select an algorithm without knowing
its implementation:

* ``bellman-ford`` — the paper's sorted-edge relaxation (the baseline);
* ``topological`` — O(V+E) longest path over the condensation of the
  constraint graph (exact on cyclic systems too);
* ``incremental`` — re-solve that reuses a prior solution and relaxes
  only the cone reachable from changed constraints.

The ``hint`` argument has one meaning for every backend: seed the
relaxation at ``max(hint[v], lower_bound)`` instead of ``lower_bound``
and return the least solution *at or above the hint*.  Passing no hint
returns the global least solution.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ...core.errors import InfeasibleConstraintsError, SolverConfigurationError
from ..constraints import ConstraintSystem, Variable, VariableNames

try:  # pragma: no cover - typing fallback for very old interpreters
    from typing import Protocol
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

__all__ = [
    "SolveStats",
    "SolverBackend",
    "resolve_weights",
    "register_solver",
    "get_solver",
    "available_solvers",
    "DEFAULT_SOLVER",
]

DEFAULT_SOLVER = "bellman-ford"


@dataclass
class SolveStats:
    """Diagnostics from a solver run.

    ``passes``/``relaxations`` count solver work (a *pass* is one sweep
    over the constraint list for Bellman-Ford; graph-order backends
    report the number of sweep-equivalents they needed).  ``reused`` is
    the number of variables an incremental re-solve kept from the prior
    solution without relaxation.  ``values`` is the solution by variable
    id; :attr:`solution` is the same solution keyed by variable name,
    spelled on first use from ``names``.
    """

    passes: int = 0
    relaxations: int = 0
    sorted_edges: bool = False
    values: List[int] = field(default_factory=list)
    backend: str = ""
    lower_bound: int = 0
    reused: int = 0
    names: Optional[VariableNames] = field(default=None, repr=False, compare=False)
    _solution: Optional[Dict[Variable, int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def solution(self) -> Dict[Variable, int]:
        """The solution keyed by variable name (built on first access)."""
        if self._solution is None:
            spelled = self.names.spell() if self.names is not None else []
            self._solution = dict(zip(spelled, self.values))
        return self._solution

    def width(self) -> int:
        """Extent of the solved placement.

        The left wall of a compaction run is the solver's fixed
        ``lower_bound``, so the width is measured from that wall — not
        from ``min(solution)``, which can sit strictly above the wall
        after a hint-seeded or incremental re-solve (the affected cone
        may lift every variable off the wall).  For a fresh minimal
        solve some variable always rests on ``lower_bound`` and the two
        definitions agree.
        """
        if not self.values:
            return 0
        low = min(min(self.values), self.lower_bound)
        return max(self.values) - low

    def __str__(self) -> str:
        name = self.backend or "solver"
        parts = [
            f"{name}: {len(self.values)} vars",
            f"width {self.width()}",
            f"{self.passes} pass{'es' if self.passes != 1 else ''}",
            f"{self.relaxations} relaxations",
        ]
        if self.reused:
            parts.append(f"{self.reused} reused")
        return ", ".join(parts)

    def to_dict(self) -> Dict[str, object]:
        """The diagnostics as a JSON-ready dict (no variable solution).

        This is what rides on ``solver.solve`` trace spans and in
        machine-readable reports — counts and shape only; the solution
        stays behind because it is large.
        """
        return {
            "backend": self.backend,
            "passes": self.passes,
            "relaxations": self.relaxations,
            "sorted_edges": self.sorted_edges,
            "variables": len(self.values),
            "width": self.width(),
            "lower_bound": self.lower_bound,
            "reused": self.reused,
        }


class SolverBackend(Protocol):
    """What the compaction layer requires of a solver implementation."""

    #: registry name, e.g. ``"bellman-ford"``
    name: str

    def solve(
        self,
        system: ConstraintSystem,
        sort_edges: bool = True,
        lower_bound: int = 0,
        pitches: Optional[Dict[str, int]] = None,
        hint=None,
    ) -> SolveStats:
        """Return the least solution of ``system`` (above ``hint``).

        ``hint`` is values by id or a mapping keyed by variable name.

        Raises :class:`InfeasibleConstraintsError` on a positive cycle
        or on a symbolic pitch with no value in ``pitches``.
        """
        ...


def resolve_weights(
    system: ConstraintSystem, pitches: Optional[Dict[str, int]]
) -> np.ndarray:
    """Effective integer weight of each constraint at fixed pitches.

    Substitutes ``pitches`` into every pitch term, in constraint order,
    and returns the weights as an int64 column.  Raises
    :class:`InfeasibleConstraintsError` when a pitch variable has no
    value — symbolic pitches need the leaf-cell LP, not a longest-path
    backend.
    """
    try:
        return system.weights(pitches)
    except KeyError as missing:
        raise InfeasibleConstraintsError(
            f"pitch variable {missing.args[0]!r} has no value; use the"
            " leaf-cell LP solver for symbolic pitches"
        ) from None


def seed_solution(
    system: ConstraintSystem,
    lower_bound: int,
    hint,
) -> List[int]:
    """Initial value per variable id: ``max(hint, lower_bound)``.

    ``hint`` is values by id or a mapping keyed by variable name (names
    it does not list start at ``lower_bound``).
    """
    count = system.variable_count
    if hint is None or len(hint) == 0:
        return [lower_bound] * count
    if isinstance(hint, Mapping):
        return [
            max(hint.get(name, lower_bound), lower_bound)
            for name in system.variables
        ]
    return [value if value > lower_bound else lower_bound for value in hint]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Callable[[], "SolverBackend"]] = {}


def register_solver(name: str, factory: Callable[[], "SolverBackend"]) -> None:
    """Register a backend factory under ``name`` (later wins)."""
    _REGISTRY[name] = factory


def get_solver(name: Optional[str] = None) -> "SolverBackend":
    """Instantiate the backend registered under ``name``.

    Each call returns a fresh instance, so stateful backends (the
    incremental re-solver caches the previous run) are private to their
    call site: hold on to the instance to benefit from its cache.
    """
    key = name or DEFAULT_SOLVER
    if key not in _REGISTRY:
        raise SolverConfigurationError(
            f"unknown solver backend {key!r}; available:"
            f" {', '.join(available_solvers())}"
        )
    return _REGISTRY[key]()


def available_solvers() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))
