"""The longest-path solver of section 6.4.2: sorted-edge Bellman-Ford.

The minimal solution of ``x[t] - x[s] >= w`` with ``x >= lower_bound``
is the longest path from a virtual source; positive cycles mean the
constraints are infeasible.  The solver relaxes the full constraint
list pass after pass until a fixpoint.  Bamji: the algorithm "proved to
be extremely fast, especially if the edges are traversed in sorted
(according to their abscissa) order" — when the drawn edge ordering
survives compaction, exactly one productive pass suffices and a second
pass confirms the fixpoint.  That confirming pass is one array test
(is any constraint still violated?) rather than a sweep, counted as a
pass all the same.  More than ``|V| + 1`` passes means a positive
cycle: the system is infeasible.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from typing import ClassVar, Dict, List, Optional

import numpy as np

from ..core.errors import InfeasibleConstraintsError
from .constraints import ConstraintSystem, Variable, VariableNames

__all__ = [
    "SolveCounts", "SolveStats", "resolve_weights", "seed_solution", "solve_longest_path",
]


@dataclass(frozen=True)
class SolveCounts:
    """A solver run's counters without its solution: what a
    :class:`SolveStats` prints and reports, and what a flat result keeps."""

    #: the algorithm's name in printed stats and on trace spans
    backend: ClassVar[str] = "bellman-ford"

    passes: int
    relaxations: int
    sorted_edges: bool
    variables: int
    width: int
    lower_bound: int

    def __str__(self) -> str:
        return ", ".join([
            f"{self.backend}: {self.variables} vars",
            f"width {self.width}",
            f"{self.passes} pass{'es' if self.passes != 1 else ''}",
            f"{self.relaxations} relaxations",
        ])

    def to_dict(self) -> Dict[str, object]:
        """The counters as a JSON-ready dict.

        This is what rides on ``solver.solve`` trace spans and in
        machine-readable reports — counts and shape only; the solution
        stays behind because it is large.
        """
        return {"backend": self.backend, **asdict(self)}


@dataclass
class SolveStats:
    """Diagnostics from a solver run.

    ``passes``/``relaxations`` count solver work (a *pass* is one sweep
    over the constraint list).  ``values`` is the solution by variable
    id; :attr:`solution` is the same solution keyed by variable name,
    spelled on first use from ``names``.
    """

    backend: ClassVar[str] = SolveCounts.backend

    passes: int = 0
    relaxations: int = 0
    sorted_edges: bool = False
    values: List[int] = field(default_factory=list)
    lower_bound: int = 0
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
        after a hint-seeded solve (the hint may lift every variable off
        the wall).  For a fresh minimal solve some variable always
        rests on ``lower_bound`` and the two definitions agree.
        """
        if not self.values:
            return 0
        low = min(min(self.values), self.lower_bound)
        return max(self.values) - low

    def counts(self) -> SolveCounts:
        """The run's counters, without the solution."""
        return SolveCounts(
            self.passes, self.relaxations, self.sorted_edges, len(self.values),
            self.width(), self.lower_bound,
        )

    def __str__(self) -> str:
        return str(self.counts())

    def to_dict(self) -> Dict[str, object]:
        """The diagnostics as a JSON-ready dict (:meth:`SolveCounts.to_dict`)."""
        return self.counts().to_dict()


def resolve_weights(
    system: ConstraintSystem, pitches: Optional[Dict[str, int]]
) -> np.ndarray:
    """Effective integer weight of each constraint at fixed pitches.

    Substitutes ``pitches`` into every pitch term, in constraint order,
    and returns the weights as an int64 column.  Raises
    :class:`InfeasibleConstraintsError` when a pitch variable has no
    value — symbolic pitches need the leaf-cell LP, not a longest-path
    solve.
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


def solve_longest_path(
    system: ConstraintSystem,
    sort_edges: bool = True,
    lower_bound: int = 0,
    pitches: Optional[Dict[str, int]] = None,
    hint=None,
) -> SolveStats:
    """Solve for the least solution with every variable >= lower_bound.

    With ``sort_edges`` the constraint list is ordered by the drawn
    abscissa of each source variable, ties in constraint order (a
    stable sort), then relaxed over plain int lists.  ``pitches``
    substitutes fixed values for pitch variables so that a leaf-cell
    system can be solved for given pitches (used to explore the
    tradeoff curves of section 6.2).  ``hint`` (values by id, or a
    mapping keyed by variable name) seeds the relaxation at
    ``max(hint, lower_bound)``, returning the least solution at or
    above the hint.  Raises :class:`InfeasibleConstraintsError` on a
    positive cycle or on a symbolic pitch with no value in ``pitches``.
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
        # The next pass relaxes something exactly when some constraint
        # is violated now; when none is, it is the confirming pass.
        values = np.asarray(x)
        if not (values[source] + weight > values[target]).any():
            passes += 1
            break
    return SolveStats(
        passes=passes, relaxations=relaxations, sorted_edges=sort_edges,
        values=x, lower_bound=lower_bound, names=system.names(),
    )
