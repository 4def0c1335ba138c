"""Constraint-graph representation (section 6.3).

One-dimensional compaction in x: the unknowns are the abscissas of the
vertical box edges, plus — for leaf-cell compaction — the pitch
variables lambda_i.  A constraint is

    x_target - x_source >= weight + sum(coefficient * lambda)

Pure difference constraints (no lambda terms) form a graph solvable by
longest-path Bellman-Ford; constraints carrying lambda terms require the
linear-programming treatment of section 6.3 ("cannot be solved by
shortest path algorithms ... because the weights are not all constants").

The system is stored as columns.  Variables are integer ids in
declaration order; the edge variables of box ``i`` of an edge block are
``first + 2i`` (left) and ``first + 2i + 1`` (right).  Constraints are
four parallel int64 columns — ``source``, ``target``, ``weight`` and a
``kind`` code into :attr:`ConstraintSystem.kinds` — that generators
grow by whole arrays (:meth:`ConstraintSystem.extend`).  Pitch terms
live in a sparse side table keyed by constraint position; only the
leaf-cell compactor writes them.  Names (``"e12.l"``) and
:class:`Constraint` records are views, spelled on demand for the
leaf-cell compactor, diagnostics and tests.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["Constraint", "ConstraintSystem", "Variable", "VariableNames"]

Variable = str

#: kind codes every system knows; :meth:`ConstraintSystem.kind_code`
#: appends any other provenance tag to the system's own table
KIND_NAMES = ("", "width", "equal", "connect", "spacing")
WIDTH, EQUAL, CONNECT, SPACING = 1, 2, 3, 4

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class Constraint:
    """``x[target] - x[source] >= weight + sum(coef * pitch)``."""

    source: Variable
    target: Variable
    weight: int
    #: pitch-variable coefficients, e.g. {"lam_1": -1}
    pitch_terms: Tuple[Tuple[str, int], ...] = ()
    #: provenance tag for diagnostics ("width", "spacing", "overlap", ...)
    kind: str = ""

    def has_pitch_terms(self) -> bool:
        """Whether this constraint carries a symbolic pitch term."""
        return bool(self.pitch_terms)


class VariableNames:
    """The names of a system's first ``count`` variables, spelled lazily.

    Edge blocks spell ``f"{prefix}{k}.l"`` / ``f"{prefix}{k}.r"``;
    single variables keep the name they were declared with.  Solver
    diagnostics carry one of these instead of a list of strings, so a
    name exists only when someone asks for a name-keyed view.
    """

    __slots__ = ("count", "blocks", "singles")

    def __init__(self, count: int, blocks, singles) -> None:
        self.count = count
        #: (first id, box count, prefix) per edge block
        self.blocks = blocks
        #: id -> name of each singly declared variable
        self.singles = singles

    def spell(self) -> List[Variable]:
        """Every name, by variable id."""
        names: List[Variable] = [""] * self.count
        for first, boxes, prefix in self.blocks:
            if first >= self.count:
                break
            names[first:first + 2 * boxes] = [
                f"{prefix}{k}.{side}" for k in range(boxes) for side in "lr"
            ]
        for position, name in self.singles.items():
            if position < self.count:
                names[position] = name
        return names[: self.count]


class _Columns:
    """Parallel int64 columns grown by whole arrays or single rows.

    Appended arrays are kept as parts and single rows in Python lists;
    :meth:`arrays` joins them once and keeps the joined columns until
    the next append.
    """

    __slots__ = ("width", "_parts", "_rows", "_joined")

    def __init__(self, width: int) -> None:
        self.width = width
        self._parts: List[Tuple[np.ndarray, ...]] = []
        self._rows: List[Tuple[int, ...]] = []
        self._joined: Optional[Tuple[np.ndarray, ...]] = (_EMPTY,) * width

    def extend(self, *columns: np.ndarray) -> None:
        """Append whole columns (one array per column)."""
        self._flush()
        self._parts.append(columns)
        self._joined = None

    def append(self, *row: int) -> None:
        """Append one row (one value per column)."""
        self._rows.append(row)
        self._joined = None

    def arrays(self) -> Tuple[np.ndarray, ...]:
        """The columns, joined."""
        if self._joined is None:
            self._flush()
            parts = self._parts
            if len(parts) == 1:
                self._joined = parts[0]
            else:
                self._joined = tuple(
                    np.concatenate([part[k] for part in parts])
                    for k in range(self.width)
                )
            self._parts = [self._joined]
        return self._joined

    def _flush(self) -> None:
        if self._rows:
            self._parts.append(
                tuple(np.array(column, dtype=np.int64) for column in zip(*self._rows))
            )
            self._rows = []


class ConstraintSystem:
    """A set of variables, pitch variables, and constraints (as columns)."""

    def __init__(self) -> None:
        self.pitches: List[str] = []
        #: number of declared variables (ids run ``0 .. count - 1``)
        self.variable_count = 0
        #: kind code -> provenance tag
        self.kinds: List[str] = list(KIND_NAMES)
        #: constraint position -> pitch terms (the leaf-cell side table)
        self.pitch_terms: Dict[int, Tuple[Tuple[str, int], ...]] = {}
        self._blocks: List[Tuple[int, int, str]] = []
        self._singles: Dict[int, Variable] = {}
        self._initial = _Columns(1)
        self._count = 0
        self._columns = _Columns(4)
        self._index: Optional[Dict[Variable, int]] = None
        self._names: Optional[List[Variable]] = None
        self._views: Optional[List[Constraint]] = None

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    def add_edges(self, xmin, xmax, prefix: str = "e") -> int:
        """Declare the left/right edge variables of a block of boxes.

        Box ``k`` gets ids ``first + 2k`` (initial abscissa ``xmin[k]``)
        and ``first + 2k + 1`` (``xmax[k]``); their names read
        ``f"{prefix}{k}.l"`` and ``.r``.  Returns ``first``.
        """
        xmin = np.asarray(xmin, dtype=np.int64)
        count = int(xmin.shape[0])
        first = self.variable_count
        initial = np.empty(2 * count, dtype=np.int64)
        initial[0::2] = xmin
        initial[1::2] = xmax
        self._initial.extend(initial)
        self._blocks.append((first, count, prefix))
        self.variable_count += 2 * count
        self._forget_names()
        return first

    def add_variable(self, name: Variable, initial: int = 0) -> Variable:
        """Declare a named variable (idempotent); ``initial`` is its
        drawn abscissa, used by the sorted-edge solver heuristic."""
        index = self._name_index()
        position = index.get(name)
        if position is None:
            position = self.variable_count
            self.variable_count += 1
            self._singles[position] = name
            index[name] = position
            if self._names is not None:
                self._names.append(name)
            self._initial.append(int(initial))
        else:
            column = self.initial.copy()
            column[position] = initial
            self._initial = _Columns(1)
            self._initial.extend(column)
        return name

    def add_pitch(self, name: str) -> str:
        """Declare a pitch variable lambda (idempotent)."""
        if name not in self.pitches:
            self.pitches.append(name)
        return name

    @property
    def initial(self) -> np.ndarray:
        """Drawn abscissa per variable id (the sorted-edge solver key)."""
        return self._initial.arrays()[0]

    def names(self) -> VariableNames:
        """Lazily spelled names of the variables declared so far."""
        return VariableNames(self.variable_count, self._blocks, self._singles)

    @property
    def variables(self) -> List[Variable]:
        """Variable names by id (a view, spelled on first use)."""
        if self._names is None:
            self._names = self.names().spell()
        return self._names

    def index_of(self, variable: Variable) -> int:
        """Id of the variable called ``variable``."""
        return self._name_index()[variable]

    # ------------------------------------------------------------------
    # Constraints
    # ------------------------------------------------------------------
    def kind_code(self, kind: str) -> int:
        """Code of the provenance tag ``kind`` (registered on first use)."""
        try:
            return self.kinds.index(kind)
        except ValueError:
            self.kinds.append(kind)
            return len(self.kinds) - 1

    def extend(self, source, target, weight, kind, pitch_terms=None) -> None:
        """Append constraints given as id columns.

        ``kind`` is a code array, or one code or tag for every row;
        ``pitch_terms`` optionally gives the terms of each row (an empty
        tuple for none).
        """
        source = np.asarray(source, dtype=np.int64)
        count = int(source.shape[0])
        if count == 0:
            return
        if isinstance(kind, str):
            kind = self.kind_code(kind)
        kind = np.asarray(kind, dtype=np.int64)
        if kind.ndim == 0:
            code, kind = kind, np.empty(count, dtype=np.int64)
            kind.fill(code)
        if pitch_terms is not None:
            for offset, terms in enumerate(pitch_terms):
                if terms:
                    self.pitch_terms[self._count + offset] = tuple(terms)
        self._columns.extend(
            source,
            np.asarray(target, dtype=np.int64),
            np.asarray(weight, dtype=np.int64),
            kind,
        )
        self._count += count
        self._views = None

    def add(
        self,
        source: Variable,
        target: Variable,
        weight: int,
        pitch_terms: Iterable[Tuple[str, int]] = (),
        kind: str = "",
    ) -> Constraint:
        """Add ``x[target] - x[source] >= weight + sum(coef * pitch)``."""
        index = self._name_index()
        if source not in index or target not in index:
            raise KeyError("constraint endpoints must be declared variables")
        terms = tuple(pitch_terms)
        if terms:
            self.pitch_terms[self._count] = terms
        self._columns.append(
            index[source], index[target], int(weight), self.kind_code(kind)
        )
        self._count += 1
        self._views = None
        return Constraint(source, target, weight, terms, kind)

    def require_equal(self, a: Variable, b: Variable, offset: int = 0) -> None:
        """Pin ``x[b] - x[a] == offset`` (two inequalities)."""
        self.add(a, b, offset, kind="equal")
        self.add(b, a, -offset, kind="equal")

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(source, target, weight, kind)`` int64 columns, in order.

        ``weight`` excludes pitch terms (see :meth:`weights`); ``kind``
        indexes :attr:`kinds`.
        """
        return self._columns.arrays()

    def weights(self, pitches: Optional[Dict[str, int]] = None) -> np.ndarray:
        """Effective weight per constraint with ``pitches`` substituted.

        Raises ``KeyError`` naming the first pitch without a value.
        """
        weight = self.columns()[2]
        if not self.pitch_terms:
            return weight
        weight = weight.copy()
        pitches = pitches or {}
        for position, terms in self.pitch_terms.items():
            for pitch, coefficient in terms:
                weight[position] += coefficient * pitches[pitch]
        return weight

    @property
    def constraints(self) -> List[Constraint]:
        """The constraints as :class:`Constraint` records (a view)."""
        if self._views is None:
            names = self.variables
            kinds = self.kinds
            source, target, weight, kind = self.columns()
            terms = self.pitch_terms
            self._views = [
                Constraint(names[s], names[t], w, terms.get(position, ()), kinds[k])
                for position, (s, t, w, k) in enumerate(
                    zip(source.tolist(), target.tolist(), weight.tolist(),
                        kind.tolist())
                )
            ]
        return self._views

    # ------------------------------------------------------------------
    def has_pitch_terms(self) -> bool:
        """Whether any constraint carries a symbolic pitch term."""
        return bool(self.pitch_terms)

    def check(
        self, solution, pitches: Optional[Dict[str, int]] = None
    ) -> List[Constraint]:
        """Return the constraints *violated* by a candidate solution
        (values by id, or a mapping keyed by variable name)."""
        if not self._count:
            return []
        if isinstance(solution, Mapping):
            solution = [solution[name] for name in self.variables]
        values = np.array(solution, dtype=np.int64)
        source, target, _, _ = self.columns()
        slack = values[target] - values[source] - self.weights(pitches)
        violated = np.flatnonzero(slack < 0)
        if violated.size == 0:
            return []
        views = self.constraints
        return [views[position] for position in violated.tolist()]

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        return (
            f"ConstraintSystem({self.variable_count} variables,"
            f" {len(self.pitches)} pitches, {self._count} constraints)"
        )

    # ------------------------------------------------------------------
    def _forget_names(self) -> None:
        self._names = None
        self._index = None

    def _name_index(self) -> Dict[Variable, int]:
        if self._index is None:
            self._index = {
                name: position for position, name in enumerate(self.variables)
            }
        return self._index
