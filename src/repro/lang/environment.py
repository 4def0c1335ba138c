"""Environments and the scoping discipline of Figure 4.1.

The paper uses a flat form of lexical scoping: a variable lookup searches
(1) the executing procedure's own frame, (2) the global environment, and
(3) the table of available cells.  Parameter-file bindings live in the
global environment; a binding whose value is an :class:`Alias` (a bare
identifier such as ``corecell = basiccell``) is chased through the same
three-stage lookup, which is how the parameter file personalises design
files to sample-layout cell names.

Macros return their :class:`Environment`; ``subcell env name`` reads a
binding out of a returned environment (section 4.2).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, Union

from ..core.cell import CellTable
from ..core.errors import UnboundVariableError

__all__ = ["Alias", "Environment", "GlobalEnvironment", "BindingKey"]

# Simple variables key by name; indexed variables by (name, (i,)) or
# (name, (i, j)).
BindingKey = Union[str, Tuple[str, Tuple[int, ...]]]


class Alias:
    """A deferred name binding, e.g. ``corecell = basiccell``.

    Resolution re-enters the environment/global/cell-table chain with the
    aliased name (Figure 4.1's lookup sequence).
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __eq__(self, other) -> bool:
        if isinstance(other, Alias):
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("alias", self.name))

    def __repr__(self) -> str:
        return f"Alias({self.name!r})"


class Environment:
    """A procedure frame: bindings plus a link to the global environment.

    Unlike classical Lisp frames these may outlive the procedure call —
    macros return them — so they are plain dictionaries with no parent
    chain other than the global environment (the paper's lexical-scoping
    simplification).
    """

    __slots__ = ("bindings", "globals", "procedure_name")

    def __init__(self, globals_: "GlobalEnvironment", procedure_name: str = "") -> None:
        self.bindings: Dict[BindingKey, Any] = {}
        self.globals = globals_
        self.procedure_name = procedure_name

    # ------------------------------------------------------------------
    def bind(self, key: BindingKey, value: Any) -> None:
        """Bind (or rebind) ``key`` in this frame."""
        self.bindings[key] = value

    def local(self, key: BindingKey) -> Any:
        """Read a binding from this frame only (the ``subcell`` accessor)."""
        try:
            return self.bindings[key]
        except KeyError:
            raise UnboundVariableError(
                f"{_describe(key)} is not bound in the environment of"
                f" {self.procedure_name or '<anonymous>'}"
            ) from None

    def lookup(self, key: BindingKey, _depth: int = 0) -> Any:
        """Full three-stage lookup with alias chasing (Figure 4.1).

        Each alias re-enters the chain at this frame; more than 32
        aliases in a row is an error.  ``_depth`` is the number of
        aliases already chased to reach ``key``.
        """
        bindings = self.bindings
        global_bindings = self.globals.bindings
        while True:
            if _depth > 32:
                raise UnboundVariableError(
                    f"alias chain too deep while resolving {_describe(key)}"
                )
            if key in bindings:
                value = bindings[key]
            elif key in global_bindings:
                value = global_bindings[key]
            else:
                value = self.globals.lookup_raw(key)
            if not isinstance(value, Alias):
                return value
            key = value.name
            _depth += 1

    def __repr__(self) -> str:
        return f"Environment({self.procedure_name!r}, {len(self.bindings)} bindings)"


class GlobalEnvironment:
    """The global environment plus the cell-table fallback."""

    __slots__ = ("bindings", "cell_table")

    def __init__(self, cell_table: Optional[CellTable] = None) -> None:
        self.bindings: Dict[BindingKey, Any] = {}
        self.cell_table = cell_table

    def bind(self, key: BindingKey, value: Any) -> None:
        """Bind (or rebind) a global, e.g. a parameter-file value."""
        self.bindings[key] = value

    def lookup_raw(self, key: BindingKey) -> Any:
        """Global bindings, then the cell table (no alias chasing)."""
        if key in self.bindings:
            return self.bindings[key]
        if isinstance(key, str) and self.cell_table is not None:
            cell = self.cell_table.get(key)
            if cell is not None:
                return cell
        raise UnboundVariableError(f"unbound variable {_describe(key)}")

    def frame(self, procedure_name: str = "") -> Environment:
        """A fresh, empty procedure frame over this global environment."""
        return Environment(self, procedure_name)


def _describe(key: BindingKey) -> str:
    if isinstance(key, str):
        return repr(key)
    name, indices = key
    return repr(name + "." + ".".join(str(i) for i in indices))
