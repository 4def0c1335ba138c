"""Exception hierarchy for the RSG reproduction."""

from __future__ import annotations

from typing import Any

__all__ = [
    "RsgError",
    "CellError",
    "DuplicateCellError",
    "UnknownCellError",
    "InterfaceError",
    "UnknownInterfaceError",
    "DuplicateInterfaceError",
    "GraphError",
    "InconsistentGraphError",
    "DisconnectedGraphError",
    "LanguageError",
    "ParseError",
    "EvalError",
    "UnboundVariableError",
    "CompactionError",
    "InfeasibleConstraintsError",
    "VerificationError",
    "ServiceError",
    "QueueFullError",
]


class RsgError(Exception):
    """Base class for all errors raised by this library."""


class CellError(RsgError):
    """Problems with cell definitions or the cell table."""


class DuplicateCellError(CellError):
    """A cell with this name already exists in the table."""


class UnknownCellError(CellError):
    """A cell name did not resolve in the cell table."""


class InterfaceError(RsgError):
    """Problems with interfaces or the interface table."""


class UnknownInterfaceError(InterfaceError):
    """No interface with the requested (cells, index) triple is loaded."""


class DuplicateInterfaceError(InterfaceError):
    """An interface with this (cells, index) triple is already loaded."""


class GraphError(RsgError):
    """Problems building or expanding connectivity graphs."""


class InconsistentGraphError(GraphError):
    """A cycle in the connectivity graph implies contradictory placements."""


class DisconnectedGraphError(GraphError):
    """The connectivity graph is not a single connected component."""


class LanguageError(RsgError):
    """Problems in the design-file language front end."""


class ParseError(LanguageError):
    """Syntax error in a design or parameter file."""


class EvalError(LanguageError):
    """Runtime error while executing a design file."""


class UnboundVariableError(EvalError):
    """A variable resolved in neither environment, globals, nor cell table."""


class CompactionError(RsgError):
    """Problems in the compactor."""


class InfeasibleConstraintsError(CompactionError):
    """The constraint system admits no solution (positive cycle / LP infeasible)."""


class VerificationError(RsgError):
    """A requested verification ran and the layout did not pass it.

    ``headline`` is the one-line diagnostic; the message appends
    ``detail`` (the report summary) when one is given.  ``result`` is
    the partial job result when the shared pipeline raised it, so a
    front end can still print the stages that ran.
    """

    def __init__(self, headline: str, detail: str = "", result: Any = None) -> None:
        super().__init__(f"{headline}: {detail}" if detail else headline)
        self.headline = headline
        self.result = result


class ServiceError(RsgError):
    """A malformed or unserviceable layout-service request."""


class QueueFullError(ServiceError):
    """The service queue is at capacity; retry after ``retry_after`` seconds.

    The store raises this from ``submit`` when backpressure is
    configured (``max_queue_depth``) and the queue is full; the HTTP
    layer maps it to ``429`` with a ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after
