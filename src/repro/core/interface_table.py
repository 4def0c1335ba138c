"""The interface table (paper section 2.4).

The table maps triples ``(cellname1, cellname2, interface index)`` to
interfaces ``(vector, orientation)``.  Whenever ``I_ab`` is loaded the
corresponding ``I_ba`` is loaded too — the *bilaterality* that lets graph
expansion derive either endpoint's placement from the other (section 2.4).

For a pair of *identical* cell names the inverse may collide with the
forward entry under the same key; section 3.4 resolves the resulting
ambiguity with directed graph edges, and the table simply records which of
``I_aa``/``I_aa^-1`` the user designated as the reference direction.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from .errors import DuplicateInterfaceError, UnknownInterfaceError
from .interface import Interface

__all__ = ["InterfaceTable"]

Key = Tuple[str, str, int]


class InterfaceTable:
    """Bilateral mapping from (cellA, cellB, index) to interfaces."""

    def __init__(self) -> None:
        self._table: Dict[Key, Interface] = {}

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def declare(
        self,
        cell_a: str,
        cell_b: str,
        index: int,
        interface: Interface,
        replace: bool = False,
    ) -> None:
        """Load ``I_ab`` under ``(cell_a, cell_b, index)`` and its inverse
        under ``(cell_b, cell_a, index)``.

        For ``cell_a == cell_b`` the forward interface is the reference
        direction; the inverse is recoverable via :meth:`lookup_reverse`.
        """
        key = (cell_a, cell_b, index)
        if not replace and key in self._table:
            raise DuplicateInterfaceError(
                f"interface #{index} between {cell_a!r} and {cell_b!r} already loaded"
            )
        self._table[key] = interface
        if cell_a != cell_b:
            self._table[(cell_b, cell_a, index)] = interface.inverse()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, cell_a: str, cell_b: str, index: int) -> Interface:
        """Return ``I_ab`` for the given triple.

        Raises :class:`UnknownInterfaceError` when absent.
        """
        try:
            return self._table[(cell_a, cell_b, index)]
        except KeyError:
            raise UnknownInterfaceError(
                f"no interface #{index} between {cell_a!r} and {cell_b!r}"
            ) from None

    def lookup_reverse(self, cell_a: str, cell_b: str, index: int) -> Interface:
        """Return ``I_ba`` given the key of ``I_ab``.

        Needed for same-celltype edges traversed against their direction.
        """
        return self.lookup(cell_a, cell_b, index).inverse()

    def has(self, cell_a: str, cell_b: str, index: int) -> bool:
        """True when ``I_ab`` is loaded under ``(cell_a, cell_b, index)``."""
        return (cell_a, cell_b, index) in self._table

    def indices_between(self, cell_a: str, cell_b: str) -> List[int]:
        """All interface index numbers loaded for the ordered cell pair."""
        return sorted(
            index for (a, b, index) in self._table if a == cell_a and b == cell_b
        )

    def next_index(self, cell_a: str, cell_b: str) -> int:
        """Smallest positive index not yet used for this ordered pair."""
        used = set(self.indices_between(cell_a, cell_b))
        index = 1
        while index in used:
            index += 1
        return index

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[Tuple[Key, Interface]]:
        return iter(self._table.items())

    def cells(self) -> Tuple[str, ...]:
        """All cell names appearing in any loaded interface."""
        seen = set()
        for a, b, _ in self._table:
            seen.add(a)
            seen.add(b)
        return tuple(sorted(seen))
