"""AST node types for the design-file language.

The parse tree stays close to the S-expression surface: a program is a
list of *statements*; a statement is an integer, a string, a symbol, an
indexed variable, or a form (a list of statements).  Special forms
(``defun``, ``macro``, ``cond``, ``do``, ...) are recognised by the
interpreter, not by the parser, matching the paper's Lisp heritage.
"""

from __future__ import annotations

from typing import List, Union

__all__ = ["Symbol", "IndexedVar", "Form", "Statement"]


class Symbol:
    """A bare identifier."""

    __slots__ = ("name", "line")

    def __init__(self, name: str, line: int = 0) -> None:
        self.name = name
        self.line = line

    def __eq__(self, other) -> bool:
        if isinstance(other, Symbol):
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"Symbol({self.name!r})"


class IndexedVar:
    """An indexed variable reference ``base.index[.index2]``.

    ``indices`` holds one or two unevaluated statements; the interpreter
    evaluates them to integers to build the binding key
    ``(base, (i,))`` or ``(base, (i, j))``.
    """

    __slots__ = ("base", "indices", "line")

    def __init__(self, base: str, indices: List["Statement"], line: int = 0) -> None:
        self.base = base
        self.indices = indices
        self.line = line

    def __repr__(self) -> str:
        return f"IndexedVar({self.base!r}, {self.indices!r})"


class Form:
    """A parenthesised list of statements ``(head arg1 arg2 ...)``."""

    __slots__ = ("items", "line")

    def __init__(self, items: List["Statement"], line: int = 0) -> None:
        self.items = items
        self.line = line

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index):
        return self.items[index]

    def __iter__(self):
        return iter(self.items)

    def __repr__(self) -> str:
        return f"Form({self.items!r})"


Statement = Union[int, str, Symbol, IndexedVar, Form]
