"""Recursive-descent parser for the design-file language (Appendix A).

Produces the AST of :mod:`repro.lang.ast_nodes`.  The only syntax beyond
plain S-expressions is the dot operator: ``name.stmt`` and
``name.stmt.stmt`` parse to :class:`IndexedVar` with one or two index
statements, where each index statement is an atom or a parenthesised
form, e.g. ``l.(- i 1)``.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from ..core.errors import ParseError
from .ast_nodes import Form, IndexedVar, Statement, Symbol
from .tokens import tokenize

__all__ = ["parse_program", "parse_statement"]

_ATOMS = frozenset(("symbol", "int", "string"))


def _reader(text: str) -> Tuple[Callable[[], Statement], Callable[[], bool]]:
    """``(statement, more)`` over the tokens of ``text``: ``statement()``
    parses the next statement, ``more()`` says whether tokens are left.

    The whole text is tokenized first, so an unterminated string is
    reported before any syntax error.
    """
    tokens = tokenize(text)
    count = len(tokens)
    position = 0

    def statement() -> Statement:
        nonlocal position
        if position >= count:
            raise ParseError("unexpected end of input")
        kind, word, line, _ = tokens[position]
        position += 1
        if kind == "lparen":
            items: List[Statement] = []
            while True:
                if position >= count:
                    raise ParseError(f"line {line}: unterminated form opened here")
                inner, word, line_of, _ = tokens[position]
                if inner == "rparen":
                    position += 1
                    return Form(items, line)
                # An atom not followed by a dot is read here, the rest
                # by a recursive call.
                following = position + 1
                if inner in _ATOMS and (following >= count or tokens[following][0] != "dot"):
                    position = following
                    items.append(
                        Symbol(word, line_of) if inner == "symbol"
                        else int(word) if inner == "int" else word
                    )
                else:
                    items.append(statement())
        if kind == "symbol":
            atom: Statement = Symbol(word, line)
        elif kind == "int":
            atom = int(word)
        elif kind == "string":
            return word
        elif kind == "rparen":
            raise ParseError(f"line {line}: unexpected ')'")
        else:
            raise ParseError(f"line {line}: unexpected token {word!r}")
        if position >= count or tokens[position][0] != "dot":
            return atom
        # Attach ``.index`` suffixes to a symbol (or reject them on ints).
        if not isinstance(atom, Symbol):
            raise ParseError(f"line {line}: only variables can be indexed with '.'")
        indices: List[Statement] = []
        while position < count and tokens[position][0] == "dot":
            position += 1
            indices.append(index())
            if len(indices) > 2:
                raise ParseError(f"line {line}: at most two indices are supported")
        return IndexedVar(word, indices, line)

    def index() -> Statement:
        """An index is an atom or a parenthesised form (no nested dots)."""
        nonlocal position
        if position >= count:
            raise ParseError("unexpected end of input")
        kind, word, line, _ = tokens[position]
        if kind == "lparen":
            return statement()
        position += 1
        if kind == "int":
            return int(word)
        if kind == "symbol":
            return Symbol(word, line)
        raise ParseError(f"line {line}: bad index token {word!r} after '.'")

    def more() -> bool:
        return position < count

    return statement, more


def parse_program(text: str) -> List[Statement]:
    """Parse design-file text into a list of top-level statements."""
    statement, more = _reader(text)
    program: List[Statement] = []
    while more():
        program.append(statement())
    return program


def parse_statement(text: str) -> Statement:
    """Parse a single statement; raises if trailing input remains."""
    statement, more = _reader(text)
    result = statement()
    if more():
        raise ParseError("trailing input after statement")
    return result
