"""Tokenizer for the RSG design-file language (Appendix A).

The language is an S-expression syntax with one extension: the dot
operator for indexed variables (``l.i``, ``c.(- i 1)``, ``a.i.j``).  The
dot is a delimiter token of its own so that the parser can attach
arbitrary index *statements* after it.  Numbers are integers only — the
language lives on the integer layout grid.
"""

from __future__ import annotations

from typing import List, NamedTuple

from ..core.errors import ParseError

__all__ = ["Token", "tokenize"]


class Token(NamedTuple):
    kind: str  # "lparen" | "rparen" | "dot" | "int" | "string" | "symbol"
    text: str
    line: int
    column: int


_SYMBOL_BREAKERS = set("().;\" \t\r\n")


def tokenize(text: str) -> List[Token]:
    """Split design-file text into tokens.

    Comments run from ``;`` to end of line.  Raises :class:`ParseError`
    on unterminated strings.
    """
    tokens: List[Token] = []
    line = 1
    column = 1
    index = 0
    length = len(text)

    def advance(count: int = 1) -> None:
        nonlocal index, line, column
        for _ in range(count):
            if index < length and text[index] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            index += 1

    while index < length:
        ch = text[index]
        if ch in " \t\r\n":
            advance()
            continue
        if ch == ";":
            while index < length and text[index] != "\n":
                advance()
            continue
        if ch == "(":
            tokens.append(Token("lparen", "(", line, column))
            advance()
            continue
        if ch == ")":
            tokens.append(Token("rparen", ")", line, column))
            advance()
            continue
        if ch == ".":
            tokens.append(Token("dot", ".", line, column))
            advance()
            continue
        if ch == '"':
            start_line, start_column = line, column
            advance()
            chars: List[str] = []
            while index < length and text[index] != '"':
                chars.append(text[index])
                advance()
            if index >= length:
                raise ParseError(
                    f"line {start_line}: unterminated string literal"
                )
            advance()  # closing quote
            tokens.append(Token("string", "".join(chars), start_line, start_column))
            continue
        # Integer (possibly negative) or symbol.
        start_line, start_column = line, column
        chars = []
        while index < length and text[index] not in _SYMBOL_BREAKERS:
            chars.append(text[index])
            advance()
        word = "".join(chars)
        if not word:
            raise ParseError(f"line {line}: unexpected character {ch!r}")
        if word.lstrip("-").isdigit() and word not in ("-",):
            tokens.append(Token("int", word, start_line, start_column))
        else:
            tokens.append(Token("symbol", word, start_line, start_column))
    return tokens

