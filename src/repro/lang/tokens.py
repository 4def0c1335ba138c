"""Tokenizer for the RSG design-file language (Appendix A).

The language is an S-expression syntax with one extension: the dot
operator for indexed variables (``l.i``, ``c.(- i 1)``, ``a.i.j``).  The
dot is a delimiter token of its own so that the parser can attach
arbitrary index *statements* after it.  Numbers are integers only — the
language lives on the integer layout grid.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from ..core.errors import ParseError

__all__ = ["Token", "tokenize"]


class Token(NamedTuple):
    kind: str  # "lparen" | "rparen" | "dot" | "int" | "string" | "symbol"
    text: str
    line: int
    column: int


#: the whitespace and comments before a token, and the token: a
#: parenthesis or dot, a string, a word (an integer or a symbol), an
#: unterminated string's quote, or the end of the text.  Every match
#: starts where the last one ended, and the possessive quantifiers never
#: backtrack.
_TOKEN = re.compile(
    r'((?:[ \t\r\n]|;[^\n]*+)*+)'
    r'([().]|"[^"]*+"|[^().;" \t\r\n]++|"|\Z)'
)
_PUNCT = {"(": "lparen", ")": "rparen", ".": "dot"}


def tokenize(text: str) -> List[Token]:
    """Split design-file text into tokens.

    Comments run from ``;`` to end of line.  Raises :class:`ParseError`
    on unterminated strings.  Lines count ``\n`` characters and columns
    the characters since the last one, both from 1.
    """
    tokens: List[Token] = []
    append = tokens.append
    make = tuple.__new__  # a Token without NamedTuple's Python-level __new__
    line, line_start, start = 1, 0, 0
    for space, word in _TOKEN.findall(text):
        if space:
            if "\n" in space:
                line += space.count("\n")
                line_start = start + space.rfind("\n") + 1
            start += len(space)
        kind = _PUNCT.get(word)
        if kind is None:
            if not word:
                break  # the end of the text
            if word[0] == '"':
                if len(word) == 1:
                    raise ParseError(f"line {line}: unterminated string literal")
                append(make(Token, ("string", word[1:-1], line, start - line_start + 1)))
                if "\n" in word:  # a string spanning lines
                    line += word.count("\n")
                    line_start = start + word.rfind("\n") + 1
                start += len(word)
                continue
            kind = "int" if word.lstrip("-").isdigit() and word != "-" else "symbol"
        append(make(Token, (kind, word, line, start - line_start + 1)))
        start += len(word)
    return tokens
