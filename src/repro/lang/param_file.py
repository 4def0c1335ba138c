"""Parameter files (Appendix C).

A parameter file provides the size and functional specification for a
particular generation run.  Syntax, line oriented:

* ``.directive:value`` — file directives (``.example_file``,
  ``.concept_file``, ``.output_file``, ``.format`` ...);
* ``name = value`` — a global-environment binding, where ``value`` is an
  integer, a double-quoted string, or a bare identifier.  A bare
  identifier becomes an :class:`~repro.lang.environment.Alias`, the
  deferred-name mechanism that personalises design-file variable names to
  sample-layout cell names (``corecell = basiccell`` in Figure 4.1);
* ``name.i = value`` / ``name.i.j = value`` — indexed bindings (integer
  indices, integer values), the *register configuration table* mechanism
  of chapter 5: the design file reads them back as indexed variables
  (``topcount.i``).

Comments start with ``#`` or ``;``.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Optional

from ..core.errors import ParseError
from .environment import Alias

__all__ = ["parse_parameters", "ParameterSet"]

_BINDING = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$")
_INDEXED_BINDING = re.compile(
    r"^([A-Za-z_][A-Za-z0-9_]*)((?:\.\d+){1,2})\s*=\s*(.+)$"
)
_DIRECTIVE = re.compile(r"^\.([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.*)$")
_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class ParameterSet:
    """Parsed parameter file: directives plus global bindings."""

    def __init__(self) -> None:
        self.directives: Dict[str, str] = {}
        self.bindings: Dict[str, Any] = {}

    def __repr__(self) -> str:
        return (
            f"ParameterSet({len(self.directives)} directives,"
            f" {len(self.bindings)} bindings)"
        )


def _parse_int(text: str) -> Optional[int]:
    """``text`` as an integer, or None when it is not one.

    ``str.isdigit`` admits strings ``int`` rejects (``--5``, ``²``), so
    both must agree.
    """
    if not text.lstrip("-").isdigit():
        return None
    try:
        return int(text)
    except ValueError:
        return None


def _parse_value(text: str, line_number: int) -> Any:
    text = text.strip()
    number = _parse_int(text)
    if number is not None:
        return number
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        return text[1:-1]
    if _IDENT.match(text):
        return Alias(text)
    raise ParseError(
        f"line {line_number}: bad parameter value {text!r}"
        " (expected integer, quoted string, or identifier)"
    )


def parse_parameters(text: str) -> ParameterSet:
    """Parse parameter-file text into a :class:`ParameterSet`."""
    result = ParameterSet()
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        directive = _DIRECTIVE.match(line)
        if directive:
            result.directives[directive.group(1)] = directive.group(2).strip()
            continue
        indexed = _INDEXED_BINDING.match(line)
        if indexed:
            value_text = indexed.group(3).split("#", 1)[0].split(";", 1)[0].strip()
            value = _parse_int(value_text)
            if value is None:
                raise ParseError(
                    f"line {line_number}: indexed bindings take integer"
                    f" values, got {value_text!r}"
                )
            indices = tuple(int(part) for part in indexed.group(2)[1:].split("."))
            result.bindings[(indexed.group(1), indices)] = value
            continue
        binding = _BINDING.match(line)
        if binding:
            # Strip trailing comments from unquoted values.
            value_text = binding.group(2)
            if not value_text.lstrip().startswith('"'):
                value_text = value_text.split("#", 1)[0].split(";", 1)[0]
            result.bindings[binding.group(1)] = _parse_value(value_text, line_number)
            continue
        raise ParseError(f"line {line_number}: unrecognised parameter line {line!r}")
    return result
