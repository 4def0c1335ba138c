"""Register configuration tables (chapter 5's closing suggestion).

"Register placement can be easily achieved by requiring that the user
provide a register configuration table in the parameter file.
Ultimately a subprogram to perform the retiming can be embedded in the
multiplier design file.  The program would take as input the parameter
beta which specifies the degree of pipelining and produce as output a
register configuration table consistent with the multiplier size."

This module is that subprogram.  The peripheral stack heights follow the
cut-set staging ``stage(v) = ceil(depth(v) / beta)``: at beta = 1 they
reduce to Appendix B's formulas exactly (top stacks 1..n, bottom stacks
n..1), and larger beta shrinks the skew triangles proportionally.

The table is emitted as *indexed parameter-file bindings* — the design
file reads them back as ``topcount.i`` etc., so the retiming decision
lives entirely in the parameter domain, as the paper proposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["RegisterConfiguration", "register_configuration"]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass
class RegisterConfiguration:
    """Peripheral register stack heights for one (size, beta) case."""

    xsize: int
    ysize: int
    beta: int
    #: column (1-based) -> top skew stack height
    top: Dict[int, int] = field(default_factory=dict)
    #: column (1-based) -> bottom deskew stack height
    bottom: Dict[int, int] = field(default_factory=dict)
    #: right-edge register row length
    right_length: int = 0

    def total_registers(self) -> int:
        """Registers in the top skew and bottom deskew stacks plus the right-edge rows."""
        return (
            sum(self.top.values())
            + sum(self.bottom.values())
            + self.ysize * self.right_length
        )

    def as_parameter_bindings(self) -> Dict[Tuple[str, Tuple[int, ...]], int]:
        """Indexed bindings for the global environment / parameter file."""
        bindings: Dict[Tuple[str, Tuple[int, ...]], int] = {}
        for column, height in self.top.items():
            bindings[("topcount", (column,))] = height
        for column, height in self.bottom.items():
            bindings[("bottomcount", (column,))] = height
        bindings[("rightlen", (1,))] = self.right_length
        return bindings

    def as_parameter_text(self) -> str:
        """The same table in parameter-file syntax."""
        lines = [f"# register configuration, beta={self.beta}"]
        for column in sorted(self.top):
            lines.append(f"topcount.{column}={self.top[column]}")
        for column in sorted(self.bottom):
            lines.append(f"bottomcount.{column}={self.bottom[column]}")
        lines.append(f"rightlen.1={self.right_length}")
        return "\n".join(lines)


def register_configuration(
    xsize: int, ysize: int, beta: int = 1
) -> RegisterConfiguration:
    """Compute the register configuration table for a given beta.

    Stack heights are the beta-staged versions of Appendix B's
    bit-systolic profile: ``top_i = ceil(i / beta)``,
    ``bottom_i = ceil((xsize + 1 - i) / beta)``, and the right rows hold
    ``ceil(((3*ysize + 1) + 1) / 2 / beta)`` registers.
    """
    if beta < 1:
        raise ValueError("beta must be at least 1")
    config = RegisterConfiguration(xsize, ysize, beta)
    for column in range(1, xsize + 1):
        config.top[column] = max(1, _ceil_div(column, beta))
        config.bottom[column] = max(1, _ceil_div(xsize + 1 - column, beta))
    regnum = 3 * ysize + 1
    config.right_length = max(1, _ceil_div((regnum + 1) // 2, beta))
    return config
