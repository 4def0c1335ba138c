"""Baugh-Wooley two's-complement array multipliers (paper chapter 5).

Figure 5.1 of the paper: an m x n carry-save array of two cell types
(each an AND gate plus full adder) followed by a carry-propagate row.
Type I cells add the bit product ``a_i * b_j``; type II cells add its
complement.  Type II cells sit where exactly one index is the sign bit;
correction ones are injected at unused edge inputs.

Derivation (m-bit A times n-bit B, two's complement):

    A*B mod 2^(m+n) = S + 2^(m-1) + 2^(n-1) + 2^(m+n-1)

where S is the sum of the (selectively complemented) partial products.
The three correction ones are the "ones assigned to the unused inputs
along the top and left edges" that the paper lists among the edge
effects.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .netlist import Netlist, Ref

__all__ = [
    "build_baugh_wooley",
    "reference_product",
    "to_signed",
    "to_bits",
    "from_bits",
    "multiply",
    "cell_type_grid",
]


def to_signed(value: int, bits: int) -> int:
    """Interpret ``value mod 2^bits`` as a two's-complement integer."""
    value &= (1 << bits) - 1
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def to_bits(value: int, bits: int) -> List[int]:
    """Little-endian bit vector of a (possibly negative) integer."""
    value &= (1 << bits) - 1
    return [(value >> index) & 1 for index in range(bits)]


def from_bits(bits: List[int]) -> int:
    """Assemble little-endian bits into an unsigned integer."""
    result = 0
    for index, bit in enumerate(bits):
        result |= (bit & 1) << index
    return result


def reference_product(a: int, b: int, m: int, n: int) -> int:
    """Golden two's-complement product of an m-bit and an n-bit operand."""
    return to_signed(to_signed(a, m) * to_signed(b, n), m + n)


# Cell functions are lane-wise bitwise (the Netlist.add_cell contract),
# so one call computes the cell in every packed vector at once.
def _sum3(x: int, y: int, z: int) -> int:
    return x ^ y ^ z


def _carry3(x: int, y: int, z: int) -> int:
    return (x & y) | (z & (x | y))


def _and(x: int, y: int) -> int:
    return x & y


def _nand(x: int, y: int) -> int:
    return ~(x & y)


def cell_type_grid(m: int, n: int) -> List[List[str]]:
    """Cell type of every carry-save position: 'I' or 'II'.

    Type II exactly where one (not both) of the indices is the sign bit —
    the paper's "left and bottom edges ... except for the cell at the
    lower left corner".
    """
    grid = []
    for j in range(n):
        row = []
        for i in range(m):
            sign_a = i == m - 1
            sign_b = j == n - 1
            row.append("II" if sign_a != sign_b else "I")
        grid.append(row)
    return grid


def build_baugh_wooley(m: int, n: int) -> Netlist:
    """Build the structural netlist of an m x n Baugh-Wooley multiplier.

    Inputs ``a0..a{m-1}`` and ``b0..b{n-1}``; outputs ``p0..p{m+n-1}``.
    Carry-save cells are named ``cs_{i}_{j}`` with ``kind`` ``"csI"`` or
    ``"csII"``; the carry-propagate row is ``cpa_{i}`` with kind
    ``"cpa"``.  Per-weight structure follows Figure 5.1: sums move
    diagonally (one row down, one column toward bit 0), carries move
    straight down, and the final row ripples.
    """
    if m < 2 or n < 2:
        raise ValueError("operand widths must be at least 2 bits")
    netlist = Netlist()
    a_refs = [netlist.add_input(f"a{i}") for i in range(m)]
    b_refs = [netlist.add_input(f"b{j}") for j in range(n)]

    types = cell_type_grid(m, n)
    sum_ref: Dict[Tuple[int, int], Ref] = {}
    carry_ref: Dict[Tuple[int, int], Ref] = {}

    for j in range(n):
        for i in range(m):
            # Sum input: diagonal from (i+1, j-1); top/left edges get
            # constants (the correction ones live here).
            if j >= 1 and i + 1 < m:
                s_in = sum_ref[(i + 1, j - 1)]
            elif j == 0 and i == n - 1 and n - 1 < m:
                s_in = Netlist.const(1)  # +2^(n-1)
            elif i == m - 1 and j == n - m and m <= n and j != 0:
                s_in = Netlist.const(1)  # +2^(n-1) when it falls mid-column
            else:
                s_in = Netlist.const(0)
            # Carry input: straight down from (i, j-1); row 0 edge gets
            # the +2^(m-1) correction at the sign column.
            if j >= 1:
                c_in = carry_ref[(i, j - 1)]
            elif i == m - 1:
                c_in = Netlist.const(1)  # +2^(m-1)
            else:
                c_in = Netlist.const(0)

            gate = _nand if types[j][i] == "II" else _and
            product = netlist.add_cell(
                f"pp_{i}_{j}", gate, [a_refs[i], b_refs[j]], kind="pp"
            )
            kind = "csII" if types[j][i] == "II" else "csI"
            sum_ref[(i, j)] = netlist.add_cell(
                f"cs_{i}_{j}", _sum3, [product, s_in, c_in], kind=kind
            )
            carry_ref[(i, j)] = netlist.add_cell(
                f"cc_{i}_{j}", _carry3, [product, s_in, c_in], kind=kind + "c"
            )

    # Low product bits peel off the i = 0 column.
    for k in range(n):
        netlist.set_output(f"p{k}", sum_ref[(0, k)])

    # Carry-propagate row: weight n+i combines the last row's carry at
    # column i with the last row's sum at column i+1; the +2^(m+n-1)
    # correction enters as the missing sum operand of the last CPA cell.
    ripple: Ref = Netlist.const(0)
    for i in range(m):
        x = carry_ref[(i, n - 1)]
        y = sum_ref[(i + 1, n - 1)] if i + 1 < m else Netlist.const(1)
        sum_out = netlist.add_cell(f"cpa_{i}", _sum3, [x, y, ripple], kind="cpa")
        ripple = netlist.add_cell(f"cpc_{i}", _carry3, [x, y, ripple], kind="cpac")
        netlist.set_output(f"p{n + i}", sum_out)
    return netlist


def multiply(netlist: Netlist, a: int, b: int, m: int, n: int) -> int:
    """Run the array on one operand pair and return the signed product.

    This is the one-lane case of :meth:`Netlist.evaluate`; checking
    many pairs is cheaper as one packed evaluation (see
    :func:`repro.verify.driver.multiplier_mismatches`).
    """
    values: Dict[str, int] = {}
    for index, bit in enumerate(to_bits(a, m)):
        values[f"a{index}"] = bit
    for index, bit in enumerate(to_bits(b, n)):
        values[f"b{index}"] = bit
    outputs = netlist.evaluate(values)
    raw = from_bits([outputs[f"p{k}"] for k in range(m + n)])
    return to_signed(raw, m + n)
