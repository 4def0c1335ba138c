"""A small structural netlist substrate for the multiplier study.

Chapter 5 of the paper evaluates the RSG on pipelined array multipliers;
the authors verified their layouts with EXCL extraction and SPICE.  We
substitute a register-level netlist simulator: cells are combinational
bit functions wired into a DAG, edges can carry register chains, and the
simulator is cycle accurate.  This is the substrate both the functional
check (does the generated array multiply?) and the retiming study
(latency/register count versus pipelining degree beta) run on.

Combinational evaluation is lane-parallel: a signal value is a Python
int whose bit *k* is the signal in vector *k*, so one pass over the
cells evaluates every vector at once (see :meth:`Netlist.evaluate`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Ref", "Cell", "Netlist"]

# A signal reference: ("input", name) | ("cell", cellname) | ("const", 0|1)
Ref = Tuple[str, object]


class Cell:
    """A combinational node: ``output = function(*input values)``."""

    __slots__ = ("name", "function", "inputs", "kind")

    def __init__(
        self,
        name: str,
        function: Callable[..., int],
        inputs: Sequence[Ref],
        kind: str = "",
    ) -> None:
        self.name = name
        self.function = function
        self.inputs = list(inputs)
        self.kind = kind

    def __repr__(self) -> str:
        return f"Cell({self.name!r}, kind={self.kind!r}, fan_in={len(self.inputs)})"


class Netlist:
    """A DAG of combinational cells with named primary inputs/outputs."""

    def __init__(self) -> None:
        self.cells: Dict[str, Cell] = {}
        self.inputs: List[str] = []
        self.outputs: Dict[str, Ref] = {}
        self._order: Optional[List[str]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> Ref:
        """Declare primary input ``name``; returns its reference."""
        if name in self.inputs:
            raise ValueError(f"duplicate input {name!r}")
        self.inputs.append(name)
        return ("input", name)

    def add_cell(
        self,
        name: str,
        function: Callable[..., int],
        inputs: Sequence[Ref],
        kind: str = "",
    ) -> Ref:
        """Add a combinational cell and return a reference to its output.

        ``function`` must be lane-wise bitwise: built from ``&``, ``|``,
        ``^`` and ``~`` only, so that bit *k* of its result depends only
        on bit *k* of each operand.  Operands are words carrying one
        vector per bit (see :meth:`evaluate`); the result may have
        bits set above the lanes (``~`` sets them all), because callers
        mask it.  Arithmetic such as ``1 - x`` or ``x + y`` mixes lanes
        and is not allowed.
        """
        if name in self.cells:
            raise ValueError(f"duplicate cell {name!r}")
        self.cells[name] = Cell(name, function, inputs, kind)
        self._order = None
        return ("cell", name)

    def set_output(self, name: str, ref: Ref) -> None:
        """Name ``ref`` (an input, cell or constant) as output ``name``."""
        self.outputs[name] = ref

    @staticmethod
    def const(value: int) -> Ref:
        return ("const", 1 if value else 0)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def topological_order(self) -> List[str]:
        """Cell names in dependency order; raises on combinational cycles."""
        if self._order is not None:
            return self._order
        state: Dict[str, int] = {}
        order: List[str] = []

        def visit(name: str, stack: List[str]) -> None:
            mark = state.get(name, 0)
            if mark == 2:
                return
            if mark == 1:
                raise ValueError(
                    "combinational cycle through " + " -> ".join(stack + [name])
                )
            state[name] = 1
            for kind, target in self.cells[name].inputs:
                if kind == "cell":
                    visit(target, stack + [name])
            state[name] = 2
            order.append(name)

        for name in self.cells:
            visit(name, [])
        self._order = order
        return order

    def depths(self) -> Dict[str, int]:
        """Combinational depth of every cell (unit delay per cell).

        Primary inputs and constants have depth 0; a cell's depth is one
        more than the maximum depth of its inputs.
        """
        depth: Dict[str, int] = {}
        for name in self.topological_order():
            best = 0
            for kind, target in self.cells[name].inputs:
                if kind == "cell":
                    best = max(best, depth[target])
            depth[name] = best + 1
        return depth

    def critical_path(self) -> int:
        """The deepest cell's depth (0 for a netlist without cells)."""
        depths = self.depths()
        return max(depths.values(), default=0)

    # ------------------------------------------------------------------
    # Combinational evaluation
    # ------------------------------------------------------------------
    def evaluate(self, input_values: Dict[str, int], lanes: int = 1) -> Dict[str, int]:
        """Evaluate ``lanes`` input vectors at once; returns output name -> word.

        Each input value is a word whose bit *k* is that input in vector
        *k*; each output word is read the same way.  The constant 1 is
        all-ones over the lanes, and every input and cell value is
        masked to the lanes.  With the default single lane, values are
        plain bits.
        """
        mask = (1 << lanes) - 1
        inputs = {name: value & mask for name, value in input_values.items()}
        values: Dict[str, int] = {}

        def fetch(ref: Ref) -> int:
            kind, target = ref
            if kind == "const":
                return mask if target else 0
            if kind == "input":
                return inputs[target]  # type: ignore[index]
            return values[target]  # type: ignore[index]

        for name in self.topological_order():
            cell = self.cells[name]
            values[name] = cell.function(*(fetch(ref) for ref in cell.inputs)) & mask
        return {name: fetch(ref) for name, ref in self.outputs.items()}

    def count_kind(self, kind: str) -> int:
        """Number of cells whose ``kind`` is ``kind``."""
        return sum(1 for cell in self.cells.values() if cell.kind == kind)

    def __repr__(self) -> str:
        return (
            f"Netlist(inputs={len(self.inputs)}, cells={len(self.cells)},"
            f" outputs={len(self.outputs)})"
        )
