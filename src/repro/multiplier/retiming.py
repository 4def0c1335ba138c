"""Retiming / pipelining of array-multiplier netlists (chapter 5).

"Using retiming transformations, the multiplier can be pipelined to any
degree" — Figure 5.2 shows the bit-systolic case (beta = 1, at most one
full-adder delay between registers) and a beta = 2 version.  The paper
leaves the retiming subprogram as future work ("ultimately a subprogram
to perform the retiming can be embedded in the multiplier design file");
we implement it.

The scheme is cut-set pipelining on the unit-delay DAG: every cell gets a
stage number ``stage(v) = ceil(depth(v) / beta)``; an edge u -> v carries
``stage(v) - stage(u)`` registers, a primary-input edge carries
``stage(v)`` registers (the input skew triangles along the top/left
periphery), and every output is deskewed up to the global latency
``L = max stage`` (the output register stacks).  All quantities are
exactly the "integers near dots" of Figure 5.2.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from .netlist import Netlist, Ref

__all__ = ["RegisterAssignment", "retime", "PipelinedSimulator"]


class RegisterAssignment:
    """Register counts for a netlist pipelined to degree ``beta``."""

    def __init__(self, netlist: Netlist, beta: Optional[int]) -> None:
        self.netlist = netlist
        self.beta = beta
        self.stage: Dict[str, int] = {}
        #: (cell name, input position) -> register count
        self.edge_registers: Dict[Tuple[str, int], int] = {}
        #: output name -> deskew register count
        self.output_registers: Dict[str, int] = {}
        self.latency = 0

    def total_registers(self) -> int:
        """Registers on cell-to-cell edges plus output deskew registers."""
        return sum(self.edge_registers.values()) + sum(
            self.output_registers.values()
        )

    def internal_registers(self) -> int:
        """Registers on cell-to-cell edges only (the inner array)."""
        return sum(
            count
            for (name, position), count in self.edge_registers.items()
            if self.netlist.cells[name].inputs[position][0] == "cell"
        )

    def peripheral_registers(self) -> int:
        """Input-skew plus output-deskew registers (the edge effects)."""
        return self.total_registers() - self.internal_registers()

    def max_combinational_run(self) -> int:
        """Longest register-free cell chain — must not exceed beta."""
        run: Dict[str, int] = {}
        for name in self.netlist.topological_order():
            best = 0
            for position, (kind, target) in enumerate(
                self.netlist.cells[name].inputs
            ):
                if self.edge_registers.get((name, position), 0) > 0:
                    continue
                if kind == "cell":
                    best = max(best, run[target])
            run[name] = best + 1
        return max(run.values(), default=0)

    def __repr__(self) -> str:
        return (
            f"RegisterAssignment(beta={self.beta}, latency={self.latency},"
            f" registers={self.total_registers()})"
        )


def retime(netlist: Netlist, beta: Optional[int]) -> RegisterAssignment:
    """Pipeline ``netlist`` so no register-free path exceeds ``beta`` cells.

    ``beta=None`` (or any value >= the critical path) yields the purely
    combinational multiplier: zero registers, zero latency.
    """
    assignment = RegisterAssignment(netlist, beta)
    depths = netlist.depths()
    if beta is None or beta >= max(depths.values(), default=0):
        for name, cell in netlist.cells.items():
            for position in range(len(cell.inputs)):
                assignment.edge_registers[(name, position)] = 0
        for output in netlist.outputs:
            assignment.output_registers[output] = 0
        assignment.stage = {name: 0 for name in netlist.cells}
        assignment.latency = 0
        return assignment
    if beta < 1:
        raise ValueError("beta must be at least 1")

    stage = {name: -(-depths[name] // beta) for name in netlist.cells}
    assignment.stage = stage
    # Stage-1 cells read primary inputs combinationally, so a path through
    # the pipeline crosses (max stage - 1) register boundaries.
    latency = max(stage.values()) - 1
    assignment.latency = latency
    for name, cell in netlist.cells.items():
        for position, (kind, target) in enumerate(cell.inputs):
            if kind == "cell":
                count = stage[name] - stage[target]
            elif kind == "input":
                count = stage[name] - 1
            else:  # constants are timeless
                count = 0
            if count < 0:
                raise AssertionError("negative register count: retiming bug")
            assignment.edge_registers[(name, position)] = count
    for output, (kind, target) in netlist.outputs.items():
        if kind == "cell":
            assignment.output_registers[output] = latency - (stage[target] - 1)
        else:
            assignment.output_registers[output] = latency
    return assignment


class PipelinedSimulator:
    """Cycle-accurate simulator of a retimed netlist.

    Registered edges are modelled as FIFO queues.  Feed one input vector
    per cycle with :meth:`step`; outputs assembled at cycle ``t`` reflect
    the inputs of cycle ``t - latency + 1``... precisely: the input
    vector applied at step ``t`` appears on the outputs returned by step
    ``t + latency``.
    """

    def __init__(self, assignment: RegisterAssignment) -> None:
        self.assignment = assignment
        self.netlist = assignment.netlist
        self.order = self.netlist.topological_order()
        self._edge_queues: Dict[Tuple[str, int], deque] = {}
        self._output_queues: Dict[str, deque] = {}
        for key, count in assignment.edge_registers.items():
            if count > 0:
                self._edge_queues[key] = deque([0] * count, maxlen=count)
        for output, count in assignment.output_registers.items():
            if count > 0:
                self._output_queues[output] = deque([0] * count, maxlen=count)

    @property
    def latency(self) -> int:
        return self.assignment.latency

    def step(self, input_values: Dict[str, int]) -> Dict[str, int]:
        """Advance one clock cycle; returns the current output values."""
        values: Dict[str, int] = {}

        def raw(ref: Ref) -> int:
            kind, target = ref
            if kind == "const":
                return target  # type: ignore[return-value]
            if kind == "input":
                return input_values[target]  # type: ignore[index]
            return values[target]  # type: ignore[index]

        for name in self.order:
            cell = self.netlist.cells[name]
            operands = []
            for position, ref in enumerate(cell.inputs):
                queue = self._edge_queues.get((name, position))
                operands.append(queue[0] if queue is not None else raw(ref))
            # One lane: mask the bitwise cell function's result to a bit.
            values[name] = cell.function(*operands) & 1

        outputs: Dict[str, int] = {}
        for output, ref in self.netlist.outputs.items():
            queue = self._output_queues.get(output)
            outputs[output] = queue[0] if queue is not None else raw(ref)

        # Clock edge: shift every register chain.
        for (name, position), queue in self._edge_queues.items():
            queue.popleft()
            queue.append(raw(self.netlist.cells[name].inputs[position]))
        for output, queue in self._output_queues.items():
            queue.popleft()
            queue.append(raw(self.netlist.outputs[output]))
        return outputs

    def run_stream(
        self, input_stream: List[Dict[str, int]], flush: Optional[int] = None
    ) -> List[Dict[str, int]]:
        """Feed a stream and return the aligned output stream.

        The returned list has one entry per input vector, already
        compensated for latency (``flush`` extra idle cycles default to
        the latency).
        """
        if flush is None:
            flush = self.latency
        idle = {name: 0 for name in self.netlist.inputs}
        collected: List[Dict[str, int]] = []
        for vector in input_stream:
            collected.append(self.step(vector))
        for _ in range(flush):
            collected.append(self.step(idle))
        return collected[self.latency:self.latency + len(input_stream)]
