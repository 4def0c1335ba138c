"""The one-vector event-driven switch-level solver: the oracle for the
lane-parallel ``repro.verify.switchsim.simulate``.

It settles one input vector at a time with a worklist over nets, with
the strengths and the 0/1/X resolution of the program's engine, and
raises the same :class:`~repro.verify.switchsim.SimulationError` when
relaxation does not settle within the event budget.
"""

from typing import Dict, Iterable, List, Optional, Tuple

from repro.verify.netlist import Device, SwitchNetlist
from repro.verify.switchsim import (
    X,
    SimulationError,
    _check_transistors,
    _default_budget,
)

#: signal strengths: forced rail, enhancement drive, depletion pull, none
_RAIL, _DRIVE, _PULL, _FLOAT = 3, 2, 1, 0


def _resolve(values: Iterable[int]) -> int:
    """Combine equal-strength contributions: agreement or X."""
    result: Optional[int] = None
    for value in values:
        if result is None:
            result = value
        elif result != value:
            return X
    return X if result is None else result


def simulate_reference(
    netlist: SwitchNetlist,
    input_values: Dict[int, int],
    max_events: Optional[int] = None,
) -> List[int]:
    """Settle one input vector; a value (0/1/``X``) per net.

    Same contract as ``simulate(netlist, input_values)``.  A worklist
    seeded with the forced nets re-examines only the devices adjacent
    to nets that changed.
    """
    _check_transistors(netlist)
    forced: Dict[int, int] = {}
    for net in netlist.vdd_nets:
        forced[net] = 1
    for net in netlist.gnd_nets:
        forced[net] = 0
    for net, value in input_values.items():
        forced[net] = value

    count = netlist.num_nets
    values = [X] * count
    strengths = [_FLOAT] * count
    for net, value in forced.items():
        values[net] = value
        strengths[net] = _RAIL

    # Adjacency: net -> devices touching it (by channel or gate).
    by_channel: List[List[Device]] = [[] for _ in range(count)]
    by_gate: List[List[Device]] = [[] for _ in range(count)]
    for device in netlist.devices:
        for net in device.pins_with_role("ch"):
            by_channel[net].append(device)
        for net in device.pins_with_role("g"):
            by_gate[net].append(device)

    def contributions(net: int) -> Tuple[int, int]:
        """(strength, value) of the strongest drive reaching ``net``."""
        if net in forced:
            return _RAIL, forced[net]
        best = _FLOAT
        best_values: List[int] = []
        for device in by_channel[net]:
            a, b = device.pins_with_role("ch")
            other = b if a == net else a
            if device.kind == "dep":
                conduct, cap = 1, _PULL
            else:
                gate = device.pins_with_role("g")[0]
                conduct, cap = values[gate], _DRIVE
            if conduct == 0:
                continue
            strength = min(strengths[other], cap)
            if strength == _FLOAT:
                continue
            value = values[other] if conduct == 1 else X
            if strength > best:
                best, best_values = strength, [value]
            elif strength == best:
                best_values.append(value)
        return best, _resolve(best_values) if best > _FLOAT else X

    worklist: List[int] = list(forced)
    queued = set(worklist)
    budget = max_events if max_events is not None else _default_budget(netlist)
    events = 0
    while worklist:
        events += 1
        if events > budget:
            raise SimulationError(
                f"relaxation did not settle within {budget} events"
            )
        net = worklist.pop()
        queued.discard(net)
        affected: List[int] = []
        # A changed net affects its channel neighbours...
        for device in by_channel[net]:
            a, b = device.pins_with_role("ch")
            affected.append(b if a == net else a)
        # ... and everything on the far side of devices it gates.
        for device in by_gate[net]:
            affected.extend(device.pins_with_role("ch"))
        for other in affected:
            if other in forced:
                continue
            strength, value = contributions(other)
            if (strength, value) != (strengths[other], values[other]):
                strengths[other], values[other] = strength, value
                if other not in queued:
                    queued.add(other)
                    worklist.append(other)
    return values
