"""Event-driven switch-level simulation (Bryant-style 0/1/X).

The simulator evaluates a transistor-level
:class:`~repro.verify.netlist.SwitchNetlist` the way MOSSIM treats an
NMOS network: signals take values ``0``, ``1`` or ``X`` at one of three
strengths —

* **rail** (3): the forced nets (VDD, GND, primary inputs);
* **drive** (2): anything reached through a conducting enhancement
  channel (a pull-down path, or a pass-transistor network);
* **pull** (1): anything reached only through a depletion load.

Every net settles to the value of its strongest contribution; equal
strongest contributions that disagree settle to ``X``, and a device
whose gate is ``X`` conducts with value ``X`` (the conservative
resolution).  Relaxation is event-driven: a worklist seeded with the
forced nets re-examines only the devices adjacent to nets that
actually changed, so a PLA plane settles in a handful of events per
crosspoint rather than whole-netlist sweeps.

:func:`exhaustive_vectors` and :func:`sample_vectors` provide the two
evaluation regimes the verifier uses: every input combination for
small designs, seeded random sampling for large ones.
:func:`sample_words` is the same sample with each vector kept as one
integer.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Tuple

from .netlist import Device, SwitchNetlist

__all__ = [
    "SimulationError",
    "X",
    "simulate",
    "exhaustive_vectors",
    "sample_vectors",
    "sample_words",
]

#: the unknown logic value
X = 2

_RAIL, _DRIVE, _PULL, _FLOAT = 3, 2, 1, 0


class SimulationError(ValueError):
    """Raised when a netlist cannot be simulated at switch level."""


def _resolve(values: Iterable[int]) -> int:
    """Combine equal-strength contributions: agreement or X."""
    result: Optional[int] = None
    for value in values:
        if result is None:
            result = value
        elif result != value:
            return X
    return X if result is None else result


def simulate(
    netlist: SwitchNetlist,
    input_values: Dict[int, int],
    max_events: Optional[int] = None,
) -> List[int]:
    """Steady-state net values for the given forced inputs.

    ``input_values`` maps net id -> 0/1; VDD/GND nets are forced from
    the netlist's rail sets.  Returns a value (0/1/``X``) per net.
    Nets never reached by any driver stay ``X`` (floating).  Raises
    :class:`SimulationError` when relaxation fails to settle within
    ``max_events`` (default: proportional to netlist size) — the
    signature of an oscillating feedback path.
    """
    for device in netlist.devices:
        if device.kind not in ("enh", "dep"):
            raise SimulationError(
                f"device kind {device.kind!r} is not a transistor; "
                "switch-level simulation needs a transistor-level netlist"
            )
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
    budget = max_events if max_events is not None else 64 * (
        count + len(netlist.devices) + 1
    )
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


def exhaustive_vectors(width: int) -> List[Tuple[int, ...]]:
    """Every input combination for ``width`` bits, in counting order."""
    return [
        tuple((index >> bit) & 1 for bit in range(width))
        for index in range(1 << width)
    ]


def sample_words(width: int, count: int, seed: int = 0) -> List[int]:
    """``count`` seeded random ``width``-bit words, one draw per word.

    Each word is one ``getrandbits(width)`` draw; bit 0 is input 0.
    The sample is a function of ``(width, count, seed)``.
    """
    rng = random.Random(seed)
    return [rng.getrandbits(width) for _ in range(count)]


def sample_vectors(width: int, count: int, seed: int = 0) -> List[Tuple[int, ...]]:
    """``count`` seeded random vectors of ``width`` bits.

    The vectors are :func:`sample_words` split into bits, bit 0 first.
    Drawing one word per vector (rather than ``width`` single bits, as
    earlier releases did) changed which vectors a given seed yields;
    the sample is still deterministic per seed.
    """
    return [
        tuple((word >> bit) & 1 for bit in range(width))
        for word in sample_words(width, count, seed)
    ]
