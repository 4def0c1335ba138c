"""Switch-level simulation (Bryant-style 0/1/X), many vectors at once.

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
resolution).

:func:`simulate` is lane-parallel: bit *k* of every plane belongs to
input vector *k*, so one relaxation settles every vector.  A net's
state is four Python-int planes — ``hi`` (may be 1), ``lo`` (may be
0), ``s1`` (strength at least pull) and ``s2`` (strength at least
drive) — and each device becomes a handful of bitwise operations over
all lanes.  Nets are relaxed in id order; a net that changes
re-queues the nets that read it, until nothing changes
(``docs/architecture.md`` section 16).  The one-vector event-driven
solver it replaced is the test oracle (``tests/oracles/switchsim.py``).

:func:`exhaustive_vectors` and :func:`sample_vectors` provide the two
evaluation regimes the verifier uses: every input combination for
small designs, seeded random sampling for large ones.
:func:`sample_words` is the same sample with each vector kept as one
integer.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .netlist import SwitchNetlist

__all__ = [
    "SimulationError",
    "X",
    "simulate",
    "exhaustive_vectors",
    "input_planes",
    "sample_vectors",
    "sample_words",
]

#: the unknown logic value
X = 2


class SimulationError(ValueError):
    """Raised when a netlist cannot be simulated at switch level."""


def _check_transistors(netlist: SwitchNetlist) -> None:
    for device in netlist.devices:
        if device.kind not in ("enh", "dep"):
            raise SimulationError(
                f"device kind {device.kind!r} is not a transistor; "
                "switch-level simulation needs a transistor-level netlist"
            )


def _default_budget(netlist: SwitchNetlist) -> int:
    return 64 * (netlist.num_nets + len(netlist.devices) + 1)


def _compile(
    netlist: SwitchNetlist, forced: Iterable[int]
) -> Tuple[List[List[Tuple[int, Optional[int]]]], List[List[int]]]:
    """Per-net contribution lists and per-net reader lists.

    A contribution to a net is ``(other channel end, gate)``, with gate
    ``None`` for a depletion load.  The readers of a net are the
    unforced nets whose contributions mention it, as far end or gate.
    """
    _check_transistors(netlist)
    count = netlist.num_nets
    contributions: List[List[Tuple[int, Optional[int]]]] = [[] for _ in range(count)]
    readers: List[set] = [set() for _ in range(count)]
    for device in netlist.devices:
        channel = [net for role, net in device.pins if role == "ch"]
        gates = [net for role, net in device.pins if role == "g"]
        if len(channel) != 2 or (device.kind == "enh" and len(gates) != 1):
            raise SimulationError(f"malformed transistor {device!r}")
        gate = gates[0] if device.kind == "enh" else None
        a, b = channel
        for net, other in ((a, b), (b, a)):
            contributions[net].append((other, gate))
            readers[other].add(net)
            if gate is not None:
                readers[gate].add(net)
    fixed = set(forced)
    return contributions, [list(nets - fixed) for nets in readers]


def simulate(
    netlist: SwitchNetlist,
    input_values: Dict[int, int],
    max_events: Optional[int] = None,
    lanes: Optional[int] = None,
) -> List[int]:
    """Steady-state net values for the given forced inputs.

    VDD/GND nets are forced from the netlist's rail sets.  Nets never
    reached by any driver stay ``X`` (floating).  Raises
    :class:`SimulationError` when relaxation fails to settle within
    ``max_events`` net evaluations (default: proportional to netlist
    size) — the signature of an oscillating feedback path.

    With ``lanes=None``, ``input_values`` maps net id -> 0/1/``X`` and
    the result is a value (0/1/``X``) per net: one vector.

    With ``lanes=N``, every value is an N-lane two-rail word, in the
    inputs and in the result alike: bits ``0..N-1`` are the can-be-1
    rail and bits ``N..2N-1`` the can-be-0 rail, so lane *k* holds 1
    as ``(1, 0)``, 0 as ``(0, 1)`` and ``X`` as ``(1, 1)``.  An input
    word that leaves some lane on neither rail is rejected.
    """
    if lanes is None:
        words = {}
        for net, value in input_values.items():
            if value not in _ONE_LANE:
                raise SimulationError(f"net {net}: value {value!r} is not 0, 1 or X")
            words[net] = _ONE_LANE[value]
        result = simulate(netlist, words, max_events, lanes=1)
        return [_ONE_LANE_VALUE[word] for word in result]
    if lanes < 1:
        raise SimulationError(f"lanes must be positive, got {lanes}")
    mask = (1 << lanes) - 1
    forced: Dict[int, Tuple[int, int]] = {}
    for net in netlist.vdd_nets:
        forced[net] = (mask, 0)
    for net in netlist.gnd_nets:
        forced[net] = (0, mask)
    for net, word in input_values.items():
        high, low = word & mask, word >> lanes
        if word < 0 or low > mask or (high | low) != mask:
            raise SimulationError(
                f"net {net}: input word is not a {lanes}-lane two-rail word"
            )
        forced[net] = (high, low)
    contributions, readers = _compile(netlist, forced)

    count = netlist.num_nets
    hi = [mask] * count
    lo = [mask] * count
    s1 = [0] * count
    s2 = [0] * count
    for net, (high, low) in forced.items():
        hi[net], lo[net], s1[net], s2[net] = high, low, mask, mask

    budget = max_events if max_events is not None else _default_budget(netlist)
    # Gauss-Seidel in id order: a changed net marks its readers, and a
    # reader above it is relaxed later in the same sweep.
    dirty = bytearray(count)
    for net in range(count):
        dirty[net] = net not in forced
    evaluations = sweeps = 0
    while 1 in dirty:
        sweeps += 1
        for net in range(count):
            if not dirty[net]:
                continue
            dirty[net] = 0
            evaluations += 1
            if evaluations > budget:
                raise SimulationError(
                    f"relaxation did not settle within {budget} events"
                )
            # OR each strength level's contributions: a level's value
            # planes collect every contribution at or above it.
            strong = weak = high2 = low2 = high1 = low1 = 0
            for other, gate in contributions[net]:
                if gate is None:  # depletion load: always on, capped at pull
                    reach = s1[other]
                    weak |= reach
                    high1 |= hi[other] & reach
                    low1 |= lo[other] & reach
                    continue
                on = hi[gate]
                reach = s1[other] & on
                if not reach:
                    continue
                unknown = on & lo[gate]  # an X gate passes X
                high = hi[other] | unknown
                low = lo[other] | unknown
                weak |= reach
                high1 |= high & reach
                low1 |= low & reach
                reach = s2[other] & on
                strong |= reach
                high2 |= high & reach
                low2 |= low & reach
            pull_only = weak & ~strong
            floating = mask ^ weak
            high = high2 | (high1 & pull_only) | floating
            low = low2 | (low1 & pull_only) | floating
            if (high, low, weak, strong) == (hi[net], lo[net], s1[net], s2[net]):
                continue
            hi[net], lo[net], s1[net], s2[net] = high, low, weak, strong
            for reader in readers[net]:
                dirty[reader] = 1
    from ..obs import trace as obs_trace

    obs_trace.annotate(sweeps=sweeps)
    return [high | low << lanes for high, low in zip(hi, lo)]


#: one-lane two-rail words of the three logic values, and back
_ONE_LANE = {1: 0b01, 0: 0b10, X: 0b11}
_ONE_LANE_VALUE = {0b01: 1, 0b10: 0, 0b11: X}


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


def input_planes(width: int, words: Optional[Sequence[int]] = None) -> List[int]:
    """Per-input lane words: bit *j* of word *k* is input *k* in vector *j*.

    With ``words=None`` the lanes are every combination in counting
    order (lane *j* holds vector *j*, as :func:`exhaustive_vectors`), so
    input *k* is the periodic pattern of 2^k zeros then 2^k ones.
    Otherwise lane *j* holds ``words[j]``, bit 0 being input 0, as
    :func:`sample_words` draws them.
    """
    if words is None:
        lanes = 1 << width
        planes = []
        for k in range(width):
            half = 1 << k
            period = ((1 << half) - 1) << half
            planes.append(period * ((1 << lanes) - 1) // ((1 << 2 * half) - 1))
        return planes
    rows = [format(word, f"0{width}b") for word in reversed(words)]
    columns = ["".join(column) for column in zip(*rows)]
    return [int(columns[width - 1 - k], 2) for k in range(width)]


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
