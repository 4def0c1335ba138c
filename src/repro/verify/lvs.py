"""Layout-versus-schematic: canonical-form netlist comparison.

Compares two :class:`~repro.verify.netlist.SwitchNetlist` graphs by
iterated neighbourhood refinement (the classic LVS canonicalization, a
Weisfeiler-Leman colouring over the bipartite net/device graph):

1. seed net colours from their electrical role — VDD, GND, the k-th
   primary input, the k-th primary output, ordinary internal net —
   and device colours from their kind;
2. repeatedly recolour every device by its colour and the multiset of
   ``(pin role, neighbour net colour)`` over its pins, then every net
   by its colour and the multiset of ``(pin role, neighbour device
   colour)`` over its incidences, until the partition stops refining;
3. the netlists match when the final colour multisets (nets and
   devices) coincide.

:func:`compare_netlists` refines the *disjoint union* of both netlists
at once, so colours are integers from one palette that both sides share
and compare directly.  A multiset of incident ``(role, colour)`` keys
hashes order-free as the sum of a 64-bit mix of each key, kept per
element over flat pin arrays ``(device, role, net)``.  A class keeps
its id while it refines: only the parts that split off take fresh ids,
and only the pins of elements whose id changed move their neighbours'
hashes, so a round costs numpy work in proportion to what it refines
rather than to the whole netlist.  This is the economy of Paige-Tarjan
partition refinement, with the id kept by the part whose members did
not change, or by the largest part when all of them did.  A side's refinement ends at the
first round that leaves its own class count unchanged, and
``LvsReport.rounds`` is the larger of the two sides' round counts; for
netlists that match, both sides end on the same round, the one that
also leaves the union's class count unchanged.  The per-class
populations behind the verdict and the mismatch lines are
``bincount`` s over each side's colours.

The earlier build, which refines each netlist on its own and rolls
colours through a content hash of their ``repr``, is the test oracle
(``tests/oracles/lvs.py``).

Pins sharing a role are compared as multisets, so a transistor's
interchangeable source/drain never produce a spurious mismatch, while
gate-versus-channel swaps always do.  Refinement cannot distinguish
certain pathological automorphic graphs (two device triangles against
one device hexagon match), but any local edit — a device added,
dropped, retyped or rewired — changes a colour and is caught;
:class:`LvsReport` explains mismatches as class-population differences.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .netlist import SwitchNetlist

__all__ = ["LvsReport", "compare_netlists"]


class LvsReport:
    """Outcome of one LVS comparison."""

    def __init__(self) -> None:
        self.matched = False
        #: human-readable mismatch descriptions (empty when matched)
        self.mismatches: List[str] = []
        self.net_counts: Tuple[int, int] = (0, 0)
        self.device_counts: Tuple[int, int] = (0, 0)
        self.rounds = 0

    def summary(self) -> str:
        """One printable line of the comparison outcome."""
        verdict = "match" if self.matched else "MISMATCH"
        detail = (
            f"{self.net_counts[0]}/{self.net_counts[1]} nets,"
            f" {self.device_counts[0]}/{self.device_counts[1]} devices,"
            f" {self.rounds} refinement rounds"
        )
        if self.mismatches:
            detail += "; " + "; ".join(self.mismatches[:3])
        return f"LVS {verdict} ({detail})"

    def to_dict(self) -> dict:
        """JSON-ready form (the service stores this per job artifact)."""
        return {
            "matched": self.matched,
            "mismatches": list(self.mismatches),
            "net_counts": list(self.net_counts),
            "device_counts": list(self.device_counts),
            "rounds": self.rounds,
            "summary": self.summary(),
        }

    def __repr__(self) -> str:
        return f"LvsReport(matched={self.matched})"


def _new_report(extracted: SwitchNetlist, golden: SwitchNetlist) -> LvsReport:
    """A report with the sizes and the count mismatches refinement skips on."""
    report = LvsReport()
    report.net_counts = (extracted.num_nets, golden.num_nets)
    report.device_counts = (len(extracted.devices), len(golden.devices))
    if len(extracted.inputs) != len(golden.inputs):
        report.mismatches.append(
            f"input count {len(extracted.inputs)} != {len(golden.inputs)}"
        )
    if len(extracted.outputs) != len(golden.outputs):
        report.mismatches.append(
            f"output count {len(extracted.outputs)} != {len(golden.outputs)}"
        )
    kinds_a = Counter(device.kind for device in extracted.devices)
    kinds_b = Counter(device.kind for device in golden.devices)
    if kinds_a != kinds_b:
        for kind in sorted(set(kinds_a) | set(kinds_b)):
            if kinds_a.get(kind, 0) != kinds_b.get(kind, 0):
                report.mismatches.append(
                    f"{kind} count {kinds_a.get(kind, 0)} != {kinds_b.get(kind, 0)}"
                )
    return report


def _mismatch_lines(report: LvsReport, devices: int, nets: int) -> None:
    """Append the class-population lines and settle the verdict."""
    if devices:
        report.mismatches.append(
            f"{devices} device(s) in unmatched neighbourhood classes"
        )
    if nets:
        report.mismatches.append(
            f"{nets} net(s) in unmatched neighbourhood classes"
        )
    report.matched = not report.mismatches


# ---------------------------------------------------------------------------
# Union refinement (production)
# ---------------------------------------------------------------------------
_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def _mix(keys: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser: an avalanche-mixed 64-bit word per key."""
    z = keys.astype(np.uint64) + _GOLDEN_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_2
    return z ^ (z >> np.uint64(31))


def _gather(pointer: np.ndarray, order: np.ndarray, owners: np.ndarray) -> np.ndarray:
    """Pins of ``owners`` from a CSR index: ``order[pointer[o]:pointer[o + 1]]``."""
    starts, ends = pointer[owners], pointer[owners + 1]
    lengths = ends - starts
    offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return order[offsets + np.arange(int(lengths.sum()))]


class _Colouring:
    """Stable integer colours of one element kind (nets or devices) of the union.

    A class keeps its id while it refines: when a round splits it, the
    members none of whose neighbours moved stay, and only the parts
    that split off take fresh ids.  A moved neighbour always takes a
    fresh id, so every member that saw one has a changed multiset.
    ``hash`` holds each element's multiset hash, updated by the
    difference each moved neighbour makes.  ``contributed`` is the
    colour each element's neighbours have summed so far, so the
    elements whose colour differs from it are the ones to propagate.
    Hashes start at 0 and ``contributed`` at -1, so the first round
    sums every pin.  ``per_side[side, class]`` counts the class's
    members on each side.
    """

    def __init__(self, colour: np.ndarray, side: np.ndarray) -> None:
        capacity = len(colour)
        self.colour = colour
        self.side = side
        self.hash = np.zeros(capacity, dtype=np.uint64)
        self.contributed = np.full(capacity, -1, dtype=np.int64)
        self.per_side = np.zeros((2, capacity), dtype=np.int64)
        np.add.at(self.per_side, (side, colour), 1)
        self.next_id = int(colour.max(initial=-1)) + 1

    def classes(self, side: int) -> int:
        """Number of classes with a member on ``side``."""
        return int(np.count_nonzero(self.per_side[side]))

    def snapshot(self, side: int) -> np.ndarray:
        """A copy of the colours of ``side``'s elements."""
        return self.colour[self.side == side]

    def split(self, dirty: np.ndarray) -> None:
        """Refine the classes of ``dirty`` elements by their new hashes."""
        if not len(dirty):
            return
        colour, hashes = self.colour[dirty], self.hash[dirty]
        order = np.lexsort((hashes, colour))
        dirty, colour, hashes = dirty[order], colour[order], hashes[order]
        starts = np.ones(len(dirty), dtype=bool)
        starts[1:] = (colour[1:] != colour[:-1]) | (hashes[1:] != hashes[:-1])
        group_of = np.cumsum(starts) - 1
        first = np.flatnonzero(starts)
        group_class = colour[first]
        group_size = np.diff(np.append(first, len(dirty)))
        # A class all of whose members are dirty hands its id to its
        # largest part; otherwise the members left alone keep it.
        by_size = np.lexsort((-group_size, group_class))
        ranked = group_class[by_size]
        class_first = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
        largest = by_size[class_first]
        dirty_members = np.add.reduceat(group_size[by_size], class_first)
        size = self.per_side[:, group_class[largest]].sum(axis=0)
        fresh = np.ones(len(first), dtype=bool)
        fresh[largest[dirty_members == size]] = False
        new_class = group_class.copy()
        new_class[fresh] = self.next_id + np.arange(int(fresh.sum()))
        self.next_id += int(fresh.sum())
        target = new_class[group_of]
        moving = target != colour
        elements, old, new = dirty[moving], colour[moving], target[moving]
        self.colour[elements] = new
        side = self.side[elements]
        np.add.at(self.per_side, (side, old), -1)
        np.add.at(self.per_side, (side, new), 1)


def _recolour(
    targets: _Colouring,
    sources: _Colouring,
    pointer: np.ndarray,
    order: np.ndarray,
    pin_target: np.ndarray,
    pin_source: np.ndarray,
    pin_role: np.ndarray,
    roles: int,
) -> None:
    """One half round: targets absorb their moved sources, then split.

    Each pin of a source whose colour changed since its neighbours last
    summed it moves its target's hash by ``mix(new key) - mix(old key)``,
    so the work is proportional to the pins of moved sources.
    """
    moved = np.flatnonzero(sources.colour != sources.contributed)
    if not len(moved):
        return
    pins = _gather(pointer, order, moved)
    source, role = pin_source[pins], pin_role[pins]
    old = sources.contributed[source]
    delta = _mix(sources.colour[source] * roles + role) - np.where(
        old >= 0, _mix(old * roles + role), np.uint64(0)
    )
    sources.contributed[moved] = sources.colour[moved]
    target = pin_target[pins]
    np.add.at(targets.hash, target, delta)
    dirty = np.zeros(len(targets.colour), dtype=bool)
    dirty[target] = True
    targets.split(np.flatnonzero(dirty))


def _net_seeds(sides: Sequence[SwitchNetlist]) -> np.ndarray:
    """Union net colours from (VDD?, GND?, input rank, output rank)."""
    total = sum(netlist.num_nets for netlist in sides)
    rails = np.zeros(total, dtype=np.int64)
    input_rank = np.full(total, -1, dtype=np.int64)
    output_rank = np.full(total, -1, dtype=np.int64)
    base = 0
    for netlist in sides:
        rails[[base + net for net in netlist.vdd_nets]] += 2
        rails[[base + net for net in netlist.gnd_nets]] += 1
        for k, net in enumerate(netlist.inputs):
            input_rank[base + net] = k
        for k, net in enumerate(netlist.outputs):
            output_rank[base + net] = k
        base += netlist.num_nets
    inputs = len(sides[0].inputs) + 1
    outputs = len(sides[0].outputs) + 1
    key = (rails * inputs + input_rank + 1) * outputs + output_rank + 1
    return np.unique(key, return_inverse=True)[1]


def _pins(
    sides: Sequence[SwitchNetlist],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Union device kinds, pins per device, and flat pin arrays (device, role, net)."""
    kind_ids: Dict[str, int] = {}
    role_ids: Dict[str, int] = {}
    kinds: List[int] = []
    counts: List[int] = []
    roles: List[int] = []
    nets: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
    net_base = 0
    for netlist in sides:
        devices = netlist.devices
        kinds += [kind_ids.setdefault(device.kind, len(kind_ids)) for device in devices]
        counts += [len(device.pins) for device in devices]
        pins = [pin for device in devices for pin in device.pins]
        roles += [role_ids.setdefault(role, len(role_ids)) for role, _ in pins]
        nets.append(np.array([net for _, net in pins], dtype=np.int64) + net_base)
        net_base += netlist.num_nets
    counts_array = np.array(counts, dtype=np.int64)
    return (
        np.array(kinds, dtype=np.int64),
        counts_array,
        np.repeat(np.arange(len(counts), dtype=np.int64), counts_array),
        np.array(roles, dtype=np.int64),
        np.concatenate(nets),
    )


def _population_difference(a: np.ndarray, b: np.ndarray) -> int:
    """Size of the multiset symmetric difference of two colour slices."""
    size = int(max(a.max(initial=-1), b.max(initial=-1))) + 1
    return int(
        np.abs(np.bincount(a, minlength=size) - np.bincount(b, minlength=size)).sum()
    )


def compare_netlists(
    extracted: SwitchNetlist, golden: SwitchNetlist
) -> LvsReport:
    """Compare two netlists up to canonical form; returns a report.

    Primary inputs/outputs are matched by *order* (the k-th input of
    one side pairs with the k-th of the other), rails by role; internal
    nets need no correspondence — refinement finds it or proves there
    is none.  Gives the report the per-netlist content-hash refinement
    gives.
    """
    report = _new_report(extracted, golden)
    if report.mismatches:
        return report

    sides = (extracted, golden)
    kinds, pin_counts, pin_device, pin_role, pin_net = _pins(sides)
    roles = int(pin_role.max(initial=0)) + 1
    total_nets = extracted.num_nets + golden.num_nets
    nets = _Colouring(
        _net_seeds(sides), (np.arange(total_nets) >= extracted.num_nets).astype(np.int64)
    )
    devices = _Colouring(
        kinds, (np.arange(len(kinds)) >= len(extracted.devices)).astype(np.int64)
    )
    device_pointer = np.concatenate(([0], np.cumsum(pin_counts)))
    device_order = np.arange(len(pin_device))
    net_order = np.argsort(pin_net, kind="stable")
    net_pointer = np.concatenate(
        ([0], np.cumsum(np.bincount(pin_net, minlength=total_nets)))
    )

    def classes(side: int) -> int:
        return nets.classes(side) + devices.classes(side)

    previous = [classes(0), classes(1)]
    # per side: (round its refinement ended, its net and device colours)
    final: List = [None, None]
    rounds = 0
    while final[0] is None or final[1] is None:
        rounds += 1
        _recolour(devices, nets, net_pointer, net_order,
                  pin_device, pin_net, pin_role, roles)
        _recolour(nets, devices, device_pointer, device_order,
                  pin_net, pin_device, pin_role, roles)
        for side in (0, 1):
            if final[side] is None:
                refined = classes(side)
                if refined == previous[side]:
                    final[side] = (rounds, nets.snapshot(side), devices.snapshot(side))
                previous[side] = refined

    (rounds_a, nets_a, devices_a), (rounds_b, nets_b, devices_b) = final
    report.rounds = max(rounds_a, rounds_b)
    if rounds_a == rounds_b:
        _mismatch_lines(
            report,
            _population_difference(devices_a, devices_b),
            _population_difference(nets_a, nets_b),
        )
        return report
    # Sides that stop on different rounds hold colours of different
    # refinement depths, which never coincide -- except a pinless
    # device's, which is its kind at every depth.
    pinless = [
        Counter(d.kind for d in netlist.devices if not d.pins) for netlist in sides
    ]
    pinned = sum(len(netlist.devices) - sum(p.values()) for netlist, p in zip(sides, pinless))
    unmatched_pinless = (pinless[0] - pinless[1]) + (pinless[1] - pinless[0])
    _mismatch_lines(
        report,
        pinned + sum(unmatched_pinless.values()),
        extracted.num_nets + golden.num_nets,
    )
    return report
