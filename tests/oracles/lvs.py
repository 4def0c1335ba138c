"""Per-netlist content-hash refinement: the oracle for
``repro.verify.lvs.compare_netlists``.

Each side is refined on its own, and colours are sha256 digests of each
element's ``repr``-ed neighbourhood, so the two sides' final colour
multisets compare directly.  The report is built and worded by the
program's own helpers, so the two builds give comparable reports.
"""

import hashlib
from collections import Counter
from typing import List, Tuple

from repro.verify.lvs import LvsReport, _mismatch_lines, _new_report
from repro.verify.netlist import SwitchNetlist


def _digest(value: object) -> str:
    """Stable fixed-size colour from any repr-able value."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def _refine_reference(netlist: SwitchNetlist) -> Tuple[Counter, Counter, int]:
    """Stable (net-colour multiset, device-colour multiset, rounds)."""
    input_rank = {net: k for k, net in enumerate(netlist.inputs)}
    output_rank = {net: k for k, net in enumerate(netlist.outputs)}
    net_colour = [
        _digest(
            (
                "seed",
                net in netlist.vdd_nets,
                net in netlist.gnd_nets,
                input_rank.get(net, -1),
                output_rank.get(net, -1),
            )
        )
        for net in range(netlist.num_nets)
    ]
    device_colour = [_digest(("seed", d.kind)) for d in netlist.devices]
    incident: List[List[Tuple[int, str]]] = [[] for _ in range(netlist.num_nets)]
    for index, device in enumerate(netlist.devices):
        for role, net in device.pins:
            incident[net].append((index, role))

    classes = len(set(net_colour)) + len(set(device_colour))
    rounds = 0
    limit = netlist.num_nets + len(netlist.devices) + 2
    while rounds < limit:
        rounds += 1
        device_colour = [
            _digest(
                (
                    device.kind,
                    tuple(sorted((role, net_colour[net]) for role, net in device.pins)),
                )
            )
            for device in netlist.devices
        ]
        net_colour = [
            _digest(
                (
                    net_colour[net],
                    tuple(sorted((device_colour[i], role) for i, role in incident[net])),
                )
            )
            for net in range(netlist.num_nets)
        ]
        refined = len(set(net_colour)) + len(set(device_colour))
        if refined == classes:
            break
        classes = refined
    return Counter(net_colour), Counter(device_colour), rounds


def compare_netlists_reference(
    extracted: SwitchNetlist, golden: SwitchNetlist
) -> LvsReport:
    """Compare two netlists, each side refined on its own.

    Colours are sha256 digests of each element's ``repr``-ed
    neighbourhood, so the two sides' final multisets compare directly.
    """
    report = _new_report(extracted, golden)
    if report.mismatches:
        return report

    nets_a, devices_a, rounds_a = _refine_reference(extracted)
    nets_b, devices_b, rounds_b = _refine_reference(golden)
    report.rounds = max(rounds_a, rounds_b)
    _mismatch_lines(
        report,
        sum(((devices_a - devices_b) + (devices_b - devices_a)).values()),
        sum(((nets_a - nets_b) + (nets_b - nets_a)).values()),
    )
    return report
