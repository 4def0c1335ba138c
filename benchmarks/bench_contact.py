"""E-6.9 — Figure 6.9 / section 6.4.3: derived-layer contact expansion.

"At mask creation time the contact layer is converted into actual
lithographic mask layers which may contain one or several contact cuts
depending on the size of the contact layer."  The rows below show cut
counts versus derived-contact size for both technologies, plus the
expansion throughput.
"""

import pytest
from oracles.layers import expand_contact, expand_layout

from repro.compact import TECH_A, TECH_B
from repro.geometry import Box


def _impl_cut_count_table(report):
    rows = [
        "E-6.9 contact cuts versus derived-contact size:",
        f"{'size':>10} {'techA cuts':>11} {'techB cuts':>11}",
    ]
    for extent in (4, 8, 12, 16, 24):
        box = Box(0, 0, extent, extent)
        cuts_a = sum(1 for layer, _ in expand_contact(box, TECH_A.contact) if layer == "cut")
        cuts_b = sum(1 for layer, _ in expand_contact(box, TECH_B.contact) if layer == "cut")
        rows.append(f"{extent:>4}x{extent:<5} {cuts_a:>11} {cuts_b:>11}")
    report(*rows)
    # Monotone growth with size.
    counts = [
        sum(1 for layer, _ in expand_contact(Box(0, 0, e, e), TECH_A.contact)
            if layer == "cut")
        for e in (4, 8, 12, 16, 24)
    ]
    assert counts == sorted(counts)


@pytest.mark.parametrize("count", [100, 1000])
def test_expansion_throughput(benchmark, count, report):
    layers = {
        "contact": [Box(k * 20, 0, k * 20 + 8, 8) for k in range(count)],
        "gate": [Box(k * 20, 20, k * 20 + 2, 30) for k in range(count)],
    }

    def run():
        return expand_layout(layers, TECH_A)

    out = benchmark(run)
    report(
        f"E-6.9 expanded {count} contacts + {count} gates ->"
        f" {sum(len(v) for v in out.values())} mask boxes"
    )


def test_cut_count_table(benchmark, report):
    benchmark.pedantic(lambda: _impl_cut_count_table(report), rounds=1, iterations=1)
