"""Scaling gates on deterministic counters: they cannot flake.

A wall-clock ratio depends on the host's load and on where the
collector runs; a count the program keeps does not.  Fitting how such
counts grow with size shows the shape of the work, so a gate on them
can run in tier-1 at small sizes.

* **extraction** — on the flow benchmark's random PLAs (seed 1, built
  through the design language), the ``nodes`` attribute of the
  ``extract.sweep`` span and the extracted device count grow at most
  2.05x per doubling of the product terms, from 8 to 64 terms.  Twice
  the terms is about twice the mask geometry, so a node count that
  turns quadratic fails here.
"""

import random

import pytest
from test_sweep_equivalence import random_table

from repro.obs import trace as obs_trace
from repro.pla import generate_pla_via_language
from repro.verify import extract_netlist

#: growth allowed per doubling of the product terms
DOUBLING_LIMIT = 2.05
TERMS = (8, 16, 32, 64)


def extraction_counters(inputs, outputs, terms):
    """(sweep nodes, devices) of one seed-1 PLA's extraction."""
    table = random_table(random.Random(1), inputs, outputs, terms)
    cell, _ = generate_pla_via_language(table)
    tracer = obs_trace.Tracer()
    with obs_trace.activated(tracer):
        netlist = extract_netlist(cell)
    (sweep,) = [span for span in tracer.finished() if span.name == "extract.sweep"]
    return sweep.attributes["nodes"], len(netlist.devices)


@pytest.mark.parametrize("inputs, outputs", [(6, 5), (8, 8)])
def test_extraction_counters_grow_linearly_in_product_terms(inputs, outputs):
    counters = [extraction_counters(inputs, outputs, terms) for terms in TERMS]
    for terms, small, large in zip(TERMS, counters, counters[1:]):
        for name, before, after in zip(("nodes", "devices"), small, large):
            assert before > 0
            assert after / before <= DOUBLING_LIMIT, (
                f"{inputs}-in/{outputs}-out PLA: {name} grew {after / before:.2f}x"
                f" from {terms} to {2 * terms} terms"
            )
