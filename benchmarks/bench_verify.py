"""E-VERIFY — silicon verification: extraction, simulation and LVS.

* **flat scaling guard** (runs in smoke mode, fails CI) — doubling the
  product terms of a PLA for the whole flat
  :func:`~repro.verify.extract.extract_netlist` (flatten, mask walk,
  resolution) on ``plane_table(n, n, n)`` and ``plane_table(n, 2n, n)``
  (rows ``verify_extract_flat`` and ``verify_extract_flat_2x_terms``,
  both at n; n = 4 in smoke mode, 8 otherwise) must stay < 3x: twice
  the terms is about twice the sweep nodes, so only linear growth fits.

* **lane-parallel simulation** — every exhaustive input vector of
  an extracted PLA in one :func:`~repro.verify.switchsim.simulate`
  call, checked net for net against the truth table.
  ``pla_sim_exhaustive_8in`` (256 vectors) must be at least 20x faster
  than one :func:`~repro.verify.switchsim.simulate_reference` call per
  vector (row ``pla_sim_exhaustive_8in_reference``), and the engine
  must agree with that loop on every net of every lane;
  ``pla_sim_exhaustive_12in`` (4 096 vectors) must stay under 1 s, in
  smoke mode too.

* **union LVS** — :func:`~repro.verify.lvs.compare_netlists` on the
  cell graph of a 16x16 multiplier against its golden (row
  ``lvs_mult_16``) must be at least 10x faster than the per-netlist
  oracle :func:`~repro.verify.lvs.compare_netlists_reference` (row
  ``lvs_mult_16_reference``), with the identical report.
* **multiplier verification scaling guard** (runs in smoke mode, fails
  CI) — ``verify_multiplier`` rows at 8x8, 16x16 and 32x32: each size
  step has 4x the cells and may grow verification at most 5x, and the
  32x32 multiplier verifies in under 0.5 s.

Set ``REPRO_BENCH_SMOKE=1`` to trim to the smallest size (the 10x and
20x speedup assertions are skipped there, the 8-input comparison runs
on 5 inputs, and the union LVS comparison runs at 8x8; the scaling
guards and the 12-input bound still run, the multiplier one on the
8x8 -> 16x16 step only).
"""

import os
import random
import time

from conftest import best_time, doubling_ratio

from repro.multiplier import generate_multiplier
from repro.multiplier.generator import intended_multiplier_netlist
from repro.pla import TruthTable, generate_pla
from repro.verify import (
    X,
    cell_graph_netlist,
    collect_occurrences,
    compare_netlists,
    exhaustive_vectors,
    extract_netlist,
    input_planes,
    simulate,
    verify_multiplier,
)
from repro.verify.driver import pla_layout_netlist
from repro.verify.lvs import compare_netlists_reference
from repro.verify.switchsim import simulate_reference

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

SCALING_LIMIT = 3.0
#: union LVS over the per-netlist oracle on the 16x16 cell graph
LVS_SPEEDUP_FLOOR = 10.0
#: multiplier sizes of the verification scaling guard (4x cells a step)
MULTIPLIER_SIZES = [8, 16] if SMOKE else [8, 16, 32]
MULTIPLIER_STEP_LIMIT = 5.0
MULTIPLIER_32_BOUND_S = 0.5


def plane_table(inputs, terms, outputs, seed=7):
    """A deterministic random personality with no empty rows."""
    rng = random.Random(seed)
    ands = []
    for _ in range(terms):
        row = "".join(rng.choice("10-") for _ in range(inputs))
        if set(row) == {"-"}:
            row = "1" + row[1:]
        ands.append(row)
    ors = []
    for _ in range(terms):
        row = "".join(rng.choice("10") for _ in range(outputs))
        if "1" not in row:
            row = "1" + row[1:]
        ors.append(row)
    return TruthTable(ands, ors)


def build(n, terms=None):
    return generate_pla(plane_table(n, terms or n, n), name=f"bench_pla_{n}_{terms}")


def test_flat_scaling_guard(report, record):
    """Doubling the product terms must grow flat extraction < 3x."""
    n = 4 if SMOKE else 8
    small = build(n, terms=n)
    large = build(n, terms=2 * n)

    def measure(cell):
        return best_time(lambda: extract_netlist(cell))

    ratio, t_small, t_large = doubling_ratio(measure, small, large, SCALING_LIMIT)
    # keyed by n in both rows: smoke mode's 4 x 8 x 4 PLA must not
    # overwrite the full run's 8 x 8 x 8 one
    record("verify_extract_flat", n, t_small)
    record("verify_extract_flat_2x_terms", n, t_large)
    report(
        "E-VERIFY: flat extraction term-doubling scaling guard",
        f"  {n} terms -> {2 * n} terms: {t_small * 1000:.2f} ms ->"
        f" {t_large * 1000:.2f} ms ({ratio:.2f}x, limit {SCALING_LIMIT}x)",
    )
    assert ratio < SCALING_LIMIT, (
        f"flat extraction grew {ratio:.2f}x on doubled product terms"
    )


def exhaustive_sim(inputs, terms, outputs):
    """An extracted PLA plus its exhaustive two-rail input words."""
    table = plane_table(inputs, terms, outputs)
    netlist = pla_layout_netlist(generate_pla(table, name=f"sim_pla_{inputs}"))
    lanes = 1 << inputs
    mask = (1 << lanes) - 1
    planes = input_planes(inputs)
    words = {
        net: plane | (mask ^ plane) << lanes
        for net, plane in zip(netlist.inputs, planes)
    }
    return table, netlist, planes, words, lanes


def test_pla_sim_exhaustive_8in(report, record):
    inputs = 5 if SMOKE else 8
    _, netlist, _, words, lanes = exhaustive_sim(inputs, 16, 4)
    start = time.perf_counter()
    loop = [
        simulate_reference(netlist, dict(zip(netlist.inputs, bits)))
        for bits in exhaustive_vectors(inputs)
    ]
    loop_s = time.perf_counter() - start
    got = simulate(netlist, words, lanes=lanes)
    for lane, values in enumerate(loop):
        for net, value in enumerate(values):
            high, low = (got[net] >> lane) & 1, (got[net] >> (lanes + lane)) & 1
            assert (high if high != low else X) == value, (lane, net)
    lane_s = best_time(lambda: simulate(netlist, words, lanes=lanes))
    record("pla_sim_exhaustive_8in", lanes, lane_s)
    record("pla_sim_exhaustive_8in_reference", lanes, loop_s)
    ratio = loop_s / lane_s
    report(
        f"E-VERIFY: {inputs}-input PLA, all {lanes} vectors: lanes"
        f" {lane_s * 1000:.1f} ms, one vector at a time {loop_s * 1000:.1f} ms"
        f" ({ratio:.0f}x)"
    )
    if not SMOKE:
        assert ratio >= 20, f"lane engine only {ratio:.1f}x over the per-vector loop"


def test_pla_sim_exhaustive_12in(report, record):
    table, netlist, planes, words, lanes = exhaustive_sim(12, 12, 4)
    values = simulate(netlist, words, lanes=lanes)
    want = table.evaluate(planes, lanes=lanes)
    mask = (1 << lanes) - 1
    assert [values[net] for net in netlist.outputs] == [
        word | (mask ^ word) << lanes for word in want
    ]
    seconds = best_time(lambda: simulate(netlist, words, lanes=lanes))
    record("pla_sim_exhaustive_12in", lanes, seconds)
    report(
        f"E-VERIFY: 12-input PLA, all {lanes} vectors in one relaxation:"
        f" {seconds * 1000:.1f} ms (guard < 1 s)"
    )
    assert seconds < 1.0


def test_lvs_union_vs_reference(report, record):
    n = 8 if SMOKE else 16
    occurrences, strays = collect_occurrences(generate_multiplier(n, n))
    assert strays == []
    extracted = cell_graph_netlist(occurrences)
    golden = intended_multiplier_netlist(n, n)
    union = compare_netlists(extracted, golden)
    assert union.matched
    assert union.to_dict() == compare_netlists_reference(extracted, golden).to_dict()
    union_s = best_time(lambda: compare_netlists(extracted, golden))
    reference_s = best_time(lambda: compare_netlists_reference(extracted, golden))
    record(f"lvs_mult_{n}", n, union_s)
    record(f"lvs_mult_{n}_reference", n, reference_s)
    ratio = reference_s / union_s
    report(
        f"E-VERIFY: {n}x{n} multiplier cell-graph LVS ({union.rounds} rounds):"
        f" union {union_s * 1000:.1f} ms, per-netlist oracle"
        f" {reference_s * 1000:.1f} ms ({ratio:.0f}x)"
    )
    if not SMOKE:
        assert ratio >= LVS_SPEEDUP_FLOOR, (
            f"union LVS only {ratio:.1f}x over the oracle (need >= {LVS_SPEEDUP_FLOOR}x)"
        )


def test_verify_multiplier_scaling_guard(report, record):
    """Each size step (4x cells) may grow ``verify_multiplier`` <= 5x."""
    cells = {n: generate_multiplier(n, n) for n in MULTIPLIER_SIZES}

    def measure(n):
        verification = verify_multiplier(cells[n])
        assert verification.ok, verification.summary()
        return best_time(lambda: verify_multiplier(cells[n]))

    rows = []
    seconds = {}
    for small, large in zip(MULTIPLIER_SIZES, MULTIPLIER_SIZES[1:]):
        ratio, seconds[small], seconds[large] = doubling_ratio(
            measure, small, large, MULTIPLIER_STEP_LIMIT
        )
        rows.append(
            f"  {small}x{small} -> {large}x{large}: {seconds[small] * 1000:.1f} ms ->"
            f" {seconds[large] * 1000:.1f} ms ({ratio:.2f}x, limit"
            f" {MULTIPLIER_STEP_LIMIT}x)"
        )
        assert ratio <= MULTIPLIER_STEP_LIMIT, (
            f"verify_multiplier grew {ratio:.2f}x from {small}x{small} to {large}x{large}"
        )
    for n, value in seconds.items():
        record("verify_multiplier", n, value)
    report("E-VERIFY: verify_multiplier scaling guard", *rows)
    if 32 in seconds:
        assert seconds[32] < MULTIPLIER_32_BOUND_S, (
            f"32x32 verify_multiplier took {seconds[32]:.2f} s"
            f" (bound {MULTIPLIER_32_BOUND_S} s)"
        )
