"""E-VERIFY — silicon verification: flat versus hierarchical extraction.

The verification analogue of the compact-once/stamp-many experiment
(bench_hierarchy): a generated PLA plane is a handful of distinct
crosspoint tiles stamped once per literal, so mask-level extraction
should pay per *distinct tile*, not per instance.

* **flat vs hier** — extract an n x n PLA plane (n inputs, n product
  terms, n outputs; the acceptance workload is the 8x8 array) both
  ways, assert LVS equivalence, and at full sizes enforce the >= 3x
  acceptance bar for the hierarchical extractor.  Rows ``verify_flat``
  / ``verify_hier`` land in ``BENCH_compaction.json``.  The timed
  comparison swaps the mask walk to its interpreted oracle
  (``_sweep_reference``): the bar documents the structural
  extract-once/stamp-many win, which the array walk's constant-factor
  speedup of the *flat* extraction (its ``verify_extract_vec`` row in
  ``bench_batch.py``) would otherwise mask — small per-tile extractions
  amortize no array export.
* **scaling guard** (runs in smoke mode, fails CI) — doubling the
  instance count (twice the product terms) must grow hierarchical
  extraction < 3x: the tile set is unchanged, so only stamping and
  stitching may grow.
* **cached re-verification** — a second hierarchical run against a
  warm :class:`~repro.compact.CompactionCache` re-uses every tile
  extraction (row ``verify_hier_cached``); asserted to hit the cache,
  with the wall-clock gain recorded rather than asserted (tile
  extraction is already cheap, so the cache's value is cross-run and
  on-disk persistence).

* **lane-parallel simulation** — every exhaustive input vector of
  an extracted PLA in one :func:`~repro.verify.switchsim.simulate`
  call, checked net for net against the truth table.
  ``pla_sim_exhaustive_8in`` (256 vectors) must be at least 20x faster
  than one :func:`~repro.verify.switchsim.simulate_reference` call per
  vector (row ``pla_sim_exhaustive_8in_reference``), and the engine
  must agree with that loop on every net of every lane;
  ``pla_sim_exhaustive_12in`` (4 096 vectors) must stay under 1 s, in
  smoke mode too.

Set ``REPRO_BENCH_SMOKE=1`` to trim to the smallest size (the 3x and
20x speedup assertions are skipped there, and the 8-input comparison
runs on 5 inputs; the scaling guard and the 12-input bound still run).
"""

import os
import random
import time
from contextlib import contextmanager

from conftest import best_time, doubling_ratio

from repro.compact import CompactionCache
from repro.pla import TruthTable, generate_pla
from repro.verify import (
    X,
    compare_netlists,
    exhaustive_vectors,
    extract_netlist,
    extract_netlist_hier,
    input_planes,
    simulate,
)
from repro.verify import extract as extract_module
from repro.verify.driver import pla_layout_netlist
from repro.verify.switchsim import simulate_reference

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

SIZES = [4] if SMOKE else [4, 8, 12]
#: the acceptance workload: hier must beat flat >= 3x here
ACCEPTANCE_N = 8
SPEEDUP_FLOOR = 3.0
SCALING_LIMIT = 3.0


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


@contextmanager
def interpreted_kernel():
    """Swap the extraction mask walk to its interpreted oracle.

    ``extract_netlist`` looks ``_sweep_batch`` up in its module on every
    call, so replacing that attribute routes flat and hierarchical
    extraction alike through ``_sweep_reference`` until the block ends.
    """
    production = extract_module._sweep_batch
    extract_module._sweep_batch = extract_module._sweep_reference
    try:
        yield
    finally:
        extract_module._sweep_batch = production


def test_flat_vs_hier(report, record):
    rows = []
    for n in SIZES:
        cell = build(n)
        with interpreted_kernel():
            flat_time = best_time(lambda: extract_netlist(cell))
            hier_time = best_time(lambda: extract_netlist_hier(cell))
        # LVS equivalence holds under the production mask walk too.
        assert compare_netlists(
            extract_netlist_hier(cell), extract_netlist(cell)
        ).matched
        record("verify_flat", n, flat_time)
        record("verify_hier", n, hier_time)
        ratio = flat_time / hier_time
        rows.append(
            f"  {n:>3} x {n}   flat {flat_time * 1000:8.2f} ms"
            f"   hier {hier_time * 1000:8.2f} ms   {ratio:5.1f}x"
        )
        if not SMOKE and n == ACCEPTANCE_N:
            assert ratio >= SPEEDUP_FLOOR, (
                f"hierarchical extraction only {ratio:.1f}x faster than flat"
                f" on the {n}x{n} array (need >= {SPEEDUP_FLOOR}x)"
            )
    report("E-VERIFY: flat vs hierarchical mask extraction", *rows)


def test_hier_scaling_guard(report, record):
    """Doubling the stamped instances must grow hier time < 3x."""
    n = 4 if SMOKE else 8
    small = build(n, terms=n)
    large = build(n, terms=2 * n)

    def measure(cell):
        return best_time(lambda: extract_netlist_hier(cell))

    ratio, t_small, t_large = doubling_ratio(
        lambda cell: measure(cell), small, large, SCALING_LIMIT
    )
    record("verify_hier_scale", n, t_small)
    record("verify_hier_scale", 2 * n, t_large)
    report(
        "E-VERIFY: instance-doubling scaling guard",
        f"  {n} terms -> {2 * n} terms: {t_small * 1000:.2f} ms ->"
        f" {t_large * 1000:.2f} ms ({ratio:.2f}x, limit {SCALING_LIMIT}x)",
    )
    assert ratio < SCALING_LIMIT, (
        f"hierarchical extraction grew {ratio:.2f}x on doubled instances"
    )


def test_cached_reverification(report, record):
    n = SIZES[-1]
    cell = build(n)
    cache = CompactionCache()
    cold = best_time(lambda: extract_netlist_hier(cell, cache=cache))
    assert cache.misses > 0
    warm = best_time(lambda: extract_netlist_hier(cell, cache=cache))
    assert cache.hits > 0, "second run must reuse cached tile extractions"
    record("verify_hier_cached", n, warm)
    report(
        "E-VERIFY: cached re-verification",
        f"  {n} x {n}   cold {cold * 1000:8.2f} ms   warm {warm * 1000:8.2f} ms",
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
