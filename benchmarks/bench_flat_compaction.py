"""E-FLAT — flat compaction of the multiplier at growing sizes.

Guards on the flat compactor of section 6.4, run on the flattened
Baugh-Wooley multiplier (each size step quadruples the box count):

* **scaling guard** — a flat ``xy`` compaction (two one-dimensional
  passes), timed with the cyclic collector paused, must grow at most
  6x per size step, for 3.6-3.9x the boxes: near-linear, with room for
  cache effects.  With the all-pairs alignment scan the jog metrics
  once used, it grew 6-13x per step, and the scan took 5.1 s of the
  5.8 s 16x16 compact stage.  Rows ``flat_xy`` (n = box count).
* **what a user pays** — the same compaction timed with the collector
  on, because the CLI and the service run with it on.  The pass keeps
  variables as integer ids and constraints as int64 columns, so there
  is next to no object graph for the collector to walk; with one
  ``Constraint``/``CompactionBox``/name string per row and box it grew
  to 1.4-1.7 s at 32x32, a third of it in the collector.  Must grow at
  most 6x per size step and, at full size, finish 32x32 in under
  0.5 s (0.18-0.22 s measured).  Rows ``flat_xy_gc`` (n = box count).
* **small cells** — the 19 distinct leaf cells of the 8x8 multiplier,
  each compacted along x then y through the hierarchical pipeline's
  per-leaf pass (``compact_cells(axes="xy")``, one flattening and one
  box decode per leaf): 17 hold one box, so this is the fixed cost of
  a pass.  At full size the row must stay under 12 ms.  Measured
  against the object-era build, 40 alternating runs a side on a 2-core
  container: 1.00-1.09x its median (3.3-5.0 ms); a one-box leaf costs
  about 1.7x, the two- and five-box leaves 0.5-0.8x.  Row
  ``flat_leaves`` (n = multiplier size).
* **compaction cache** — a two-pass ``xy`` chain
  (``compact_passes``) through an empty in-memory
  :class:`~repro.compact.CompactionCache` (cold: both passes computed,
  fingerprinted and stored) and through a filled one (warm: both passes
  read), against the uncached chain, in alternating rounds.  Cold must
  cost at most 1.15x the uncached chain and warm at most 0.2x (the
  medians of 7 rounds; up to 3 attempts).  When every entry was
  deep-copied on ``put`` and ``get`` they read 1.29-1.34x and
  0.35-0.38x.  Rows ``flat_cached_cold``, ``flat_cached_warm`` and
  ``flat_uncached`` (n = box count).
* **rubber-band memory guard** — one rubber-band x pass, in a fresh
  interpreter, must peak under 200 MB RSS.  The dense LP rows it once
  built peaked at 565 MB on 8x8 and grow with constraints x variables
  (16x16 would need about 4 GB).  Rows ``rubber_band`` (n = size).

The guards run in smoke mode too (``REPRO_BENCH_SMOKE=1``), at
4 -> 8 and on 8x8 (the small-cell row on the 4x4 multiplier's leaves,
without its bound, and the cache guard on 16x16); full sizes are
8 -> 16 -> 32, 16x16 and, for the cache guard, 32x32.
"""

import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from conftest import best_time, doubling_ratio

from repro.compact import (
    TECH_A,
    CompactionCache,
    compact_cells,
    compact_passes,
    distinct_leaf_cells,
)
from repro.compact.flat import compact_layout_xy
from repro.layout.database import flatten_cell
from repro.multiplier import generate_via_language

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
SRC = Path(__file__).resolve().parent.parent / "src"

#: one rubber-band x pass in a fresh interpreter: seconds and peak RSS
RUBBER_BAND = """\
import json, resource, sys, time
import scipy.optimize, scipy.sparse  # the pass imports them on first use
from repro.compact import TECH_A, compact_layout
from repro.layout.database import flatten_cell
from repro.multiplier import generate_via_language
layout = flatten_cell(generate_via_language({size}, {size})[0])
start = time.perf_counter()
result = compact_layout(layout, TECH_A, rubber_band=True, axis="x")
print(json.dumps({{
    "seconds": time.perf_counter() - start,
    "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "jog_before": result.jog_before, "jog_after": result.jog_after,
}}))
"""


def _impl_flat_scaling_guard(report, record):
    sizes = (4, 8) if SMOKE else (8, 16, 32)
    layouts = {n: flatten_cell(generate_via_language(n, n)[0]) for n in sizes}

    def measure(n):
        # Collector pauses land wherever the heap crosses a threshold,
        # not where the work is; the guard is about the algorithms.
        gc.collect()
        gc.disable()
        try:
            return best_time(lambda: compact_layout_xy(layouts[n], TECH_A))
        finally:
            gc.enable()

    lines = ["E-FLAT flat xy compaction of the n x n multiplier:"]
    for small, large in zip(sizes, sizes[1:]):
        ratio, t_small, t_large = doubling_ratio(measure, small, large, limit=6.0)
        for n, seconds in ((small, t_small), (large, t_large)):
            record("flat_xy", layouts[n].box_count(), seconds)
        lines.append(
            f"  {small:>2} -> {large:>2}: {layouts[small].box_count():>6} ->"
            f" {layouts[large].box_count():>6} boxes,"
            f" {t_small * 1000:8.1f} -> {t_large * 1000:8.1f} ms"
            f"  ({ratio:.2f}x, must be <= 6)"
        )
        assert ratio <= 6.0, (
            f"flat xy compaction grew {ratio:.2f}x from {small}x{small}"
            f" to {large}x{large}"
        )
    report(*lines)


def test_flat_scaling_guard(benchmark, report, record):
    benchmark.pedantic(
        lambda: _impl_flat_scaling_guard(report, record), rounds=1, iterations=1
    )


def _impl_flat_scaling_with_collector(report, record):
    sizes = (4, 8) if SMOKE else (8, 16, 32)
    layouts = {n: flatten_cell(generate_via_language(n, n)[0]) for n in sizes}

    def measure(n):
        gc.collect()
        return best_time(lambda: compact_layout_xy(layouts[n], TECH_A))

    lines = ["E-FLAT flat xy compaction, collector on:"]
    for small, large in zip(sizes, sizes[1:]):
        ratio, t_small, t_large = doubling_ratio(measure, small, large, limit=6.0)
        for n, seconds in ((small, t_small), (large, t_large)):
            record("flat_xy_gc", layouts[n].box_count(), seconds)
        lines.append(
            f"  {small:>2} -> {large:>2}: {layouts[small].box_count():>6} ->"
            f" {layouts[large].box_count():>6} boxes,"
            f" {t_small * 1000:8.1f} -> {t_large * 1000:8.1f} ms"
            f"  ({ratio:.2f}x, must be <= 6)"
        )
        assert ratio <= 6.0, (
            f"flat xy compaction with the collector on grew {ratio:.2f}x"
            f" from {small}x{small} to {large}x{large}"
        )
    if not SMOKE:
        seconds = measure(32)
        lines.append(f"  32x32: {seconds:.3f} s (must be < 0.5)")
        assert seconds < 0.5, (
            f"32x32 flat xy took {seconds:.3f} s with the collector on"
        )
    report(*lines)


def test_flat_scaling_with_collector(benchmark, report, record):
    benchmark.pedantic(
        lambda: _impl_flat_scaling_with_collector(report, record),
        rounds=1, iterations=1,
    )


def _impl_small_cells(report, record):
    size = 4 if SMOKE else 8
    leaves = distinct_leaf_cells(generate_via_language(size, size)[0])
    items = [(leaf.name, leaf) for leaf in leaves]
    compact_cells(items, TECH_A, axes="xy")  # warm-up
    seconds = best_time(lambda: compact_cells(items, TECH_A, axes="xy"), repeats=9)
    record("flat_leaves", size, seconds)
    boxes = sorted(len(leaf.boxes) for leaf in leaves)
    report(
        f"E-FLAT {len(leaves)} distinct leaves of the {size}x{size} multiplier"
        f" ({boxes.count(1)} of one box), x then y:"
        f" {seconds * 1000:6.2f} ms ({seconds / len(leaves) * 1e6:5.1f} us a leaf)"
    )
    if not SMOKE:
        assert seconds < 0.012, f"small-cell passes took {seconds * 1000:.1f} ms"


def test_small_cells(benchmark, report, record):
    benchmark.pedantic(
        lambda: _impl_small_cells(report, record), rounds=1, iterations=1
    )


def _impl_cached_chain(report, record):
    size = 16 if SMOKE else 32
    cell = generate_via_language(size, size)[0]
    filled = CompactionCache()
    compact_passes(cell, TECH_A, "xy", cache=filled)  # also warms the flatten memo
    boxes = sum(1 for _ in cell.flatten())
    runs = {
        "flat_uncached": lambda: compact_passes(cell, TECH_A, "xy"),
        "flat_cached_cold": lambda: compact_passes(
            cell, TECH_A, "xy", cache=CompactionCache()
        ),
        "flat_cached_warm": lambda: compact_passes(cell, TECH_A, "xy", cache=filled),
    }

    def medians():
        times = {name: [] for name in runs}
        for _ in range(7):
            for name, run in runs.items():
                start = time.perf_counter()
                run()
                times[name].append(time.perf_counter() - start)
        return {name: statistics.median(values) for name, values in times.items()}

    for _ in range(3):
        seconds = medians()
        cold = seconds["flat_cached_cold"] / seconds["flat_uncached"]
        warm = seconds["flat_cached_warm"] / seconds["flat_uncached"]
        if cold <= 1.15 and warm <= 0.2:
            break
    for name, value in seconds.items():
        record(name, boxes, value)
    report(
        f"E-FLAT cached xy chain, {size}x{size} multiplier ({boxes} boxes):"
        f" uncached {seconds['flat_uncached'] * 1000:7.1f} ms,"
        f" cold {seconds['flat_cached_cold'] * 1000:7.1f} ms ({cold:.2f}x, must be <= 1.15),"
        f" warm {seconds['flat_cached_warm'] * 1000:7.1f} ms ({warm:.2f}x,"
        f" must be <= 0.2)"
    )
    assert cold <= 1.15, f"a cold cached chain cost {cold:.2f}x the uncached one"
    assert warm <= 0.2, f"a warm cached chain cost {warm:.2f}x the uncached one"


def test_cached_chain(benchmark, report, record):
    benchmark.pedantic(
        lambda: _impl_cached_chain(report, record), rounds=1, iterations=1
    )


def _impl_rubber_band_memory(report, record):
    size = 8 if SMOKE else 16
    done = subprocess.run(
        [sys.executable, "-c", RUBBER_BAND.format(size=size)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=600, check=True,
    )
    outcome = json.loads(done.stdout.strip().splitlines()[-1])
    record("rubber_band", size, outcome["seconds"])
    report(
        f"E-FLAT rubber-band x pass, {size}x{size} multiplier:"
        f" {outcome['seconds'] * 1000:8.1f} ms, peak RSS"
        f" {outcome['rss_mb']:6.1f} MB (must be < 200),"
        f" jog {outcome['jog_before']} -> {outcome['jog_after']}"
    )
    assert outcome["jog_after"] <= outcome["jog_before"]
    assert outcome["rss_mb"] < 200.0, (
        f"rubber-band pass peaked at {outcome['rss_mb']:.0f} MB on {size}x{size}"
    )


def test_rubber_band_memory(benchmark, report, record):
    benchmark.pedantic(
        lambda: _impl_rubber_band_memory(report, record), rounds=1, iterations=1
    )
