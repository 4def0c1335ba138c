"""E-6.7 — Figures 6.6/6.7: band scan versus the correct vertical scan.

Comparisons on randomized mask layouts:
* constraint counts — the visibility scan generates fewer constraints
  (shadowed pairs are implied transitively);
* legality — the hidden-edge-skipping band scan misses the partially
  hidden pair of Figure 6.6 and emits an illegal layout;
* cost — generation time of the two scanners;
* the production scan — :func:`visibility_constraints` on flat arrays
  versus the flat-list reference oracle at n >= 2000 boxes (>= 5x
  required), plus the CI scaling guard: doubling the box count must
  grow the production scan's runtime sub-quadratically (< 3x).

Timing rows land in ``BENCH_compaction.json`` via the ``record``
fixture.  Set ``REPRO_BENCH_SMOKE=1`` for the small sizes (the speedup
assertion is skipped there; the scaling guard still runs).
"""

import os
import random

import pytest

from conftest import best_time, compare_kernel, doubling_ratio, sweep_layout_pairs
from oracles.scanline import visibility_constraints_reference

from repro.compact import (
    TECH_A,
    build_edge_variables,
    check_layout,
    compact_layout,
    naive_constraints,
    visibility_constraints,
)
from repro.compact.constraints import ConstraintSystem
from repro.geometry import Box
from repro.layout.database import FlatLayout

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))


def random_boxes(n, seed=11):
    rng = random.Random(seed)
    boxes = []
    for _ in range(n):
        x = rng.randrange(0, 40 * n, 2)
        y = rng.randrange(0, 60, 2)
        boxes.append(("diff", Box(x, y, x + rng.randrange(2, 8), y + rng.randrange(2, 10))))
    return boxes




@pytest.mark.parametrize("n", [20, 50, 100])
def test_visibility_scan_cost(benchmark, n, report):
    boxes = random_boxes(n)

    def run():
        system, comp = build_edge_variables(boxes)
        return visibility_constraints(system, comp, TECH_A)

    count = benchmark(run)
    report(f"E-6.7 visibility scan, {n:3d} boxes: {count:4d} spacing constraints")


@pytest.mark.parametrize("n", [20, 50, 100])
def test_band_scan_cost(benchmark, n, report):
    boxes = random_boxes(n)

    def run():
        system, comp = build_edge_variables(boxes)
        return naive_constraints(system, comp, TECH_A)

    count = benchmark(run)
    report(f"E-6.7 band scan,       {n:3d} boxes: {count:4d} spacing constraints")


def _impl_constraint_count_comparison(report):
    rows = ["E-6.7 constraint counts (band scan vs visibility scan):",
            f"{'boxes':>6} {'band':>6} {'visibility':>11}"]
    for n in (20, 50, 100):
        boxes = random_boxes(n)
        s1, c1 = build_edge_variables(boxes)
        band = naive_constraints(s1, c1, TECH_A)
        s2, c2 = build_edge_variables(boxes)
        vis = visibility_constraints(s2, c2, TECH_A)
        rows.append(f"{n:>6} {band:>6} {vis:>11}")
        assert vis <= band
    report(*rows)


def _impl_figure_66_legality(report):
    layout = FlatLayout("fig66")
    layout.add("diff", Box(0, 0, 4, 20))
    layout.add("diff", Box(10, 0, 14, 20))
    layout.add("diff", Box(2, 0, 12, 8))
    bad = compact_layout(layout, TECH_A, method="naive-skip-hidden")
    good = compact_layout(layout, TECH_A, method="visibility")
    bad_violations = len(bad.violations(TECH_A))
    good_violations = len(good.violations(TECH_A))
    report(
        "E-6.7 Figure 6.6 (partially hidden edge):",
        f"  hidden-skipping band scan : {bad_violations} DRC violation(s)"
        "  <- the bug",
        f"  correct vertical scan     : {good_violations} DRC violation(s)",
    )
    assert bad_violations > 0
    assert good_violations == 0


def test_constraint_count_comparison(benchmark, report):
    benchmark.pedantic(lambda: _impl_constraint_count_comparison(report), rounds=1, iterations=1)


def test_figure_66_legality(benchmark, report):
    benchmark.pedantic(lambda: _impl_figure_66_legality(report), rounds=1, iterations=1)


def _impl_kernel_speedup(report, record):
    n = 400 if SMOKE else 2000
    boxes = sweep_layout_pairs(n)

    def run_new():
        system, comp = build_edge_variables(boxes)
        return visibility_constraints(system, comp, TECH_A)

    def run_reference():
        system, comp = build_edge_variables(boxes)
        return visibility_constraints_reference(system, comp, TECH_A)

    assert run_new() == run_reference()  # identical constraint counts
    compare_kernel(
        report,
        record,
        "scanline",
        n,
        run_new,
        run_reference,
        min_ratio=5.0,
        smoke=SMOKE,
    )


def test_kernel_speedup(benchmark, report, record):
    benchmark.pedantic(
        lambda: _impl_kernel_speedup(report, record), rounds=1, iterations=1
    )


def _impl_visibility_scaling_guard(report, record):
    # CI guard: doubling the box count must stay sub-quadratic (< 3x;
    # a regression to the O(n^2) front would show ~4x).  Runs at smoke
    # sizes too — this is the cheap canary for the scan itself.
    def measure(n):
        boxes = sweep_layout_pairs(n)

        def run():
            system, comp = build_edge_variables(boxes)
            return visibility_constraints(system, comp, TECH_A)

        return best_time(run, repeats=5)

    ratio, t_small, t_large = doubling_ratio(measure, 600, 1200, limit=3.0)
    record("scanline", 600, t_small)
    record("scanline", 1200, t_large)
    report(
        "E-SWEEP visibility scaling guard (600 -> 1200 boxes):"
        f" {ratio:.2f}x (must be < 3)"
    )
    assert ratio < 3.0, f"visibility scan grew {ratio:.2f}x on doubling"


def test_visibility_scaling_guard(benchmark, report, record):
    benchmark.pedantic(
        lambda: _impl_visibility_scaling_guard(report, record),
        rounds=1,
        iterations=1,
    )
