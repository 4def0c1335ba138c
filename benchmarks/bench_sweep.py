"""E-SWEEP — the production geometry passes against their oracles.

Three geometry passes run on flat arrays (:mod:`repro.geometry.batch`)
with their interpreted implementations as ``*_reference`` oracles
(``tests/oracles/``):

* :func:`repro.compact.drc.check_layout` — all-slab run vectors and
  keyed ``searchsorted`` inter-layer gap probes, against the
  reference's per-slab full rescan and per-pair run loop;
* :func:`repro.layout.database.merge_boxes` — all-slab merged runs and
  one coalescing lexsort, against the per-slab rescan of every box;
* :func:`repro.route.extract.wire_components` — per-event-line
  segmented scans, against the per-item active-list rebuild and pair
  loop.

Each comparison asserts output equality, records machine-readable rows
into ``BENCH_compaction.json`` via the ``record`` fixture, and the DRC
pass carries the CI scaling guard: doubling the box count must grow
runtime sub-quadratically (< 3x).  Set ``REPRO_BENCH_SMOKE=1`` for the
small sizes (speedup assertions are skipped there; the scaling guard
still runs).
"""

import os

from conftest import best_time, compare_kernel, doubling_ratio, sweep_layout_pairs
from oracles.database import merge_boxes_reference
from oracles.drc import check_layout_reference
from oracles.route_extract import wire_components_reference

from repro.compact import TECH_A, check_layout
from repro.geometry import Box
from repro.layout.database import merge_boxes
from repro.route.extract import wire_components
from repro.route.style import RouteStyle

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))


def random_layers(n, seed=11):
    """The shared randomized layout, grouped per layer for the checkers."""
    layers = {}
    for layer, box in sweep_layout_pairs(n, seed):
        layers.setdefault(layer, []).append(box)
    return layers


def trunk_layers(n):
    """n long horizontal trunks that never expire from the x sweep —
    the worst case for the extractor's per-item active-list rebuild."""
    return {"metal1": [Box(0, 8 * i, 40 * n, 8 * i + 4) for i in range(n)]}


def _impl_drc(report, record):
    n = 400 if SMOKE else 2000
    layers = random_layers(n)
    assert sorted(map(str, check_layout(layers, TECH_A))) == sorted(
        map(str, check_layout_reference(layers, TECH_A))
    )
    compare_kernel(
        report,
        record,
        "drc",
        n,
        lambda: check_layout(layers, TECH_A),
        lambda: check_layout_reference(layers, TECH_A),
        min_ratio=5.0,
        smoke=SMOKE,
    )


def test_drc(benchmark, report, record):
    benchmark.pedantic(lambda: _impl_drc(report, record), rounds=1, iterations=1)


def _impl_drc_scaling_guard(report, record):
    # CI guard: doubling the box count must stay sub-quadratic (< 3x).
    def measure(n):
        layers = random_layers(n)
        return best_time(lambda: check_layout(layers, TECH_A), repeats=5)

    ratio, t_small, t_large = doubling_ratio(measure, 600, 1200, limit=3.0)
    record("drc", 600, t_small)
    record("drc", 1200, t_large)
    report(
        f"E-SWEEP DRC scaling guard (600 -> 1200 boxes): {ratio:.2f}x"
        " (must be < 3)"
    )
    assert ratio < 3.0, f"DRC grew {ratio:.2f}x on doubling"


def test_drc_scaling_guard(benchmark, report, record):
    benchmark.pedantic(
        lambda: _impl_drc_scaling_guard(report, record), rounds=1, iterations=1
    )


def _impl_merge(report, record):
    n = 400 if SMOKE else 2000
    boxes = [box for layer in random_layers(n).values() for box in layer]
    assert merge_boxes(boxes) == merge_boxes_reference(boxes)
    compare_kernel(
        report,
        record,
        "merge",
        n,
        lambda: merge_boxes(boxes),
        lambda: merge_boxes_reference(boxes),
        min_ratio=5.0,
        smoke=SMOKE,
    )


def test_merge(benchmark, report, record):
    benchmark.pedantic(lambda: _impl_merge(report, record), rounds=1, iterations=1)


def _impl_extract(report, record):
    n = 300 if SMOKE else 1500
    layers = trunk_layers(n)
    style = RouteStyle()
    assert wire_components(layers, style) == wire_components_reference(layers, style)
    # No minimum ratio: a trajectory row only.
    compare_kernel(
        report,
        record,
        "extract",
        n,
        lambda: wire_components(layers, style),
        lambda: wire_components_reference(layers, style),
    )


def test_extract(benchmark, report, record):
    benchmark.pedantic(lambda: _impl_extract(report, record), rounds=1, iterations=1)
