"""E-HIER — compact-once / stamp-many: the hierarchical pipeline.

Two workloads on tiled arrays of randomized leaf cells, with the CI
guards the acceptance criteria name:

* **cached re-generation** — regenerate-and-compact an 8x8 tiled array
  against a warm :class:`~repro.compact.CompactionCache` versus the
  uncached path; the warm path must be >= 5x faster (full sizes only).
  Rows ``hier_cached`` / ``hier_uncached``.
* **flatten scaling guard** — the stamp-flatten must be O(instances):
  doubling the instance count of a fresh (cold-memo) array must grow
  the flatten time < 3x.  Runs in smoke mode too.  Rows ``flatten`` /
  ``flatten_reference`` additionally compare the memoized stamp-flatten
  against the recursive walker of ``tests/oracles/cell.py`` —
  informational only: the root is deliberately streamed rather than
  memoized (memory over repeat speed), so the advantage is the
  constant-factor difference between translating child memos and
  recursive transform composition.

Timing rows land in ``BENCH_compaction.json`` via the ``record``
fixture.  Set ``REPRO_BENCH_SMOKE=1`` for the small sizes (the 5x
speedup assertion is skipped there; the scaling guard still runs).
"""

import os
import random
from collections import Counter

from conftest import best_time, doubling_ratio
from oracles.cell import flatten_reference

from repro.compact import TECH_A, CompactionCache, HierarchicalCompactor
from repro.core.cell import CellDefinition
from repro.geometry import Vec2, NORTH

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))


def random_leaf(name, seed, boxes):
    rng = random.Random(seed)
    cell = CellDefinition(name)
    for _ in range(boxes):
        x = rng.randrange(0, 10 * boxes, 2)
        y = rng.randrange(0, 80, 2)
        cell.add_box(
            rng.choice(["diff", "poly", "metal1"]),
            x, y, x + rng.randrange(2, 8), y + rng.randrange(2, 8),
        )
    return cell


def tiled_array(n, distinct=4, boxes=40, pitch=None):
    """An n x n array stamped from ``distinct`` randomized leaves."""
    leaves = [random_leaf(f"leaf{k}", k + 1, boxes) for k in range(distinct)]
    pitch = pitch or (10 * boxes + 20)
    top = CellDefinition(f"tile{n}")
    for i in range(n):
        for j in range(n):
            top.add_instance(leaves[(i + j) % distinct], Vec2(i * pitch, j * 90), NORTH)
    return top


def _impl_cached_regeneration(report, record):
    # Smoke runs a smaller array under a *different* n so its timing
    # row does not overwrite the committed full-size row (rows merge by
    # (bench, n)); the >= 5x guard applies to the full 8x8 size only.
    n = 4 if SMOKE else 8
    boxes = 40 if SMOKE else 150
    cache = CompactionCache()

    def regenerate(with_cache):
        array = tiled_array(n, boxes=boxes)
        compactor = HierarchicalCompactor(
            TECH_A, axes="xy", cache=cache if with_cache else None
        )
        return compactor.compact(array)

    oracle = regenerate(False)
    warmup = regenerate(True)  # populate the cache once
    assert Counter(oracle.flatten()) == Counter(warmup.flatten())

    uncached_s = best_time(lambda: regenerate(False))
    cached_s = best_time(lambda: regenerate(True))
    record("hier_uncached", n * n, uncached_s)
    record("hier_cached", n * n, cached_s)
    ratio = uncached_s / cached_s
    report(
        f"E-HIER cached re-generation, {n}x{n} array of {boxes}-box leaves:"
        f" uncached {uncached_s * 1000:8.1f} ms,"
        f" cached {cached_s * 1000:8.1f} ms  ({ratio:.1f}x)"
    )
    if not SMOKE:
        assert ratio >= 5.0, (
            f"cached re-generation only {ratio:.1f}x over uncached"
        )


def test_cached_regeneration(benchmark, report, record):
    benchmark.pedantic(
        lambda: _impl_cached_regeneration(report, record), rounds=1, iterations=1
    )


def _impl_flatten_memo_vs_reference(report, record):
    n = 16 if SMOKE else 32
    array = tiled_array(n, boxes=20, pitch=240)
    list(array.flatten())  # warm the memos: the steady pipeline state

    def run_memo():
        return sum(1 for _ in array.flatten())

    def run_reference():
        return sum(1 for _ in flatten_reference(array))

    assert list(array.flatten()) == list(flatten_reference(array))
    memo_s = best_time(run_memo)
    reference_s = best_time(run_reference)
    record("flatten", n * n, memo_s)
    record("flatten_reference", n * n, reference_s)
    ratio = reference_s / memo_s
    report(
        f"E-HIER flatten, memo vs reference: {n * n:>5} instances:"
        f" memo {memo_s * 1000:8.1f} ms,"
        f" reference {reference_s * 1000:8.1f} ms  ({ratio:.1f}x)"
    )
    # Informational row, no ratio guard: with the memos warm the memo
    # side only decodes the root's columns into boxes, so the gap is
    # decode-vs-compose.  The enforced flatten property is the scaling
    # guard below.
    assert ratio > 0


def test_flatten_memo_vs_reference(benchmark, report, record):
    benchmark.pedantic(
        lambda: _impl_flatten_memo_vs_reference(report, record),
        rounds=1,
        iterations=1,
    )


def _impl_flatten_scaling_guard(report, record):
    # CI guard (runs in smoke too): doubling the instance count of a
    # *fresh* array — cold memo, so the measured cost includes the
    # per-definition transform work plus the per-instance stamping —
    # must grow flatten time < 3x.  A regression to per-instance
    # recursive transform composition on a deepening hierarchy, or
    # anything superlinear in instances, trips it.
    def measure(n):
        def run():
            array = tiled_array(n, boxes=10, pitch=130)
            return sum(1 for _ in array.flatten())

        return best_time(run, repeats=5)

    small, large = (12, 17) if SMOKE else (24, 34)  # 2x instance count
    ratio, t_small, t_large = doubling_ratio(measure, small, large, limit=3.0)
    record("flatten_cold", small * small, t_small)
    record("flatten_cold", large * large, t_large)
    report(
        f"E-HIER flatten scaling guard ({small * small} -> {large * large}"
        f" instances): {ratio:.2f}x (must be < 3)"
    )
    assert ratio < 3.0, f"flatten grew {ratio:.2f}x on doubling instances"


def test_flatten_scaling_guard(benchmark, report, record):
    benchmark.pedantic(
        lambda: _impl_flatten_scaling_guard(report, record), rounds=1, iterations=1
    )
