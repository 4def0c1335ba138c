"""E-5.1 — Figure 5.1: the combinational Baugh-Wooley multiplier.

The paper's correctness artifact is the array structure itself (adder
schematic in Appendix D).  We regenerate it: exhaustive verification for
small widths, random for 8x8/12x12, and the evaluation throughput.

Two guarded rows time the packed functional check that
``verify_multiplier`` runs (every operand pair in one lane-parallel
netlist evaluation, :func:`repro.verify.driver.multiplier_mismatches`)
and land in ``BENCH_compaction.json`` through the ``record`` fixture:

* ``mult_check_exhaustive_8x8`` — all 65 536 pairs of an 8x8 array,
  guarded under 1 s, in smoke mode too;
* ``mult_check_4096`` — the 4 096 seeded pairs ``verify_multiplier``
  samples at 8x8, guarded at least 20x faster than checking them one
  pair at a time (``mult_check_4096_loop``).  ``REPRO_BENCH_SMOKE=1``
  trims it to 256 pairs and skips the ratio guard.
"""

import os
import random
import time

import pytest
from conftest import best_time

from repro.multiplier import build_baugh_wooley, multiply, reference_product
from repro.verify import sample_words
from repro.verify.driver import multiplier_mismatches

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))


@pytest.mark.parametrize("m,n", [(4, 4), (6, 6)])
def test_exhaustive_verification(benchmark, m, n, report):
    net = build_baugh_wooley(m, n)

    def run():
        errors = 0
        for a in range(-(1 << (m - 1)), 1 << (m - 1)):
            for b in range(-(1 << (n - 1)), 1 << (n - 1)):
                if multiply(net, a, b, m, n) != reference_product(a, b, m, n):
                    errors += 1
        return errors

    errors = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        f"E-5.1 {m}x{n}: exhaustive {1 << (m + n)} products, {errors} errors"
    )
    assert errors == 0


def test_random_16x16(benchmark, report):
    net = build_baugh_wooley(16, 16)
    rng = random.Random(7)
    pairs = [
        (rng.randrange(-32768, 32768), rng.randrange(-32768, 32768))
        for _ in range(64)
    ]

    def run():
        errors = 0
        for a, b in pairs:
            if multiply(net, a, b, 16, 16) != reference_product(a, b, 16, 16):
                errors += 1
        return errors

    errors = benchmark(run)
    report(f"E-5.1 16x16: {len(pairs)} random products per round, {errors} errors")
    assert errors == 0


def test_evaluation_cost_scaling(benchmark, report):
    """One product evaluation on a 32x32 array: the cell count grows
    quadratically; evaluation is linear in cells."""
    net = build_baugh_wooley(32, 32)

    def run():
        return multiply(net, -2_000_000_000 % (1 << 31) - (1 << 30), 123456789, 32, 32)

    benchmark(run)
    report(f"E-5.1 32x32 array: {len(net.cells)} cells per evaluation")


def _loop_mismatches(net, a_values, b_values, m, n):
    """The one-pair-at-a-time check the packed evaluation replaces."""
    failures = []
    for a, b in zip(a_values, b_values):
        got, want = multiply(net, a, b, m, n), reference_product(a, b, m, n)
        if got != want:
            failures.append(f"{a} x {b}: got {got}, want {want}")
    return failures


def test_mult_check_exhaustive_8x8(report, record):
    net = build_baugh_wooley(8, 8)
    a_values = [k >> 8 for k in range(1 << 16)]
    b_values = [k & 0xFF for k in range(1 << 16)]
    assert multiplier_mismatches(net, a_values, b_values, 8, 8) == []
    seconds = best_time(lambda: multiplier_mismatches(net, a_values, b_values, 8, 8))
    record("mult_check_exhaustive_8x8", 1 << 16, seconds)
    report(
        f"E-5.1 8x8 exhaustive packed check: {1 << 16} pairs in"
        f" {seconds * 1000:.1f} ms (guard < 1 s)"
    )
    assert seconds < 1.0


def test_mult_check_4096(report, record):
    count = 256 if SMOKE else 4096
    net = build_baugh_wooley(8, 8)
    words = sample_words(16, count, seed=1 << 16)  # verify_multiplier's sample
    a_values = [word & 0xFF for word in words]
    b_values = [word >> 8 for word in words]
    start = time.perf_counter()
    loop = _loop_mismatches(net, a_values, b_values, 8, 8)
    loop_s = time.perf_counter() - start
    assert multiplier_mismatches(net, a_values, b_values, 8, 8) == loop == []
    packed_s = best_time(lambda: multiplier_mismatches(net, a_values, b_values, 8, 8))
    record("mult_check_4096", count, packed_s)
    record("mult_check_4096_loop", count, loop_s)
    ratio = loop_s / packed_s
    report(
        f"E-5.1 8x8 check of {count} sampled pairs: packed"
        f" {packed_s * 1000:.1f} ms, one pair at a time {loop_s * 1000:.1f} ms"
        f" ({ratio:.0f}x)"
    )
    if not SMOKE:
        assert ratio >= 20, f"packed check only {ratio:.1f}x over the loop"
