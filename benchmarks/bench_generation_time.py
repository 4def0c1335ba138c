"""E-T1 — section 4.5: "A 32x32 Baugh-Wooley multiplier ... is generated
in 5 seconds on a DEC-2060."

We reproduce the scaling shape: generation time versus multiplier size.
Absolute numbers differ (Python on modern hardware vs CLU on a DEC-20);
the claim that survives is near-linear growth in cell count and an
interactive-scale 32x32 time.

``test_generation_scaling`` times the Python API (``generate_multiplier``).
``test_language_generation_scaling_guard`` times the design-language path
users run (``generate_via_language``: the Appendix B design file, compiled
once per process, then evaluated) and records it as the ``generate_mult``
rows; each size step (4x cells) may grow it at most 5x, and the 8 -> 16
step runs in ``make bench-smoke``.

``test_language_over_api`` tracks the interpreter's own cost: the
``generate_mult_lang_over_api`` row is ``generate_via_language`` over
``generate_multiplier`` (both load the sample library and expand the
same graphs), best of five each, at 8, 16 and 32.  The row holds a
ratio, not seconds, and no bound.
"""

import os

import pytest
from conftest import best_time, doubling_ratio

from repro.multiplier import (
    generate_multiplier,
    generate_via_language,
    load_multiplier_library,
)

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
SIZES = [8] if SMOKE else [8, 16, 32, 64]
#: design-language generation sizes (4x cells a step) and the step bound
LANGUAGE_SIZES = [8, 16] if SMOKE else [8, 16, 32]
LANGUAGE_STEP_LIMIT = 5.0
#: sizes of the unguarded language-over-API ratio row
RATIO_SIZES = [8] if SMOKE else [8, 16, 32]


@pytest.mark.parametrize("size", SIZES)
def test_generation_scaling(benchmark, size, report):
    def run():
        return generate_multiplier(size, size)

    top = benchmark(run)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        stats = benchmark.stats.stats
        report(
            f"E-T1 {size}x{size}: mean {stats.mean * 1e3:.1f} ms"
            f" ({size * (size + 1)} basic cells)"
            + ("   [paper: 5 s on a DEC-2060]" if size == 32 else "")
        )
    assert top.name == "thewholething"


def test_library_load(benchmark):
    """Reading the sample layout (phase 1 of the paper's three phases)."""
    benchmark(load_multiplier_library)


def test_language_generation_scaling_guard(report, record):
    """Each size step (4x cells) may grow ``generate_via_language`` <= 5x."""

    def measure(n):
        return best_time(lambda: generate_via_language(n, n))

    rows = []
    seconds = {}
    for small, large in zip(LANGUAGE_SIZES, LANGUAGE_SIZES[1:]):
        ratio, seconds[small], seconds[large] = doubling_ratio(
            measure, small, large, LANGUAGE_STEP_LIMIT
        )
        rows.append(
            f"  {small}x{small} -> {large}x{large}: {seconds[small] * 1000:.1f} ms ->"
            f" {seconds[large] * 1000:.1f} ms ({ratio:.2f}x, limit"
            f" {LANGUAGE_STEP_LIMIT}x)"
        )
        assert ratio <= LANGUAGE_STEP_LIMIT, (
            f"generate_via_language grew {ratio:.2f}x from {small}x{small}"
            f" to {large}x{large}"
        )
    for n, value in seconds.items():
        record("generate_mult", n, value)
    report("E-T1: design-language generation scaling guard", *rows)


def test_language_over_api(report, record):
    """Design-language generation time over Python-API generation time."""
    rows = []
    for n in RATIO_SIZES:
        language = best_time(lambda: generate_via_language(n, n), repeats=5)
        api = best_time(lambda: generate_multiplier(n, n), repeats=5)
        record("generate_mult_lang_over_api", n, language / api)
        rows.append(
            f"  {n}x{n}: language {language * 1000:.1f} ms, API"
            f" {api * 1000:.1f} ms ({language / api:.2f}x)"
        )
    report("E-T1: the interpreter's own cost (language over API)", *rows)
