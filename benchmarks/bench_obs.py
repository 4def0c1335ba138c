"""E-OBS — the flight recorder must be free when it is off.

The tracing seams of :mod:`repro.obs` wrap hot passes (the solver,
extraction, every pipeline stage), so the disabled path has to collapse
to a single module-global read.  Two guards:

* disabled overhead — :func:`repro.compact.drc.check_layout` inside the
  seam the pipeline puts around a pass (``span`` plus ``set`` of a
  result attribute) versus the bare call, on the same randomized
  layout with no active tracer.  The instrumented path must stay within
  5% of the bare one; measured best-of with a retry loop so one
  scheduler stall on a shared CI runner cannot fail the build.
* enabled throughput — spans opened/closed per second under an active
  tracer, recorded for the trajectory (no assertion: the enabled path
  is allowed to cost, it just has to be visible when it drifts).

Timing rows land in ``BENCH_compaction.json`` via the ``record``
fixture.  ``REPRO_BENCH_SMOKE=1`` trims the layout size; both guards
still run.
"""

import os
import time

from conftest import best_time, sweep_layout_pairs

from repro.compact import TECH_A, check_layout
from repro.obs import trace as obs_trace

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
N = 300 if SMOKE else 1500
ATTEMPTS = 5
OVERHEAD_LIMIT = 1.05
SPAN_COUNT = 2_000 if SMOKE else 20_000


def _layers(n):
    layers = {}
    for layer, box in sweep_layout_pairs(n):
        layers.setdefault(layer, []).append(box)
    return layers


def _instrumented_check(layers):
    """``check_layout`` inside the pipeline's seam around a pass."""
    with obs_trace.span("drc.check") as check_span:
        violations = check_layout(layers, TECH_A)
        check_span.set(violations=len(violations))
    return violations


def test_disabled_tracing_overhead(report, record):
    assert obs_trace.active() is None, "benchmark needs tracing disabled"
    layers = _layers(N)
    best = None
    for _ in range(ATTEMPTS):
        instrumented_s = best_time(lambda: _instrumented_check(layers))
        bare_s = best_time(lambda: check_layout(layers, TECH_A))
        ratio = instrumented_s / bare_s
        if best is None or ratio < best[0]:
            best = (ratio, instrumented_s, bare_s)
        if best[0] <= OVERHEAD_LIMIT:
            break
    ratio, instrumented_s, bare_s = best
    record("obs_drc_instrumented", N, instrumented_s)
    record("obs_drc_bare", N, bare_s)
    report(
        f"E-OBS disabled-tracing overhead: {N:>5} boxes:"
        f" instrumented {instrumented_s * 1000:8.2f} ms,"
        f" bare {bare_s * 1000:8.2f} ms  ({(ratio - 1) * 100:+.1f}%)"
    )
    assert ratio <= OVERHEAD_LIMIT, (
        f"disabled tracing costs {(ratio - 1) * 100:.1f}% on check_layout"
        f" (budget {(OVERHEAD_LIMIT - 1) * 100:.0f}%)"
    )


def test_enabled_span_throughput(report, record):
    tracer = obs_trace.Tracer()
    with obs_trace.activated(tracer):
        start = time.perf_counter()
        for index in range(SPAN_COUNT):
            with obs_trace.span("bench.span", index=index):
                pass
        elapsed = time.perf_counter() - start
    assert len(tracer.finished()) == SPAN_COUNT
    rate = SPAN_COUNT / elapsed
    record("obs_span_throughput", SPAN_COUNT, elapsed)
    report(
        f"E-OBS enabled span throughput: {SPAN_COUNT} spans in"
        f" {elapsed * 1000:8.1f} ms  ({rate / 1000:.0f}k spans/s)"
    )
