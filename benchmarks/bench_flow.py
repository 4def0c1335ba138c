"""E-FLOW — the user's flow as a scaling ladder.

The first rung of a per-stage ladder over the flow a user runs:
``execute_job(JobSpec(kind="multiplier", compact="xy"))`` (``run_job``
plus the CIF emit), in process, at 8x8, 16x16 and 32x32 — each step
quadruples the cells.  Every stage time is read from the job's own
trace spans, not from wrappers around the program:

* ``job.generate`` — sample load plus the design-language evaluation;
* ``compact.flatten`` — the hierarchy read into columns, once per job;
* ``job.compact`` — the whole two-pass flat chain;
* ``job.emit`` — the CIF text.

Guard: each stage grows at most 5x per size step (the bound
``generate_mult`` uses).  The 8 -> 16 step runs in ``make bench-smoke``,
16 -> 32 in ``make bench``.  Rows ``flow_mult_xy_<stage>`` (n = the
multiplier size), best of three jobs per size, plus an unguarded
``flow_mult_xy_gc`` row: the collector seconds the ``job.*`` spans
stamped (``gc_s``) in the fastest job.
"""

import os

from repro.obs import trace as obs_trace
from repro.service.jobs import JobSpec, execute_job

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
SIZES = [8, 16] if SMOKE else [8, 16, 32]
STEP_LIMIT = 5.0
#: span name -> row suffix
STAGES = {
    "job.generate": "generate",
    "compact.flatten": "flatten",
    "job.compact": "compact",
    "job.emit": "emit",
}


def traced_job(size):
    """Stage seconds of one job (summed per span name) and its gc_s."""
    tracer = obs_trace.Tracer()
    with obs_trace.activated(tracer):
        execute_job(JobSpec(
            kind="multiplier", compact="xy", parameters=f"xsize={size}\nysize={size}"
        ))
    seconds = dict.fromkeys(STAGES, 0.0)
    collector = 0.0
    for span in tracer.finished():
        if span.name in seconds:
            seconds[span.name] += span.duration_s
        if span.name.startswith("job."):
            collector += span.attributes.get("gc_s", 0.0)
    return seconds, collector


def best_stages(size, repeats=3):
    """Per stage, the best of ``repeats`` jobs; gc_s of the fastest job."""
    runs = [traced_job(size) for _ in range(repeats)]
    best = {name: min(run[0][name] for run in runs) for name in STAGES}
    fastest = min(runs, key=lambda run: sum(run[0].values()))
    return best, fastest[1]


def test_flow_mult_xy_ladder(report, record):
    """Each stage of the 2-pass flat flow grows <= 5x per 4x-cell step."""
    traced_job(SIZES[0])  # compile the design text and import the flow
    for attempt in range(3):
        measured = {size: best_stages(size) for size in SIZES}
        ratios = {
            (small, large, name): measured[large][0][name] / measured[small][0][name]
            for small, large in zip(SIZES, SIZES[1:])
            for name in STAGES
        }
        if max(ratios.values()) <= STEP_LIMIT:
            break
    rows = []
    for size, (seconds, collector) in measured.items():
        for name, suffix in STAGES.items():
            record(f"flow_mult_xy_{suffix}", size, seconds[name])
        record("flow_mult_xy_gc", size, collector)
        rows.append(
            f"  {size:>2}x{size:<2} " + "  ".join(
                f"{name} {seconds[name] * 1000:7.1f} ms" for name in STAGES
            ) + f"  (collector {collector * 1000:.1f} ms)"
        )
    for (small, large, name), ratio in sorted(ratios.items()):
        rows.append(
            f"  {name:<16} {small}x{small} -> {large}x{large}: {ratio:.2f}x"
            f" (limit {STEP_LIMIT}x)"
        )
    report("E-FLOW: --compact xy flow, per-stage scaling ladder", *rows)
    broken = {key: ratio for key, ratio in ratios.items() if ratio > STEP_LIMIT}
    assert not broken, f"stages grew over {STEP_LIMIT}x per size step: {broken}"
