"""E-FLOW — the user's flow as a scaling ladder.

Two rungs of a per-stage ladder over the flows a user runs.

The multiplier rung:
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
16 -> 32 in ``make bench``.  Every job also asserts that no
``compact.align`` span sits under its ``job.compact``: the plain passes
of the flow compute no alignment pairs.  Rows ``flow_mult_xy_<stage>`` (n = the
multiplier size), best of three jobs per size, plus an unguarded
``flow_mult_xy_gc`` row: the collector seconds the ``job.*`` spans
stamped (``gc_s``) in the fastest job.

The PLA-verify rung: the ``pla-verify`` flow — a PLA through the design
language, exhaustive ``verify_cell(mode="all")`` and ``cif_text`` — in
process, traced, at 8, 16 and 32 product terms (6 inputs, 4 outputs):

* ``job.generate`` — the design-language evaluation (a stage span this
  bench opens around ``generate_pla_via_language``);
* ``extract.flatten`` — masks and ports out of the hierarchy;
* ``verify.extract`` — the whole mask extraction;
* ``job.emit`` — the CIF text (a stage span this bench opens).

Guard: each stage grows at most 3x per doubling of the terms; the
8 -> 16 step runs in ``make bench-smoke``, 16 -> 32 in ``make bench``.
Rows ``flow_pla_verify_<stage>`` (n = the term count), best of three
jobs per size.

Two informational rows time what a user waits for outside the job, in
fresh interpreters (no guard):

* ``flow_mult_xy_process`` — the wall time of a fresh ``python -m repro
  <par> --compact xy --timings`` process at 8x8, 16x16 and 32x32, beside
  ``flow_mult_xy_process_run``, that run's ``repro.run`` span.  The gap
  is interpreter start plus teardown; best of three processes per size.
* ``flow_cold_start`` — a fresh ``import repro.cli`` plus both sample
  library loads (flowbench's cold start), beside ``flow_cold_start_numpy``,
  a fresh ``import numpy``: the floor no CLI that generates can go under.
  Best of five interpreters each, n = 1.
"""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

from bench_verify import plane_table

from repro.layout.cif import cif_text
from repro.obs import trace as obs_trace
from repro.multiplier import DESIGN_FILE, MULTIPLIER_SAMPLE, PARAMETER_FILE
from repro.pla import generate_pla_via_language
from repro.service.jobs import JobSpec, execute_job
from repro.verify import verify_cell

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
SIZES = [8, 16] if SMOKE else [8, 16, 32]
STEP_LIMIT = 5.0
PLA_TERMS = [8, 16] if SMOKE else [8, 16, 32]
PLA_STEP_LIMIT = 3.0
#: span name -> row suffix of the PLA-verify rung
PLA_STAGES = {
    "job.generate": "generate",
    "extract.flatten": "flatten",
    "verify.extract": "extract",
    "job.emit": "emit",
}
#: span name -> row suffix
STAGES = {
    "job.generate": "generate",
    "compact.flatten": "flatten",
    "job.compact": "compact",
    "job.emit": "emit",
}


def traced_job(size):
    """Stage seconds of one job (summed per span name) and its gc_s.

    Asserts that no ``compact.align`` span sits under ``job.compact``:
    a plain pass finds no alignment pairs, since nothing reads its jog.
    """
    tracer = obs_trace.Tracer()
    with obs_trace.activated(tracer):
        execute_job(JobSpec(
            kind="multiplier", compact="xy", parameters=f"xsize={size}\nysize={size}"
        ))
    spans = tracer.finished()
    (stage,) = [span for span in spans if span.name == "job.compact"]
    inside, frontier = [], [stage.span_id]
    while frontier:
        parent = frontier.pop()
        children = [span for span in spans if span.parent_id == parent]
        inside += [span.name for span in children]
        frontier += [span.span_id for span in children]
    assert "solver.solve" in inside and "compact.align" not in inside, inside
    seconds = dict.fromkeys(STAGES, 0.0)
    collector = 0.0
    for span in spans:
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


def traced_pla_job(terms):
    """Stage seconds of one PLA-verify job, summed per span name."""
    table = plane_table(6, terms, 4)
    tracer = obs_trace.Tracer()
    with obs_trace.activated(tracer):
        with obs_trace.stage_span("job.generate"):
            cell, _ = generate_pla_via_language(table)
        assert verify_cell(cell, mode="all", table=table).ok
        with obs_trace.stage_span("job.emit"):
            cif_text(cell)
    seconds = dict.fromkeys(PLA_STAGES, 0.0)
    for span in tracer.finished():
        if span.name in seconds:
            seconds[span.name] += span.duration_s
    return seconds


def best_pla_stages(terms, repeats=3):
    """Per stage, the best of ``repeats`` PLA-verify jobs."""
    runs = [traced_pla_job(terms) for _ in range(repeats)]
    return {name: min(run[name] for run in runs) for name in PLA_STAGES}


def test_flow_pla_verify_ladder(report, record):
    """Each stage of the PLA-verify flow grows <= 3x per term doubling."""
    traced_pla_job(PLA_TERMS[0])  # compile the design text and import the flow
    for attempt in range(3):
        measured = {terms: best_pla_stages(terms) for terms in PLA_TERMS}
        ratios = {
            (small, large, name): measured[large][name] / measured[small][name]
            for small, large in zip(PLA_TERMS, PLA_TERMS[1:])
            for name in PLA_STAGES
        }
        if max(ratios.values()) <= PLA_STEP_LIMIT:
            break
    rows = []
    for terms, seconds in measured.items():
        for name, suffix in PLA_STAGES.items():
            record(f"flow_pla_verify_{suffix}", terms, seconds[name])
        rows.append(f"  {terms:>2} terms " + "  ".join(
            f"{name} {seconds[name] * 1000:7.2f} ms" for name in PLA_STAGES
        ))
    for (small, large, name), ratio in sorted(ratios.items()):
        rows.append(
            f"  {name:<16} {small} -> {large} terms: {ratio:.2f}x"
            f" (limit {PLA_STEP_LIMIT}x)"
        )
    report("E-FLOW: PLA generate -> verify -> emit, per-stage scaling ladder", *rows)
    broken = {key: ratio for key, ratio in ratios.items() if ratio > PLA_STEP_LIMIT}
    assert not broken, f"stages grew over {PLA_STEP_LIMIT}x per term doubling: {broken}"


SRC = str(Path(__file__).resolve().parent.parent / "src")
COLD_START = """
import json, time
t0 = time.perf_counter()
import repro.cli
from repro.multiplier import load_multiplier_library
from repro.pla import load_pla_library
load_multiplier_library()
load_pla_library()
print(json.dumps(time.perf_counter() - t0))
"""
COLD_NUMPY = """
import json, time
t0 = time.perf_counter()
import numpy
print(json.dumps(time.perf_counter() - t0))
"""


def _python(*argv):
    """Run a fresh interpreter on ``src/``; (wall seconds, stdout)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, check=True, env=env,
    )
    return time.perf_counter() - start, done.stdout


def test_flow_mult_xy_process(tmp_path, report, record):
    """A fresh ``repro`` process at each size, beside its ``repro.run``."""
    (tmp_path / "mult.sample").write_text(MULTIPLIER_SAMPLE)
    (tmp_path / "mult.design").write_text(DESIGN_FILE)
    parameters = tmp_path / "mult.par"
    parameters.write_text(
        f".example_file:{tmp_path / 'mult.sample'}\n"
        f".concept_file:{tmp_path / 'mult.design'}\n"
        f".output_file:{tmp_path / 'mult.cif'}\n"
        ".output_cell:thewholething\n" + PARAMETER_FILE
    )
    rows = []
    for size in SIZES:
        runs = []
        for _ in range(3):
            wall, out = _python(
                "-m", "repro", str(parameters), "--set", f"xsize={size}",
                "--set", f"ysize={size}", "--compact", "xy", "--timings",
            )
            run_ms = float(re.search(r"^  repro\.run  ([\d.]+) ms", out, re.M).group(1))
            runs.append((wall, run_ms / 1000.0))
        wall, run = min(runs)
        record("flow_mult_xy_process", size, wall)
        record("flow_mult_xy_process_run", size, run)
        rows.append(
            f"  {size:>2}x{size:<2} process {wall * 1000:7.1f} ms"
            f"  repro.run {run * 1000:7.1f} ms  ({wall / run:.2f}x)"
        )
    report("E-FLOW: a fresh repro --compact xy process, beside its repro.run", *rows)


def test_flow_cold_start(report, record):
    """The CLI's cold start, beside a bare numpy import."""
    cold = min(float(_python("-c", COLD_START)[1]) for _ in range(5))
    floor = min(float(_python("-c", COLD_NUMPY)[1]) for _ in range(5))
    record("flow_cold_start", 1, cold)
    record("flow_cold_start_numpy", 1, floor)
    report(
        "E-FLOW: cold start (import repro.cli + both sample libraries)",
        f"  cold start {cold * 1000:7.1f} ms  import numpy {floor * 1000:7.1f} ms"
        f"  ({cold / floor:.2f}x)",
    )
