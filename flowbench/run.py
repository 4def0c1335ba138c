"""Flow benchmark: generate -> compact -> verify -> emit, end to end.

Usage, from the repository root::

    python3 flowbench/run.py --workload mult-compact --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload's job list untraced and prints the
end-to-end metrics.  ``--trace 1`` runs a list half as long twice, first
untraced and then with every layer's public functions wrapped
(``tracing.py``), and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it stamps the run with its
provenance; the spans and per-job records go to
``.flowbench/out/<workload>-seed<seed>-trace<t>.json``.

The program is imported from ``src/`` of the same checkout.  Without
it the benchmark prints nothing on standard output and exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".flowbench"

#: a seed kept out of tuning, for confirming later claims
HELD_OUT_SEED = 7919
#: stop starting jobs this long after start, so a run ends within 180 s
JOB_BUDGET_S = 100.0

END_TO_END = {
    "job_s_p50": "s", "job_s_tail": "s", "jobs_per_s": "1/s",
    "boxes_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}
PER_LAYER = [
    "lang.generate_s",
    "layout.flatten_s", "layout.flatten_calls", "layout.cif_s",
    "compact.cell_s", "compact.edges_s", "compact.width_s",
    "compact.constraints_s", "compact.solve_s", "compact.align_s",
    "compact.rubberband_s", "compact.rebuild_s", "compact.unattributed_s",
    "compact.constraints", "compact.solve_relaxations", "compact.align_pairs",
    "compact.area_ratio", "compact.hier_s",
    "verify.cell_s", "verify.extract_s", "verify.devices", "verify.lvs_s",
    "verify.lvs_rounds", "verify.cellgraph_s", "verify.sim_s",
    "verify.sim_calls", "verify.unattributed_s",
    "multiplier.evaluate_s", "multiplier.evaluate_calls",
    "service.submit_s", "service.wait_s", "service.polls", "service.result_s",
    "service.exec_s", "service.queue_s", "service.dedup_ratio",
    "service.cache_hit_ratio",
    "setup.import_s", "setup.scipy_s",
    "job.unattributed_s", "obs.trace_overhead_ratio",
]

#: cold start: import the CLI entry module, load both sample libraries
COLD_START = """\
import json, time
t0 = time.perf_counter()
import repro.cli
t1 = time.perf_counter()
from repro.multiplier import load_multiplier_library
from repro.pla import load_pla_library
load_multiplier_library()
load_pla_library()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))
"""
COLD_SCIPY = """\
import json, time
t0 = time.perf_counter()
import scipy.optimize
print(json.dumps({"scipy_s": time.perf_counter() - t0}))
"""


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    return "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count"


def cold_starts(code: str, count: int) -> List[Dict[str, float]]:
    """Run ``code`` in ``count`` fresh interpreters; their JSON lines.

    Each interpreter runs on the CPU the host speed probes around it ran
    on, and the seconds it reports are scaled to the reference speed.
    """
    import speed

    environment = dict(os.environ, PYTHONPATH=str(SRC))
    results = []
    with speed.pinned():
        before = speed.probe()
        for _ in range(count):
            done = subprocess.run(
                [sys.executable, "-c", code], cwd=ROOT, env=environment,
                capture_output=True, text=True, timeout=60, check=True,
            )
            after = speed.probe()
            factor = speed.scale(before, after)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            results.append({key: value * factor for key, value in result.items()})
            before = after
    return results


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its finished children (workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def tail(times: List[float]) -> Tuple[float, float]:
    """(value, percentile): the highest percentile with ten jobs beyond it.

    Never below the median: with fewer than 21 jobs no percentile at or
    above the median has ten jobs beyond it, and the median is reported.
    """
    ordered = sorted(times)
    count = len(ordered)
    if count < 21:
        return statistics.median(ordered), 50.0
    return ordered[count - 11], 100.0 * (count - 10) / count


def source_digest() -> str:
    """sha256 over the program's source files (path and content)."""
    hasher = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        hasher.update(str(path.relative_to(SRC)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def provenance(workload: str, seed: int, jobs: List[Dict[str, Any]],
               source: str) -> Dict[str, Any]:
    import numpy
    import scipy
    from repro.geometry.batch import kernel_name
    from workloads import digest

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        )
        commit = done.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "commit": commit,
        "source_sha256": source,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "kernel": kernel_name(),
        "jobs": len(jobs),
        "job_list_sha256": digest(jobs),
    }


def end_to_end(phase, setup_s: float, rss_mb: float, failed: int,
               attempted: int) -> Tuple[Dict[str, float], Dict[str, Any]]:
    times = [record.scaled for record in phase.records]
    completed = [record for record in phase.records if record.error is None]
    tail_s, percentile = tail(times)
    metrics = {
        "job_s_p50": statistics.median(times),
        "job_s_tail": tail_s,
        "jobs_per_s": len(completed) / phase.wall_s,
        "boxes_per_s": sum(r.boxes for r in phase.records) / sum(times),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "pass_ratio": (attempted - failed) / attempted,
    }
    return metrics, {
        "tail_percentile": percentile, "tail_jobs": len(times),
        "rounds": len({r.job["round"] for r in phase.records}),
        "raw_job_s_p50": statistics.median(r.seconds for r in phase.records),
        "scale_p50": statistics.median(r.scale for r in phase.records),
    }


def per_layer(recorder, plain, traced, workload, setup: Dict[str, float]) -> Dict[str, float]:
    totals = recorder.totals()
    residual = recorder.unattributed()
    metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for name, seconds in totals.items():
        if name + "_s" in metrics:
            metrics[name + "_s"] = seconds
    for name in ("layout.flatten", "verify.sim", "multiplier.evaluate"):
        metrics[name + "_calls"] = recorder.calls[name]
    metrics.update(recorder.counts)
    metrics["service.polls"] = recorder.calls["service.result"]
    metrics["compact.unattributed_s"] = residual.get("compact.cell", 0.0)
    metrics["verify.unattributed_s"] = residual.get("verify.cell", 0.0)
    metrics["job.unattributed_s"] = residual.get("job", 0.0)
    if workload.area_in:
        metrics["compact.area_ratio"] = workload.area_out / workload.area_in
    if traced.stats:
        # Worker processes are out of the wrappers' reach: their layers
        # come from the stage timings each executed job reports.
        executed = [
            record.output[1]["timings"] for record in traced.records
            if not record.failed and not record.output[0]["deduplicated"]
        ]
        stages = {key: sum(t.get(key, 0.0) for t in executed)
                  for key in ("generate", "compact", "emit")}
        metrics["lang.generate_s"] += stages["generate"]
        metrics["compact.hier_s"] = stages["compact"]
        metrics["layout.cif_s"] += stages["emit"]
        metrics["service.exec_s"] = sum(sum(t.values()) for t in executed)
        metrics["service.queue_s"] = metrics["service.wait_s"] - metrics["service.exec_s"]
        stats = traced.stats
        metrics["service.dedup_ratio"] = 1 - stats["executions"] / stats["submissions"]
        if stats["cache_lookups"]:
            metrics["service.cache_hit_ratio"] = stats["cache_hits"] / stats["cache_lookups"]
    metrics["setup.import_s"] = setup["import_s"]
    metrics["setup.scipy_s"] = setup["scipy_s"]
    metrics["obs.trace_overhead_ratio"] = (
        statistics.median(r.scaled for r in traced.records)
        / statistics.median(r.scaled for r in plain.records)
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"flowbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import Recorder
    from workloads import WORKLOADS, Ledger

    if arguments.workload not in WORKLOADS:
        parser.error(f"unknown workload; choose from {', '.join(WORKLOADS)}")
    (WORK / "out").mkdir(parents=True, exist_ok=True)
    source = source_digest()
    ledger = Ledger(WORK / f"digests-{source[:16]}.json")
    workload = WORKLOADS[arguments.workload](WORK, ledger)
    seconds = arguments.seconds / (2 if arguments.trace else 1)
    jobs = workload.job_list(arguments.seed, seconds)
    stamp = provenance(arguments.workload, arguments.seed, jobs, source)
    deadline = started + JOB_BUDGET_S
    workload.prepare()

    recorder = None
    if arguments.trace:
        plain = workload.run(jobs, started + JOB_BUDGET_S / 2)
        recorder = Recorder()
        recorder.install()
        try:
            phase = workload.run(jobs, deadline, recorder)
        finally:
            recorder.uninstall()
        phases = [plain, phase]
    else:
        phase = workload.run(jobs, deadline)
        phases = [phase]
    rss_mb = peak_rss_mb()
    for each in phases:
        workload.check_all(each)
    ledger.save()

    attempted = sum(len(p.records) + p.skipped for p in phases)
    failed = sum(p.skipped + sum(r.failed for r in p.records) for p in phases)
    if arguments.trace:
        setup = {
            "import_s": statistics.median(r["import_s"] for r in cold_starts(COLD_START, 3)),
            "scipy_s": statistics.median(r["scipy_s"] for r in cold_starts(COLD_SCIPY, 3)),
        }
        metrics = per_layer(recorder, plain, phase, workload, setup)
        stamp["unattributed_s"] = recorder.unattributed()
    else:
        setup_s = statistics.median(r["setup_s"] for r in cold_starts(COLD_START, 5))
        metrics, extra = end_to_end(phase, setup_s, rss_mb, failed, attempted)
        stamp.update(extra)

    report = {
        "provenance": stamp,
        "metrics": metrics,
        "records": [
            {"job": r.job, "seconds": r.seconds, "scale": r.scale, "error": r.error,
             "failures": r.failures, "traced": bool(recorder) and each is phase}
            for each in phases for r in each.records
        ],
        "spans": recorder.records() if recorder else [],
    }
    out = WORK / "out" / f"{arguments.workload}-seed{arguments.seed}-trace{arguments.trace}.json"
    out.write_text(json.dumps(report))
    for record in (r for p in phases for r in p.records if r.failed):
        print(f"FAILED {record.job}: {record.error or record.failures}", file=sys.stderr)
    print(json.dumps({"provenance": stamp}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit(name)} for name in
                    (PER_LAYER if arguments.trace else END_TO_END)},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
