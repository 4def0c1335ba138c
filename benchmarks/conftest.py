"""Shared helpers for the experiment benchmarks.

Every benchmark prints the paper-shaped table through ``report`` (which
bypasses pytest's capture) so the rows appear in ``bench_output.txt``,
and records machine-readable timings through ``record``: each call
appends a ``{"bench", "n", "seconds"}`` row stamped with provenance
(the geometry kernel name, the Python version, and a UTC timestamp —
so a trajectory mixing kernels or interpreters across its history is
visible as such instead of reading as a regression), and at session
finish the accumulated rows are merged into ``BENCH_compaction.json``
at the repo root — the seed of the performance trajectory that CI uploads per run
(see the "Performance" section of ``docs/architecture.md``).  Rows are
merged by ``(bench, n)`` so a partial or smoke-size session updates its
own measurements without dropping the rest of the trajectory.

``best_time`` and ``sweep_layout_pairs`` are the timing discipline and
the randomized-layout regime shared by the geometry-pass benchmarks
(``bench_scanline.py``, ``bench_sweep.py``).

The oracles the benchmarks time the program against live with the
tests (``tests/oracles/``), so ``tests/`` goes on ``sys.path`` here the
way pytest puts it there for the test files: ``from oracles.drc import
...`` reads the same in both.
"""

import datetime
import json
import platform
import random
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = ROOT / "BENCH_compaction.json"
if str(ROOT / "tests") not in sys.path:
    sys.path.insert(0, str(ROOT / "tests"))

_RECORDS = []


def _provenance():
    """Environment stamp shared by every timing row of this session."""
    from repro.geometry.batch import kernel_name

    return {
        "kernel": kernel_name(),
        "python": platform.python_version(),
        "recorded_at": datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0)
        .isoformat(),
    }


def best_time(fn, repeats=3):
    """Best-of-n wall time of ``fn()`` (the usual timeit discipline)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def sweep_layout_pairs(n, seed=11):
    """Randomized multi-layer (layer, box) pairs spread in *both* axes.

    A y spread within one cell pitch caps the visible front at a
    handful of segments and hides the reference implementations'
    quadratic rescans; spreading y with n lets fronts and slab counts
    grow with the layout — the regime real cells are in.
    """
    from repro.geometry import Box

    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        layer = rng.choice(["diff", "poly", "metal1"])
        x = rng.randrange(0, 40 * n, 2)
        y = rng.randrange(0, 40 * n, 2)
        pairs.append(
            (layer, Box(x, y, x + rng.randrange(2, 8), y + rng.randrange(2, 10)))
        )
    return pairs


@pytest.fixture
def report(capsys):
    """Print experiment rows through pytest's capture."""

    def emit(*lines):
        with capsys.disabled():
            print()
            for line in lines:
                print(line)

    return emit


@pytest.fixture
def record():
    """Append a machine-readable timing row for BENCH_compaction.json.

    ``record(bench, n, seconds)`` — ``bench`` names the workload (e.g.
    ``"scanline"``, ``"drc"``, ``"merge"``, ``"extract"``, or their
    ``*_reference`` counterparts), ``n`` is the problem size, and
    ``seconds`` the measured wall time.  Each row also carries the
    session's provenance stamp (kernel, python, recorded_at).
    """
    provenance = _provenance()

    def emit(bench, n, seconds):
        row = {"bench": str(bench), "n": int(n), "seconds": float(seconds)}
        row.update(provenance)
        _RECORDS.append(row)

    return emit


def compare_kernel(report, record, label, n, run_new, run_reference,
                   min_ratio=None, smoke=False, repeats=3):
    """Time a kernel build against its reference oracle.

    Records both rows (``label`` and ``label + "_reference"``), prints
    the paper-shaped comparison line, and — outside smoke mode — asserts
    the kernel is at least ``min_ratio`` times faster when one is given.
    """
    new_s = best_time(run_new, repeats=repeats)
    ref_s = best_time(run_reference, repeats=repeats)
    record(label, n, new_s)
    record(f"{label}_reference", n, ref_s)
    ratio = ref_s / new_s
    report(
        f"E-SWEEP {label}, kernel vs reference:"
        f" {n:>5} boxes: kernel {new_s * 1000:8.1f} ms,"
        f" reference {ref_s * 1000:8.1f} ms  ({ratio:.1f}x)"
    )
    if min_ratio is not None and not smoke:
        assert ratio >= min_ratio, (
            f"{label} kernel only {ratio:.1f}x over reference at n={n}"
        )
    return ratio


def doubling_ratio(measure, small, large, limit, attempts=3):
    """Best observed ``measure(large) / measure(small)`` time ratio.

    Re-measures up to ``attempts`` rounds, stopping early once the
    ratio is under ``limit`` — wall-clock scaling guards on shared CI
    runners measure a few milliseconds and need the retry so a single
    scheduler stall cannot fail the build.  Returns ``(ratio, t_small,
    t_large)`` for the best round so callers record the timings that
    produced the verdict, not a later stalled round's.
    """
    best = None
    for _ in range(attempts):
        t_small = measure(small)
        t_large = measure(large)
        ratio = t_large / t_small
        if best is None or ratio < best[0]:
            best = (ratio, t_small, t_large)
        if best[0] < limit:
            break
    return best


def pytest_sessionfinish(session, exitstatus):
    """Merge accumulated timing rows into BENCH_compaction.json.

    Existing rows for other workloads/sizes survive a partial run;
    rows re-measured this session replace their previous values.
    """
    if not _RECORDS:
        return
    rows = {}
    if BENCH_JSON.exists():
        try:
            rows = {(r["bench"], r["n"]): r for r in json.loads(BENCH_JSON.read_text())}
        except (ValueError, KeyError, TypeError):
            rows = {}
    rows.update({(r["bench"], r["n"]): r for r in _RECORDS})
    BENCH_JSON.write_text(
        json.dumps(sorted(rows.values(), key=lambda r: (r["bench"], r["n"])), indent=2)
        + "\n"
    )
