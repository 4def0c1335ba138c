"""E-BATCH — the array mask walk of netlist extraction against its oracle.

Every geometry pass runs on :mod:`repro.geometry.batch` (flat int64
arrays, segmented scans, keyed ``searchsorted`` probes).  The
visibility scan, DRC, merge and wire-extraction rows live in
``bench_scanline.py`` / ``bench_sweep.py``, timed against their
``*_reference`` oracles.  This file carries the extraction row:

* ``verify_extract_vec`` — the ``_sweep_batch`` mask walk of
  :func:`repro.verify.extract.extract_netlist` versus the interpreted
  ``_sweep_reference`` walk on a generated PLA.

The comparison asserts output equality first, then enforces the >= 3x
speedup outside smoke mode (``REPRO_BENCH_SMOKE=1`` runs a small size
and skips the ratio assertion, keeping the bench-smoke lane fast).
"""

import os

from conftest import compare_kernel

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))


def _impl_verify_extract_vec(report, record):
    from bench_verify import plane_table
    from oracles.extract import _sweep_reference, extract_layers

    from repro.geometry import batch
    from repro.pla import generate_pla
    from repro.verify.extract import CONDUCTOR_LAYERS, _sweep_batch

    n = 4 if SMOKE else 12
    cell = generate_pla(plane_table(n, n, n))
    layers = extract_layers(cell, None)
    masks = {name: list(layers.get(name, ())) for name in CONDUCTOR_LAYERS}
    masks["cut"] = list(layers.get("cut", ()))
    masks["implant"] = list(layers.get("implant", ()))
    columns = {name: batch.boxes_to_arrays(boxes) for name, boxes in masks.items()}

    def roots(result):
        sets = result[0]
        return [sets.find(i) for i in range(len(sets.parent))]

    result_reference = _sweep_reference(masks)
    result_batch = _sweep_batch(columns)
    # boxes/gates/terminals/... and the union-find partition
    assert result_reference[1:] == result_batch[1:]
    assert roots(result_reference) == roots(result_batch)
    compare_kernel(
        report,
        record,
        "verify_extract_vec",
        n,
        lambda: _sweep_batch(columns),
        lambda: _sweep_reference(masks),
        min_ratio=3.0,
        smoke=SMOKE,
        repeats=5,
    )


def test_verify_extract_vec(benchmark, report, record):
    benchmark.pedantic(
        lambda: _impl_verify_extract_vec(report, record), rounds=1, iterations=1
    )
