"""Tests of the flow benchmark itself: inputs, output checks, tracing.

Run from the repository root with ``python3 -m pytest flowbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.compact import TECH_A, compact_cell  # noqa: E402
from repro.multiplier import generate_via_language  # noqa: E402
from repro.service.jobs import JobSpec, execute_job  # noqa: E402


@pytest.fixture
def make(tmp_path):
    ledger = workloads.Ledger(tmp_path / "digests.json")
    return lambda name: workloads.WORKLOADS[name](tmp_path, ledger)


def checked(workload, job, output):
    record = workloads.Record(job, 0.0, output)
    workload.check(record)
    return record


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_job_list_is_a_function_of_seed_and_seconds(make, name):
    workload = make(name)
    first = workload.job_list(5, 20)
    assert first == workload.job_list(5, 20)
    assert workloads.digest(first) != workloads.digest(workload.job_list(6, 20))


@pytest.mark.parametrize("name", ["mult-compact", "mult-verify", "pla-verify"])
def test_seed_never_changes_the_size_mix(make, name):
    workload = make(name)
    shape = lambda jobs: sorted(  # noqa: E731
        json.dumps({k: v for k, v in job.items() if k not in ("and", "or")},
                   sort_keys=True)
        for job in jobs
    )
    assert shape(workload.job_list(1, 20)) == shape(workload.job_list(2, 20))


@pytest.mark.parametrize("name", ["mult-compact", "mult-verify", "pla-verify"])
def test_every_round_runs_the_ladder_once(make, name):
    workload = make(name)
    jobs = workload.job_list(4, 20)
    ladder = sorted(json.dumps(shape, sort_keys=True) for shape in workload.LADDER)
    numbers = sorted({job["round"] for job in jobs})
    assert len(numbers) >= 4
    for number in numbers:
        shapes = [
            json.dumps({k: v for k, v in job.items() if k not in ("and", "or", "round")},
                       sort_keys=True)
            for job in jobs if job["round"] == number
        ]
        assert sorted(shapes) == ladder


def test_service_sessions_repeat_a_quarter_of_their_specs(make):
    jobs = make("service-mix").job_list(3, 8)
    session = [job for job in jobs if job["round"] == 0]
    keys = [(job["xsize"], job["ysize"], job["compact"]) for job in session]
    assert len(session) == 40
    assert len(set(keys)) == 30


def test_flat_compaction_passes_and_a_dropped_box_fails(make):
    workload = make("mult-compact")
    workload.prepare()
    job = {"kind": "flat", "size": 4, "axes": "xy"}
    text = workload.execute(job)
    assert checked(workload, job, text).failures == []
    lines = text.splitlines()
    box = next(i for i, line in enumerate(lines) if line.startswith("B "))
    dropped = "\n".join(lines[:box] + lines[box + 1:]) + "\n"
    failures = checked(workload, job, dropped).failures
    assert any("box counts" in failure for failure in failures)
    assert any("digest" in failure for failure in failures)


def test_rubber_band_drop_fails(make):
    workload = make("mult-compact")
    job = {"kind": "rubber-band", "size": 3}
    result = workload.execute(job)
    assert checked(workload, job, result).failures == []
    layer = next(iter(result.layers))
    result.layers[layer].pop()
    assert any("box counts" in f for f in checked(workload, job, result).failures)


def test_multiplier_verification_pass_is_checked(make):
    workload = make("mult-verify")
    job = {"xsize": 3, "ysize": 3}
    assert checked(workload, job, workload.execute(job)).failures == []


def test_vacuous_pass_of_a_flat_compacted_multiplier_fails():
    cell, _ = generate_via_language(3, 3)
    flat, _ = compact_cell(cell, TECH_A, axis="x")
    from repro.verify import verify_cell

    report = verify_cell(flat, mode="all")
    assert report.ok  # the program calls this a PASS ...
    failures = workloads.verification_failures(report.to_dict(), "multiplier")
    assert failures  # ... the benchmark does not


def test_flipped_simulation_output_fails(make, monkeypatch):
    workload = make("pla-verify")
    job = workload.job_list(1, 2)[0]
    assert checked(workload, job, workload.execute(job)).failures == []

    import repro.verify.driver as driver

    simulate = driver.simulate

    def flipped(netlist, inputs, *args, **kwargs):
        values = simulate(netlist, inputs, *args, **kwargs)
        net = netlist.outputs[0]
        values[net] = 1 - values[net]
        return values

    monkeypatch.setattr(driver, "simulate", flipped)
    failures = checked(workload, job, workload.execute(job)).failures
    assert any("verification FAIL" in failure for failure in failures)


def test_service_layout_with_a_dropped_box_fails(make):
    workload = make("service-mix")
    job = {"round": 0, "xsize": 4, "ysize": 5, "compact": "hier"}
    result = execute_job(JobSpec(
        kind="multiplier", compact="hier", parameters="xsize=4\nysize=5",
    ))
    payload = {"state": "done", "result": result.to_dict()}
    submitted = {"deduplicated": False}
    good = result.cif.encode()
    assert checked(workload, job, (submitted, payload, good)).failures == []
    lines = result.cif.splitlines()
    box = next(i for i, line in enumerate(lines) if line.startswith("B "))
    bad = ("\n".join(lines[:box] + lines[box + 1:]) + "\n").encode()
    failures = checked(workload, job, (submitted, payload, bad)).failures
    assert any("box counts" in failure for failure in failures)


def test_failed_checks_count_and_never_abort(make):
    workload = make("mult-verify")
    workload.execute = lambda job: (_ for _ in ()).throw(RuntimeError("boom"))
    jobs = [{"xsize": 3, "ysize": 3, "round": 0}, {"xsize": 4, "ysize": 4, "round": 0}]
    phase = workload.run(jobs, deadline=float("inf"))
    workload.check_all(phase)
    assert [record.failed for record in phase.records] == [True, True]
    assert phase.records[0].error == "RuntimeError: boom"


def test_job_seconds_are_scaled_by_the_probes_around_them(make, monkeypatch):
    reference = speed.REFERENCE_S
    probes = iter([2 * reference, reference / 2, reference / 2])
    monkeypatch.setattr(speed, "probe", lambda: next(probes))
    workload = make("mult-verify")
    workload.execute = lambda job: None
    phase = workload.run([{"round": 0}, {"round": 0}], deadline=float("inf"))
    first, second = phase.records
    assert first.scale == pytest.approx(1.0)
    assert second.scale == pytest.approx(2.0)
    assert phase.wall_s == pytest.approx(first.scaled + second.scaled)


def layer_module():
    """A stand-in module whose ``outer`` calls ``inner`` by module lookup."""
    module = types.SimpleNamespace()
    module.inner = lambda i: i
    module.outer = lambda n: [module.inner(i) for i in range(n)]
    return module


def test_recorder_nesting_residuals_and_restore():
    recorder = tracing.Recorder()
    layer = layer_module()
    original = layer.outer
    recorder._wrap(layer, "outer", "outer", None)
    recorder._wrap(layer, "inner", "inner", None)
    layer.outer(1)  # outside a job: not recorded
    assert recorder.spans == []
    with recorder.job("j1"):
        layer.outer(3)
    assert recorder.calls == {"job": 1, "outer": 1, "inner": 3}
    assert {span[2] for span in recorder.spans} == {"j1"}
    totals = recorder.totals()
    residual = recorder.unattributed()
    assert residual["outer"] == pytest.approx(totals["outer"] - totals["inner"])
    assert residual["job"] == pytest.approx(totals["job"] - totals["outer"])
    recorder.uninstall()
    assert layer.outer is original


def test_same_name_spans_do_not_nest():
    recorder = tracing.Recorder()
    layer = layer_module()
    recorder._wrap(layer, "outer", "layout.cif", None)
    recorder._wrap(layer, "inner", "layout.cif", None)
    with recorder.job(0):
        layer.outer(2)
    assert recorder.calls["layout.cif"] == 1


def test_every_layer_target_exists():
    recorder = tracing.Recorder()
    recorder.install()
    try:
        assert len(recorder._patches) == sum(len(t) for _, t in tracing.LAYERS)
    finally:
        recorder.uninstall()
    import repro.compact.flat as flat

    assert flat.alignment_pairs.__name__ == "alignment_pairs"
    assert not hasattr(flat.alignment_pairs, "__wrapped__")


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert run.tail([1.0, 3.0, 2.0])[0] == 2.0  # too few jobs: the median


def test_benchmark_json_names_what_the_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert [m["unit"] for m in spec["per_layer"]] == [run.unit(n) for n in run.PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "flowbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "flowbench")
    done = subprocess.run(
        [sys.executable, "flowbench/run.py", "--workload", "mult-verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
