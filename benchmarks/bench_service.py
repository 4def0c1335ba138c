"""E-SERVICE — the layout service: cold, warm, and deduplicated latency.

Three workloads against a real in-process daemon (ephemeral port, real
worker processes, shared store) measuring what the service exists to
provide:

* **cold** — first submission of a generate+compact job: the full
  pipeline runs in a worker.  Row ``service_cold``.
* **warm** — resubmission of the identical spec: answered straight
  from the artifact store, no worker dispatched.  Row ``service_warm``.
  The CI guard — enforced in smoke mode too, it is the service's
  headline property — asserts warm is >= 5x faster than cold.
* **dedup fan-in** — 8 concurrent identical submissions of a fresh
  spec: exactly one pipeline execution serves all 8 callers.  Row
  ``service_dedup8`` records the whole fan-in wall time; the measured
  dedup factor is asserted, not just reported.

* **round trip** — 20 sequential fresh tiny jobs, each timed from
  ``submit`` to ``wait`` returning: the hand-off latency the service
  adds around a job that executes in milliseconds.  Row
  ``service_roundtrip`` records the median; the guard (smoke mode too)
  asserts it stays under 40 ms, which only holds while a submission
  wakes an idle worker and the completion answers a held result
  request — a 50 ms poll at either hand-off breaks it — and while the
  store keeps its SQLite connection open: closing the last connection
  to a WAL database checkpoints it, which costs tens of ms per call.

Two robustness rows ride along (``test_service_backpressure_and_recovery``):

* **backpressure** — the 429 + ``Retry-After`` rejection round trip
  against a full queue: load-shedding must stay cheap precisely when
  the service is busiest.  Row ``service_backpressure_429``.
* **recovery** — ``Store.recover()`` over a ledger full of orphaned
  ``running`` rows (a hard-killed daemon): the boot-time cost of
  crash consistency.  Row ``service_recover``.

Timing rows land in ``BENCH_compaction.json`` via the ``record``
fixture.  Set ``REPRO_BENCH_SMOKE=1`` for the small multiplier size.
"""

import os
import statistics
import subprocess
import sys
import threading
import time

from conftest import best_time

from repro.core.errors import ServiceError
from repro.service import JobSpec, LayoutServer, ServiceClient, Store

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
SIZE = 2 if SMOKE else 3

SAMPLE = """
cell tiny
  box metal1 0 0 8 8
  port a 0 4 metal1
end
"""

DESIGN = """
(mk_instance t tiny)
(mk_cell "top" t)
"""


def tiny_spec(index):
    """A submit-only spec (never executed in the robustness rows)."""
    return JobSpec(
        kind="custom",
        sample_text=SAMPLE,
        design_text=DESIGN,
        parameters=f"tag_{index}=1\n",
    )


def multiplier_spec(tag, size=SIZE):
    """A real generate+compact job; ``tag`` makes specs distinct."""
    return JobSpec(
        kind="multiplier",
        parameters=f"xsize={size}\nysize={size}\ntag={tag}\n",
        compact="hier",
    )


def test_service_cold_warm_and_dedup(tmp_path, report, record):
    with LayoutServer(str(tmp_path / "service"), port=0, workers=4) as server:
        client = ServiceClient(server.url)

        # cold: first submission pays the whole pipeline
        started = time.perf_counter()
        job = client.submit(multiplier_spec("cold"))["job"]
        client.wait(job, timeout=600.0)
        cold_s = time.perf_counter() - started
        record("service_cold", SIZE, cold_s)

        # warm: the same content answers from the store, no worker
        def warm():
            again = client.submit(multiplier_spec("cold"))
            assert again["state"] == "done" and again["deduplicated"]
            client.result(again["job"])

        warm_s = best_time(warm, repeats=3)
        record("service_warm", SIZE, warm_s)

        # dedup fan-in: 8 concurrent identical submissions, 1 execution
        fresh = multiplier_spec("dedup")
        receipts = []
        lock = threading.Lock()

        def submit():
            receipt = client.submit(fresh)
            with lock:
                receipts.append(receipt)

        started = time.perf_counter()
        threads = [threading.Thread(target=submit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        fingerprint = receipts[0]["job"]
        client.wait(fingerprint, timeout=600.0)
        dedup_s = time.perf_counter() - started
        record("service_dedup8", SIZE, dedup_s)

        status = client.status(fingerprint)
        assert status["executions"] == 1, status
        assert status["submissions"] == 8, status
        dedup_factor = status["submissions"] / status["executions"]

    ratio = cold_s / warm_s
    report(
        f"E-SERVICE multiplier {SIZE}x{SIZE}:"
        f" cold {cold_s * 1000:8.1f} ms, warm {warm_s * 1000:8.1f} ms"
        f" ({ratio:.0f}x), 8-way fan-in {dedup_s * 1000:8.1f} ms"
        f" (dedup factor {dedup_factor:.0f})"
    )
    # The headline property holds at every size, smoke included: a
    # warm answer is a store read, not a pipeline run.
    assert ratio >= 5.0, f"warm resubmit only {ratio:.1f}x faster than cold"
    assert dedup_factor == 8.0


def test_service_roundtrip(tmp_path, report, record):
    with LayoutServer(str(tmp_path / "service"), port=0, workers=2) as server:
        client = ServiceClient(server.url)
        client.wait(client.submit(tiny_spec("warmup"))["job"], timeout=60.0)
        times = []
        for index in range(20):
            started = time.perf_counter()
            job = client.submit(tiny_spec(f"roundtrip_{index}"))["job"]
            assert client.wait(job, timeout=60.0)["state"] == "done"
            times.append(time.perf_counter() - started)
    median_s = statistics.median(times)
    record("service_roundtrip", len(times), median_s)
    report(
        f"E-SERVICE fresh tiny job, submit -> wait: median"
        f" {median_s * 1000:6.1f} ms over {len(times)} jobs"
        f" (min {min(times) * 1000:.1f}, max {max(times) * 1000:.1f} ms)"
    )
    assert median_s < 0.040, (
        f"fresh-job round trip {median_s * 1000:.1f} ms: a hand-off is polling,"
        " or the store closes its SQLite connection per call (a WAL checkpoint"
        " on every close)"
    )


def test_service_backpressure_and_recovery(tmp_path, report, record):
    # backpressure: how fast a full queue sheds load with 429
    server = LayoutServer(
        str(tmp_path / "bp"), port=0, workers=1, max_queue_depth=1
    )
    server.start()
    try:
        server.pool.stop(drain=True)  # nothing drains: the queue stays full
        client = ServiceClient(server.url, max_retries=0)
        client.submit(tiny_spec("fill"))

        def rejected():
            try:
                client.submit(tiny_spec("reject"))
            except ServiceError as error:
                assert "HTTP 429" in str(error), error
            else:
                raise AssertionError("full queue accepted a submission")

        reject_s = best_time(rejected, repeats=5)
        record("service_backpressure_429", 1, reject_s)
    finally:
        server.stop(drain=False)

    # recovery: boot-time cost of re-queueing a hard-killed daemon's jobs
    count = 16 if SMOKE else 64
    store = Store(str(tmp_path / "recover"))
    probe = subprocess.Popen([sys.executable, "-c", "pass"])
    probe.wait()
    for index in range(count):
        store.submit(tiny_spec(index))
    for _ in range(count):
        store.claim(probe.pid)  # orphaned: claimed by a dead pid
    started = time.perf_counter()
    recovered = store.recover()
    recover_s = time.perf_counter() - started
    assert len(recovered["requeued"]) == count, recovered
    record("service_recover", count, recover_s)

    report(
        f"E-SERVICE robustness: 429 rejection {reject_s * 1000:8.1f} ms,"
        f" recovery of {count} orphaned job(s) {recover_s * 1000:8.1f} ms"
    )
