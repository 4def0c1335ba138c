"""The acceptance tests: dedup and robustness under a real worker pool.

These spawn actual worker *processes* against a shared store root —
the concurrency the service exists to get right.  The headline
contracts from the issue:

* 8 concurrent identical submissions → exactly 1 pipeline execution,
  all callers get byte-identical artifacts;
* a warm resubmission is served from the store, no worker dispatched;
* a worker killed mid-job fails only that job, others complete;
* a timed-out job is failed with its timeout in the error;
* ``stop(drain=True)`` finishes in-flight jobs before exit.

Every slow job uses the spec's ``delay`` knob (part of the
fingerprint, so slow jobs are distinct jobs) rather than real layout
bulk, keeping the suite fast.
"""

import gc
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.service.jobs import JobSpec
from repro.service.store import Store, fork_guard
from repro.service.workers import WorkerPool

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


def spec(**overrides):
    base = dict(kind="custom", sample_text=SAMPLE, design_text=DESIGN)
    base.update(overrides)
    return JobSpec(**base)


def wait_for(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture
def root(tmp_path):
    return str(tmp_path / "service")


def make_pool(root, request, **kwargs):
    pool = WorkerPool(root, **kwargs)
    request.addfinalizer(lambda: pool.stop(drain=False, timeout=5.0))
    pool.start()
    return pool


class TestDeduplication:
    def test_eight_concurrent_identical_submissions_run_once(self, root, request):
        """ISSUE acceptance: N identical submissions → 1 execution."""
        pool = make_pool(root, request, workers=4)
        store = Store(root)
        job = spec(parameters="x=1\n")
        receipts, lock = [], threading.Lock()

        def client():
            receipt = store.submit(job)
            with lock:
                receipts.append(receipt)

        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        fingerprints = {receipt["job"] for receipt in receipts}
        assert len(fingerprints) == 1
        fingerprint = fingerprints.pop()
        assert sum(1 for r in receipts if not r["deduplicated"]) == 1

        assert wait_for(lambda: store.status(fingerprint)["state"] == "done")
        status = store.status(fingerprint)
        assert status["executions"] == 1
        assert status["submissions"] == 8

        # every caller downloads byte-identical artifacts
        artifacts = {store.artifact_bytes(fingerprint, "layout.cif") for _ in receipts}
        assert len(artifacts) == 1
        assert artifacts.pop().startswith(b"( CIF generated by repro RSG")

    def test_warm_resubmission_never_dispatches(self, root, request):
        pool = make_pool(root, request, workers=2)
        store = Store(root)
        job = spec(parameters="warm=1\n")
        fingerprint = store.submit(job)["job"]
        assert wait_for(lambda: store.status(fingerprint)["state"] == "done")

        again = store.submit(job)
        assert again == {"job": fingerprint, "state": "done", "deduplicated": True}
        # the job never re-enters the queue, so no worker can claim it
        time.sleep(0.3)
        status = store.status(fingerprint)
        assert status["state"] == "done"
        assert status["executions"] == 1
        assert status["submissions"] == 2

    def test_distinct_jobs_fan_out_across_workers(self, root, request):
        pool = make_pool(root, request, workers=4)
        store = Store(root)
        jobs = [store.submit(spec(parameters=f"n={i}\n"))["job"] for i in range(6)]
        assert wait_for(
            lambda: all(store.status(job)["state"] == "done" for job in jobs)
        )
        assert all(store.status(job)["executions"] == 1 for job in jobs)


class TestWake:
    def test_submission_wakes_an_idle_worker(self, root, request):
        """The claim does not wait for the ``poll_interval`` heartbeat."""
        pool = make_pool(root, request, workers=1, poll_interval=5.0)
        time.sleep(0.2)  # the worker is idle, blocked on its wake-up
        job = pool.submit(spec(parameters="wake=1\n"))["job"]
        assert wait_for(
            lambda: pool.store.status(job)["state"] != "queued", timeout=1.0
        ), "an idle worker slept through the submission"

    def test_deduplicated_submission_wakes_nobody(self, root):
        pool = WorkerPool(root, workers=1)
        job = spec(parameters="dedup_wake=1\n")
        assert pool.submit(job)["deduplicated"] is False
        assert pool.submit(job)["deduplicated"] is True
        assert pool._wake.acquire(timeout=0)  # one token: the queued work
        assert not pool._wake.acquire(timeout=0)


def _submit_in_child(root):
    Store(root).submit(spec(parameters="child=1\n"))


def _submit_twice_in_child(root, ready, go):
    store = Store(root)
    store.submit(spec(parameters="child=1\n"))
    ready.set()
    go.wait(10.0)
    store.submit(spec(parameters="child=2\n"))


class TestForkGuard:
    def test_child_forked_beside_a_writer_can_write(self, root):
        """A fork waits out open connections instead of copying one.

        Unguarded, the child inherits SQLite's record of the parent
        thread's write lock and its own write waits out the 30 s busy
        timeout.
        """
        store = Store(root)
        writing = threading.Event()

        def write():
            with store._connect() as connection:
                connection.execute("BEGIN IMMEDIATE")
                writing.set()
                time.sleep(0.3)

        writer = threading.Thread(target=write)
        writer.start()
        writing.wait()
        child = multiprocessing.get_context("fork").Process(
            target=_submit_in_child, args=(root,)
        )
        with fork_guard():
            child.start()
        child.join(timeout=10.0)
        writer.join()
        if child.exitcode is None:
            child.kill()
        assert child.exitcode == 0, "the forked child wedged on an inherited lock"
        assert store.queue_depth() == 1

    def test_guarded_fork_beside_an_idle_store_can_write(self, root):
        """The guard closes an idle store's long-lived connection.

        The parent reopens it on its next operation.
        """
        store = Store(root)
        store.submit(spec(parameters="parent=1\n"))
        child = multiprocessing.get_context("fork").Process(
            target=_submit_in_child, args=(root,)
        )
        started = time.monotonic()
        with fork_guard():
            child.start()
        child.join(timeout=10.0)
        if child.exitcode is None:
            child.kill()
        assert child.exitcode == 0, "the forked child wedged on an inherited lock"
        assert time.monotonic() - started < 10.0
        assert store.queue_depth() == 2

    def test_parent_close_keeps_a_guarded_childs_wal(self, root):
        """A child forked under the guard holds its own file locks.

        Had it inherited the parent's open connection, SQLite would
        count that connection's locks as the child's, and the parent's
        close would checkpoint and delete the WAL under the child,
        losing the child's next write.
        """
        store = Store(root)
        store.submit(spec(parameters="parent=1\n"))
        context = multiprocessing.get_context("fork")
        ready, go = context.Event(), context.Event()
        child = context.Process(target=_submit_twice_in_child, args=(root, ready, go))
        with fork_guard():
            child.start()
        assert ready.wait(10.0)
        assert store.queue_depth() == 2
        # The connection sits in a cycle with its statement cache, so
        # only a collection closes it: here, beside the child's.
        del store
        gc.collect()
        go.set()
        child.join(timeout=10.0)
        if child.exitcode is None:
            child.kill()
        assert child.exitcode == 0
        assert Store(root).queue_depth() == 3

    def test_unguarded_child_leaves_the_parents_ledger_intact(self, root):
        """A child that inherits an open connection neither uses nor
        closes it; its own store writes beside the parent's."""
        store = Store(root)
        parent_job = store.submit(spec(parameters="parent=1\n"))["job"]
        child = multiprocessing.get_context("fork").Process(
            target=_submit_in_child, args=(root,)
        )
        child.start()
        child.join(timeout=10.0)
        if child.exitcode is None:
            child.kill()
        assert child.exitcode == 0
        assert store.queue_depth() == 2
        assert store.status(parent_job)["submissions"] == 1
        assert store.submit(spec(parameters="after=1\n"))["deduplicated"] is False
        with store._connect() as connection:
            assert connection.execute("PRAGMA integrity_check").fetchone()[0] == "ok"


class TestRobustness:
    def test_killed_worker_fails_only_its_job(self, root, request):
        """ISSUE acceptance: crash isolation with bounded retry."""
        pool = make_pool(root, request, workers=2, max_attempts=1)
        store = Store(root, max_attempts=1)
        slow = store.submit(spec(delay=30.0))["job"]
        quick = [store.submit(spec(parameters=f"q={i}\n"))["job"] for i in range(3)]

        assert wait_for(lambda: store.status(slow)["state"] == "running")
        victim_pid = store.status(slow)["worker_pid"]
        assert victim_pid in pool.worker_pids()
        os.kill(victim_pid, signal.SIGKILL)

        # max_attempts=1: the crashed job fails outright, no retry
        assert wait_for(lambda: store.status(slow)["state"] == "failed")
        assert "died mid-job" in store.status(slow)["error"]
        # ... while every other job completes untouched
        assert wait_for(
            lambda: all(store.status(job)["state"] == "done" for job in quick)
        )
        assert pool.crashes == 1
        # the supervisor respawned a replacement
        assert wait_for(lambda: pool.alive_workers() == 2)

    def test_crashed_job_retries_then_succeeds(self, root, request):
        pool = make_pool(root, request, workers=1, max_attempts=2)
        store = Store(root)
        # delay=1.2 gives us time to kill attempt 1; attempt 2 finishes
        job = store.submit(spec(delay=1.2))["job"]
        assert wait_for(lambda: store.status(job)["state"] == "running")
        os.kill(store.status(job)["worker_pid"], signal.SIGKILL)
        assert wait_for(lambda: store.status(job)["state"] == "done", timeout=60.0)
        status = store.status(job)
        assert status["executions"] == 2
        assert status["attempts"] == 2

    def test_timed_out_job_fails_with_its_timeout(self, root, request):
        """ISSUE acceptance: a runaway is failed with the timeout."""
        pool = make_pool(root, request, workers=2, job_timeout=0.5)
        store = Store(root)
        runaway = store.submit(spec(delay=30.0))["job"]
        quick = store.submit(spec(parameters="ok=1\n"))["job"]

        assert wait_for(lambda: store.status(runaway)["state"] == "failed")
        assert store.status(runaway)["error"] == "timed out after 0.5s"
        assert pool.timeouts == 1
        # the quick job is unaffected by its neighbour's timeout
        assert wait_for(lambda: store.status(quick)["state"] == "done")

    def test_pipeline_error_fails_deterministically(self, root, request):
        pool = make_pool(root, request, workers=1)
        store = Store(root)
        # a design referencing a cell the sample never defines
        job = store.submit(
            spec(design_text="(mk_instance t nonesuch)\n(mk_cell \"top\" t)\n")
        )["job"]
        assert wait_for(lambda: store.status(job)["state"] == "failed")
        status = store.status(job)
        assert status["error"]
        # deterministic failures are not retried
        assert status["executions"] == 1


class TestDrain:
    def test_stop_drain_finishes_in_flight_jobs(self, root, request):
        """ISSUE acceptance: SIGTERM-path drain completes work in hand."""
        pool = WorkerPool(root, workers=2)
        request.addfinalizer(lambda: pool.stop(drain=False, timeout=5.0))
        pool.start()
        store = Store(root)
        job = store.submit(spec(delay=0.8))["job"]
        assert wait_for(lambda: store.status(job)["state"] == "running")

        in_flight = pool.stop(drain=True, timeout=30.0)
        assert in_flight == 1
        assert store.status(job)["state"] == "done"
        assert pool.alive_workers() == 0

    def test_stop_without_drain_leaves_queue_for_next_boot(self, root, request):
        pool = WorkerPool(root, workers=1)
        request.addfinalizer(lambda: pool.stop(drain=False, timeout=5.0))
        pool.start()
        store = Store(root)
        running = store.submit(spec(delay=30.0))["job"]
        queued = store.submit(spec(parameters="later=1\n"))["job"]
        assert wait_for(lambda: store.status(running)["state"] == "running")
        pool.stop(drain=False, timeout=5.0)
        # the queued job is untouched, ready for the next boot
        assert store.status(queued)["state"] == "queued"
        # the interrupted job is re-queued by the crash sweep, not lost
        assert store.status(running)["state"] in ("queued", "running")

        # a fresh pool on the same root picks the quick job up (two
        # workers: the re-queued slow job is older and claims one)
        revived = make_pool(root, request, workers=2)
        assert wait_for(lambda: store.status(queued)["state"] == "done")


#: a fresh interpreter that starts a pool, runs one verify="all"
#: multiplier job on it and prints the job's import spans
_FIRST_JOB = """
import json, sys, time
from repro.service.jobs import JobSpec
from repro.service.store import Store
from repro.service.workers import WorkerPool

root, compact = sys.argv[1], sys.argv[2] or None
pool = WorkerPool(root, workers=1)
pool.start()
try:
    store = Store(root)
    job = store.submit(JobSpec(kind="multiplier", parameters="xsize=3\\nysize=3\\n",
                               compact=compact, verify="all"))["job"]
    deadline = time.monotonic() + 60.0
    while store.status(job)["state"] not in ("done", "failed"):
        assert time.monotonic() < deadline, "job did not finish"
        time.sleep(0.02)
    assert store.status(job)["state"] == "done", store.status(job)
    spans = store.trace_spans(job)
    print(json.dumps({span.name: span.attributes.get("modules")
                      for span in spans
                      if span.name.startswith("import.") or span.name == "lang.compile"}))
finally:
    pool.stop(drain=False, timeout=5.0)
"""


class TestWarmFork:
    def test_first_job_imports_no_stage_module(self, root):
        """The pool imports every stage module before it forks: a fresh
        worker's first verify="all" job loads no module in its import
        spans (each would otherwise pay tens of milliseconds)."""
        import json
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-c", _FIRST_JOB, root, ""],
            capture_output=True, text=True, timeout=120, check=True,
        )
        spans = json.loads(completed.stdout.strip().splitlines()[-1])
        assert spans == {"import.verify": 0, "import.multiplier": 0}

    def test_first_compacting_job_compiles_and_imports_nothing(self, root):
        """The pool also imports the compactor and compiles the builtin
        design texts before it forks: a fresh worker's first compacting
        job has no ``lang.compile`` span and loads no module in its
        ``import.compact`` span."""
        import json
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-c", _FIRST_JOB, root, "hier"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        spans = json.loads(completed.stdout.strip().splitlines()[-1])
        assert spans == {"import.compact": 0, "import.verify": 0, "import.multiplier": 0}
