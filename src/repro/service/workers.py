"""The worker pool: queue-driven processes running the pure pipeline.

Workers are separate *processes* (crash isolation: a dying worker takes
down exactly one job, never the daemon), each looping claim → execute →
complete against the shared :class:`~repro.service.store.Store`.  The
store is the queue — claiming is an atomic SQLite transaction — and two
notifications keep hand-offs from waiting on a clock:

* **submit → worker** — :meth:`WorkerPool.submit` releases a wake
  semaphore whenever a submission queues work; an idle worker blocks on
  it instead of sleeping between claim attempts;
* **worker → parent** — every terminal transition a worker records is
  announced over a one-way completion pipe; a listener thread in the
  parent turns each announcement into a ``notify_all`` on a condition
  that held result requests wait on (:meth:`WorkerPool.await_transition`).

``poll_interval`` stays the heartbeat: the longest an idle worker waits
before re-checking the queue on its own, and the supervisor's period.

A supervisor thread in the parent enforces the pool contract:

* **timeout** — a job running longer than ``job_timeout`` gets its
  worker terminated and is failed with the timeout in its error (a
  deterministic runaway would not get faster on retry);
* **crash isolation and bounded retry** — a worker that dies mid-job
  (segfault, OOM kill, ``kill -9``) fails only its own job; the job is
  re-queued as a transient failure until the store's ``max_attempts``
  is exhausted, and a replacement worker is spawned;
* **graceful drain** — :meth:`WorkerPool.stop` with ``drain=True``
  (what the daemon's SIGTERM handler calls) lets every in-flight job
  finish before the workers exit; still-queued jobs stay queued in the
  store for the next boot.
"""

from __future__ import annotations

import copy
import importlib
import multiprocessing
import os
import threading
import time
from typing import Any, Dict, List, Optional

from ..core.errors import RsgError
from ..obs.trace import Span, Tracer, activated, service_enabled
from . import chaos
from .jobs import JobSpec, execute_job
from .store import Store, fork_guard

__all__ = ["WorkerPool", "worker_loop"]

#: every stage module a job can reach that the pipeline imports on
#: first use; the pool imports them before it forks, so no worker's
#: first job pays for them
STAGE_MODULES = (
    "repro.multiplier.designfile",
    "repro.multiplier.generator",
    "repro.multiplier.baughwooley",
    "repro.pla.generator",
    "repro.route.compose",
    "repro.verify.driver",
    "repro.verify.cellgraph",
)


def _job_tracer(store: Store, fingerprint: str) -> Optional[Tracer]:
    """A tracer continuing the job's trace, or ``None`` when disabled.

    The trace id and parent span id travel in the job row (written at
    submission time from the ``X-Repro-Trace-Id`` header), which is how
    the trace crosses the HTTP-then-process boundary into this worker.
    """
    if not service_enabled():
        return None
    try:
        status = store.status(fingerprint) or {}
    except OSError:
        status = {}
    tracer = Tracer(status.get("trace_id") or None)
    tracer.job_parent = status.get("trace_parent") or None  # type: ignore[attr-defined]
    return tracer


def _claim_span(
    tracer: Tracer, parent_id: str, start_wall: float, seconds: float
) -> Span:
    """Synthesize the ``store.claim`` span from its measured timing.

    The claim necessarily happens *before* the worker can read the
    job's trace token, so its span is reconstructed afterwards from the
    wall-clock start and monotonic duration measured around the call.
    """
    return Span(
        name="store.claim",
        trace_id=tracer.trace_id,
        parent_id=parent_id,
        start_s=start_wall,
        duration_s=seconds,
    )


def _announce(done, fingerprint: str) -> None:
    """Tell the parent a job reached a terminal state.

    ``done`` is shared by every worker without a lock: a message this
    short goes out as one pipe write of fewer than ``PIPE_BUF`` bytes,
    which POSIX keeps whole, so a worker killed at any instant can
    neither tear a message nor leave a lock held.  A lost announcement
    only costs latency — the supervisor's sweep and the waiters'
    heartbeat re-check still see the store.
    """
    try:
        done.send_bytes(fingerprint.encode("ascii"))
    except OSError:
        pass  # the parent is gone; nobody is waiting


def worker_loop(
    root: str, stop_event, wake, done, poll_interval: float = 0.05
) -> None:
    """One worker process: claim jobs from the store until stopped.

    Runs the pure pipeline for each claimed job with a process-local
    handle on the shared compaction cache, records the cache-counter
    deltas fleet-wide after every job, and exits cleanly when
    ``stop_event`` is set (finishing the job in hand first — the drain
    contract).  Pipeline errors fail the job deterministically (no
    retry) with their CLI exit-code family recorded; only the
    supervisor treats worker death as transient.  Store I/O hiccups
    (a full disk while persisting artifacts, a transient claim error)
    fail the job in hand or back off — they never kill the worker.

    An idle worker blocks on ``wake`` (the pool's submission
    semaphore) for at most ``poll_interval`` before claiming again, and
    every job it finishes or fails is announced on ``done``.
    """
    chaos.maybe_load_from_env()
    from ..cli import exit_code_for

    store = Store(root)
    cache = store.compaction_cache()
    pid = os.getpid()
    while not stop_event.is_set():
        claim_wall = time.time()
        claim_t0 = time.perf_counter()
        try:
            claim = store.claim(pid)
        except OSError:
            time.sleep(poll_interval)  # transient store I/O: back off, retry
            continue
        claim_seconds = time.perf_counter() - claim_t0
        if claim is None:
            wake.acquire(timeout=poll_interval)
            continue
        fingerprint, spec = claim
        chaos.fire("worker.claimed")
        before = copy.copy(cache.cache_stats)
        tracer = _job_tracer(store, fingerprint)
        try:
            if tracer is not None:
                with activated(tracer):
                    with tracer.span(
                        "worker.execute",
                        parent_id=tracer.job_parent,
                        worker_pid=pid,
                    ) as root:
                        tracer.add(
                            _claim_span(
                                tracer, root.span_id, claim_wall, claim_seconds
                            )
                        )
                        result = execute_job(spec, cache=cache)
            else:
                result = execute_job(spec, cache=cache)
        except RsgError as error:
            store.fail(
                fingerprint,
                f"{type(error).__name__}: {error}",
                code=exit_code_for(error),
            )
            _record_failure_spans(store, fingerprint, tracer)
        except Exception as error:  # noqa: BLE001 — a worker must not die on a job
            store.fail(
                fingerprint,
                f"internal error: {type(error).__name__}: {error}",
                code=exit_code_for(error),
            )
            _record_failure_spans(store, fingerprint, tracer)
        else:
            chaos.fire("worker.pre_complete")
            try:
                store.complete(
                    fingerprint,
                    result,
                    spans=tracer.drain() if tracer is not None else None,
                )
            except OSError as error:
                store.fail(
                    fingerprint,
                    f"artifact write failed: {error}",
                    code=exit_code_for(error),
                )
        _announce(done, fingerprint)
        store.record_cache_stats(cache.cache_stats.diff(before))


def _record_failure_spans(
    store: Store, fingerprint: str, tracer: Optional[Tracer]
) -> None:
    """Keep a failed job's spans in the ledger for post-mortems."""
    if tracer is None:
        return
    try:
        store.record_spans(fingerprint, tracer.drain())
    except OSError:
        pass  # telemetry must never mask the recorded failure


class WorkerPool:
    """A supervised pool of worker processes over one store root."""

    def __init__(
        self,
        root: str,
        workers: int = 2,
        job_timeout: float = 300.0,
        max_attempts: int = 2,
        poll_interval: float = 0.05,
        max_queue_depth: Optional[int] = None,
    ) -> None:
        """``job_timeout`` bounds one pipeline execution;
        ``max_attempts`` bounds retries of crashed-worker jobs;
        ``poll_interval`` is the heartbeat: the longest an idle worker
        waits for a wake-up before re-checking the queue, and the
        supervisor's period; ``max_queue_depth`` enables the store's
        submission backpressure (429 at the HTTP layer)."""
        if workers < 1:
            raise ValueError(f"workers must be >= 1, not {workers}")
        self.root = root
        self.workers = workers
        self.job_timeout = job_timeout
        self.poll_interval = poll_interval
        self.store = Store(
            root, max_attempts=max_attempts, max_queue_depth=max_queue_depth
        )
        self._context = multiprocessing.get_context()
        self._stop = self._context.Event()
        self._wake = self._context.Semaphore(0)
        self._done_reader, self._done_writer = self._context.Pipe(duplex=False)
        self._changed = threading.Condition()
        self._transitions = 0
        self._processes: List[multiprocessing.Process] = []
        self._supervisor: Optional[threading.Thread] = None
        self._listener: Optional[threading.Thread] = None
        self._halt = threading.Event()
        self.timeouts = 0
        self.crashes = 0
        self.respawns = 0

    def start(self) -> None:
        """Spawn the workers, the supervisor heartbeat and the listener
        that turns worker announcements into waiter wake-ups.

        The stage modules (:data:`STAGE_MODULES`) are imported first,
        so forked workers inherit them."""
        self._halt.clear()
        self._stop.clear()
        for name in STAGE_MODULES:
            importlib.import_module(name)
        for _ in range(self.workers):
            self._spawn()
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-service-supervisor", daemon=True
        )
        self._supervisor.start()
        self._listener = threading.Thread(
            target=self._listen, name="repro-service-listener", daemon=True
        )
        self._listener.start()

    def _spawn(self) -> None:
        process = self._context.Process(
            target=worker_loop,
            args=(
                self.root, self._stop, self._wake, self._done_writer,
                self.poll_interval,
            ),
            daemon=True,
        )
        with fork_guard():
            process.start()
        self._processes.append(process)

    def submit(self, spec: JobSpec, trace: Optional[str] = None) -> Dict[str, Any]:
        """:meth:`Store.submit`, waking an idle worker when it queued work.

        A deduplicated submission queues nothing, so it wakes nobody.
        """
        submitted = self.store.submit(spec, trace=trace)
        if not submitted["deduplicated"]:
            self._wake.release()
        return submitted

    @property
    def transitions(self) -> int:
        """How many job transitions the pool has announced so far."""
        return self._transitions

    def announce(self) -> None:
        """Count a transition and wake every :meth:`await_transition`
        (a job changed state, or the server is answering held requests
        before it stops)."""
        with self._changed:
            self._transitions += 1
            self._changed.notify_all()

    def await_transition(self, seen: int, timeout: float) -> int:
        """Block until :attr:`transitions` moves past ``seen`` or
        ``timeout`` seconds pass; returns the current count.

        Read :attr:`transitions` *before* reading the store, then pass
        it here: a transition announced in between returns at once
        instead of being missed.
        """
        with self._changed:
            self._changed.wait_for(lambda: self._transitions != seen, timeout)
            return self._transitions

    def _listen(self) -> None:
        """Relay worker announcements until :meth:`stop` sends ``b""``."""
        while True:
            try:
                message = self._done_reader.recv_bytes()
            except (EOFError, OSError):
                return
            if not message:
                return
            self.announce()

    def alive_workers(self) -> int:
        """How many worker processes are currently running."""
        return sum(1 for process in self._processes if process.is_alive())

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (the robustness tests aim at these)."""
        return [
            process.pid
            for process in self._processes
            if process.is_alive() and process.pid is not None
        ]

    def _supervise(self) -> None:
        """Heartbeat: enforce timeouts, sweep crashes, respawn workers."""
        while not self._halt.wait(self.poll_interval):
            try:
                self._enforce_timeouts()
                self._sweep_crashes()
            except Exception:  # noqa: BLE001 — the heartbeat must survive
                pass

    def _enforce_timeouts(self) -> None:
        now = time.time()
        by_pid: Dict[int, multiprocessing.Process] = {
            process.pid: process
            for process in self._processes
            if process.pid is not None
        }
        for job in self.store.running_jobs():
            started = job["started_at"] or now
            if now - started <= self.job_timeout:
                continue
            process = by_pid.get(job["worker_pid"])
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            state = self.store.fail(
                job["fingerprint"],
                f"timed out after {self.job_timeout:g}s",
                retry=False,
                expect_pid=job["worker_pid"],
                code=70,
            )
            if state is not None:
                self.timeouts += 1
                self.announce()

    def _sweep_crashes(self) -> None:
        dead = [process for process in self._processes if not process.is_alive()]
        if not dead:
            return
        dead_pids = {process.pid for process in dead}
        self._processes = [
            process for process in self._processes if process.is_alive()
        ]
        for job in self.store.running_jobs():
            if job["worker_pid"] in dead_pids:
                state = self.store.fail(
                    job["fingerprint"],
                    f"worker (pid {job['worker_pid']}) died mid-job",
                    retry=True,
                    expect_pid=job["worker_pid"],
                    code=70,
                )
                if state is not None:
                    self.crashes += 1
                if state == "queued":
                    self._wake.release()
        # also covers a worker that died after committing, before its
        # announcement went out
        self.announce()
        if not self._halt.is_set():
            while len(self._processes) < self.workers:
                self._spawn()
                self.respawns += 1

    def stop(self, drain: bool = True, timeout: float = 30.0) -> int:
        """Stop the pool; returns how many jobs were in flight.

        ``drain=True`` waits (up to ``timeout``) for in-flight jobs to
        finish — the workers exit after completing the job in hand.
        ``drain=False`` terminates the workers immediately; their jobs
        are swept back to the queue as transient failures on the next
        boot's claim, or by a concurrently running supervisor.
        """
        in_flight = len(self.store.running_jobs())
        self._halt.set()
        self._stop.set()
        for _ in self._processes:
            self._wake.release()  # idle workers see the stop now
        if not drain:
            for process in self._processes:
                if process.is_alive():
                    process.terminate()
        deadline = time.time() + timeout
        for process in self._processes:
            remaining = max(0.1, deadline - time.time())
            process.join(timeout=remaining)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
        if self._listener is not None:
            self._done_writer.send_bytes(b"")
            self._listener.join(timeout=5.0)
            self._listener = None
        self._processes = []
        return in_flight
