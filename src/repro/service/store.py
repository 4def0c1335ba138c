"""The shared, concurrency-safe job and artifact store.

One directory holds the whole service state, so a restarted daemon (or
a second one pointed at the same root) resumes where the last left
off::

    <root>/jobs.sqlite      job/result metadata (WAL, multi-process safe)
    <root>/artifacts/<fp>/  layout.cif + result.json (+ trace.jsonl) per job
    <root>/cache/           the shared CompactionCache directory

The SQLite schema is the job ledger: one row per content fingerprint
with a state machine ``queued → running → done|failed`` (a retryable
failure re-enters ``queued``).  Claiming is an ``BEGIN IMMEDIATE``
transaction, so concurrent workers — separate *processes* with their
own connections — never run the same job twice; ``executions`` counts
how many times a worker actually started the pipeline (the
deduplication proof the tests assert on) and ``submissions`` how many
times clients asked, so ``submissions / executions`` is the fleet-wide
dedup factor.

Each :class:`Store` keeps one SQLite connection for its whole life,
opened on first use and shared by its threads under a lock.  Closing
the last connection to a WAL database checkpoints and deletes the WAL
(https://www.sqlite.org/wal.html), so a connection per operation would
pay that on every hand-off.  :func:`fork_guard` closes every store's
connection around a ``fork()``, and each store reopens on its next
operation.

Artifacts are written through temporary files and ``os.replace`` and
the job row flips to ``done`` only afterwards, so a reader that sees
``done`` always finds complete artifacts.  Each artifact also gets a
sidecar SHA-256 digest (``<name>.sha256``) of its intended bytes:
downloads verify it before serving, so a torn artifact — out-of-band
corruption, a partial write published by a non-atomic filesystem — is
**quarantined** (moved under ``<root>/quarantine/``) and answered 404
rather than ever served.  :meth:`Store.recover` is the
crash-consistent boot pass: it re-queues ``running`` rows whose
worker pid is dead and quarantines/re-queues ``done`` jobs with torn
or missing artifacts, leaving the ledger consistent after any hard
kill.  ``max_queue_depth`` adds backpressure — a full queue rejects
new work with :class:`~repro.core.errors.QueueFullError` (HTTP 429 +
``Retry-After``) instead of growing without bound — and
:meth:`Store.evict` is the GC half: LRU-by-atime artifact eviction
under a byte budget that refuses to touch queued/running jobs.

Counters from every worker's
:class:`~repro.compact.cache.CacheStats` accumulate in the
``counters`` table — that is what the ``/stats`` endpoint reports as
the fleet-wide cache hit rate — alongside the robustness counters
(``backpressure_rejections``, ``quarantined``, ``recovery_requeued``).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sqlite3
import threading
import time
import weakref
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..compact.cache import CacheStats, CompactionCache
from ..core.errors import QueueFullError, ServiceError
from ..obs.render import spans_to_jsonl
from ..obs.trace import Span, parse_token
from . import chaos
from .jobs import JobResult, JobSpec

__all__ = ["Store", "fork_guard", "gc_main"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    fingerprint TEXT PRIMARY KEY,
    spec        TEXT NOT NULL,
    state       TEXT NOT NULL,
    error       TEXT,
    error_code  INTEGER,
    attempts    INTEGER NOT NULL DEFAULT 0,
    executions  INTEGER NOT NULL DEFAULT 0,
    submissions INTEGER NOT NULL DEFAULT 0,
    worker_pid  INTEGER,
    submitted_at REAL,
    started_at   REAL,
    finished_at  REAL
);
CREATE TABLE IF NOT EXISTS timings (
    fingerprint TEXT NOT NULL,
    stage       TEXT NOT NULL,
    seconds     REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS counters (
    name  TEXT PRIMARY KEY,
    value INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS spans (
    fingerprint TEXT NOT NULL,
    start_s     REAL NOT NULL,
    span        TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state, submitted_at);
CREATE INDEX IF NOT EXISTS spans_job ON spans (fingerprint, start_s);
"""

#: artifact files every ``done`` job must expose for download
ARTIFACT_NAMES = ("layout.cif", "result.json")

#: artifact files a job *may* additionally expose (absence is not torn)
OPTIONAL_ARTIFACT_NAMES = ("trace.jsonl",)


#: every live :class:`Store` in this process, guarded by ``_registry_lock``
_stores: "weakref.WeakSet[Store]" = weakref.WeakSet()
_registry_lock = threading.Lock()

#: connections a fork child inherited; held so its GC never closes them
_inherited: List[sqlite3.Connection] = []


def _reset_after_fork() -> None:
    """A child starts with unheld locks and no connection of its own.

    An inherited connection is never used or closed here: its SQLite
    lock bookkeeping describes the parent's locks, and closing it
    would release them and attempt a checkpoint on the parent's
    behalf.  It is parked in ``_inherited`` instead, so the child's
    garbage collector cannot close it either.
    """
    global _registry_lock
    _registry_lock = threading.Lock()
    for store in _stores:
        store._lock = threading.Lock()
        if store._connection is not None:
            _inherited.append(store._connection)
            store._connection = None


os.register_at_fork(after_in_child=_reset_after_fork)


@contextmanager
def fork_guard() -> Iterator[None]:
    """Run a ``fork()`` while no :class:`Store` of this process has a
    connection open.

    SQLite keeps its file-lock bookkeeping per process.  A child forked
    while a connection was open inherits that bookkeeping without the
    locks it describes.  Had a parent thread been mid-write, every write
    the child attempts waits out the 30 s busy timeout; otherwise the
    parent's later close can checkpoint and delete the WAL under the
    child.  Each store keeps one long-lived connection: this takes
    every live store's lock (waiting out any operation in flight),
    closes its connection, and holds both the locks and new stores back
    until the fork is done.  The parent reopens lazily on its next
    operation.
    """
    with _registry_lock:
        held = []
        try:
            for store in list(_stores):
                store._lock.acquire()
                held.append(store)
                if store._connection is not None:
                    store._connection.close()
                    store._connection = None
            yield
        finally:
            for store in held:
                store._lock.release()


def _digest(payload: bytes) -> str:
    """The sidecar digest of an artifact's intended bytes."""
    return hashlib.sha256(payload).hexdigest()


def _pid_alive(pid: Optional[int]) -> bool:
    """Whether ``pid`` names a live process on this host."""
    if not pid:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


class Store:
    """SQLite-backed job ledger plus on-disk artifacts and shared cache.

    Safe for concurrent use from many threads and processes: each
    instance owns one long-lived connection (WAL journal, busy timeout)
    that its lock hands to one thread at a time, and the claim path
    runs under ``BEGIN IMMEDIATE`` so two workers can never both claim
    one job.
    """

    def __init__(
        self,
        root: str,
        max_attempts: int = 2,
        max_queue_depth: Optional[int] = None,
        retry_after: float = 1.0,
    ) -> None:
        """``root`` is created on first use; ``max_attempts`` bounds the
        retry of transiently failed (crashed-worker) jobs.
        ``max_queue_depth`` enables backpressure: a submission that
        would queue past it raises
        :class:`~repro.core.errors.QueueFullError` advising clients to
        retry after ``retry_after`` seconds (``None`` = unbounded, the
        historical behaviour)."""
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "artifacts").mkdir(exist_ok=True)
        self.max_attempts = max_attempts
        self.max_queue_depth = max_queue_depth
        self.retry_after = retry_after
        self._db = self.root / "jobs.sqlite"
        self._lock = threading.Lock()
        self._connection: Optional[sqlite3.Connection] = None
        with _registry_lock:
            _stores.add(self)
        with self._connect() as connection:
            connection.executescript(_SCHEMA)
            columns = {
                row["name"]
                for row in connection.execute("PRAGMA table_info(jobs)")
            }
            if "error_code" not in columns:  # pre-robustness ledger
                connection.execute("ALTER TABLE jobs ADD COLUMN error_code INTEGER")
            if "trace_id" not in columns:  # pre-observability ledger
                connection.execute("ALTER TABLE jobs ADD COLUMN trace_id TEXT")
                connection.execute("ALTER TABLE jobs ADD COLUMN trace_parent TEXT")

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        """This store's connection: commit on success, roll back on error.

        The connection is opened on first use and kept for the store's
        life, so no operation pays the checkpoint SQLite runs when the
        last connection to a WAL database closes.  The store's lock is
        held throughout, so one thread at a time uses it.
        """
        with self._lock:
            if self._connection is None:
                connection = sqlite3.connect(
                    self._db, timeout=30.0, check_same_thread=False
                )
                connection.row_factory = sqlite3.Row
                connection.execute("PRAGMA journal_mode=WAL")
                connection.execute("PRAGMA synchronous=NORMAL")
                self._connection = connection
            with self._connection:
                yield self._connection

    def compaction_cache(self) -> CompactionCache:
        """A process-local handle on the shared compaction cache."""
        return CompactionCache(str(self.root / "cache"))

    # ------------------------------------------------------------------
    # submission and dedup

    def submit(self, spec: JobSpec, trace: Optional[str] = None) -> Dict[str, Any]:
        """Register ``spec`` and return ``{job, state, deduplicated}``.

        The fingerprint is the job identity: a resubmission of known
        content attaches to the existing row (``deduplicated: True``)
        whatever its state — a ``done`` job is served straight from the
        store, a ``queued``/``running`` one is joined, and a ``failed``
        one is re-queued for a fresh set of attempts.

        ``trace`` is an optional ``"trace_id:span_id"`` propagation
        token (the :data:`repro.obs.trace.TRACE_HEADER` value): it is
        recorded on the job row whenever the submission (re)queues the
        job, so the worker process that later claims it can root its
        spans under the submitting client's.

        When ``max_queue_depth`` is set, a submission that would add a
        *new* queue entry (a fresh job or a failed-job re-queue) while
        the queue is full raises
        :class:`~repro.core.errors.QueueFullError` instead — attaching
        to an existing queued/running/done row is always allowed, so
        backpressure never breaks deduplication.
        """
        fingerprint = spec.fingerprint
        now = time.time()
        queue_full = False
        trace_id, trace_parent = parse_token(trace)
        with self._connect() as connection:
            connection.execute("BEGIN IMMEDIATE")
            row = connection.execute(
                "SELECT state FROM jobs WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
            state = row["state"] if row is not None else None
            if state in (None, "failed") and self._queue_is_full(connection):
                queue_full = True
            elif row is None:
                connection.execute(
                    "INSERT INTO jobs (fingerprint, spec, state, submissions,"
                    " submitted_at, trace_id, trace_parent)"
                    " VALUES (?, ?, 'queued', 1, ?, ?, ?)",
                    (fingerprint, json.dumps(spec.to_dict()), now,
                     trace_id, trace_parent),
                )
                return {"job": fingerprint, "state": "queued", "deduplicated": False}
            elif state == "failed":
                connection.execute(
                    "UPDATE jobs SET state = 'queued', error = NULL,"
                    " error_code = NULL, attempts = 0,"
                    " submissions = submissions + 1,"
                    " submitted_at = ?, worker_pid = NULL,"
                    " trace_id = ?, trace_parent = ? WHERE fingerprint = ?",
                    (now, trace_id, trace_parent, fingerprint),
                )
                return {"job": fingerprint, "state": "queued", "deduplicated": False}
            else:
                connection.execute(
                    "UPDATE jobs SET submissions = submissions + 1"
                    " WHERE fingerprint = ?",
                    (fingerprint,),
                )
                return {"job": fingerprint, "state": state, "deduplicated": True}
        assert queue_full
        self.bump("backpressure_rejections")
        raise QueueFullError(
            f"queue is full ({self.max_queue_depth} job(s) waiting);"
            f" retry in {self.retry_after:g}s",
            retry_after=self.retry_after,
        )

    def _queue_is_full(self, connection: sqlite3.Connection) -> bool:
        """Whether the queued backlog is at the configured limit."""
        if self.max_queue_depth is None:
            return False
        depth = connection.execute(
            "SELECT COUNT(*) FROM jobs WHERE state = 'queued'"
        ).fetchone()[0]
        return depth >= self.max_queue_depth

    # ------------------------------------------------------------------
    # the worker side

    def claim(self, worker_pid: int) -> Optional[Tuple[str, JobSpec]]:
        """Atomically claim the oldest queued job, or return ``None``.

        The claimed row moves to ``running`` with this worker's pid and
        bumped ``attempts``/``executions`` counters — the single place
        a pipeline execution is accounted.  A stored spec this build
        cannot load (an option an older build offered and this one
        removed) fails its job here, and ``None`` is returned.
        """
        with self._connect() as connection:
            connection.execute("BEGIN IMMEDIATE")
            row = connection.execute(
                "SELECT fingerprint, spec FROM jobs WHERE state = 'queued'"
                " ORDER BY submitted_at LIMIT 1"
            ).fetchone()
            if row is None:
                return None
            connection.execute(
                "UPDATE jobs SET state = 'running', worker_pid = ?,"
                " started_at = ?, attempts = attempts + 1,"
                " executions = executions + 1 WHERE fingerprint = ?",
                (worker_pid, time.time(), row["fingerprint"]),
            )
            chaos.fire("store.claim.pre_commit")  # crash here: claim rolls back
        chaos.fire("store.claim.post_commit")  # crash here: running row, dead pid
        try:
            return row["fingerprint"], JobSpec.from_dict(json.loads(row["spec"]))
        except ServiceError as error:
            from ..cli import EXIT_SERVICE

            self.fail(row["fingerprint"], f"ServiceError: {error}", code=EXIT_SERVICE)
            return None

    def complete(
        self,
        fingerprint: str,
        result: JobResult,
        spans: Optional[List[Span]] = None,
    ) -> None:
        """Persist ``result``'s artifacts, then mark the job ``done``.

        Artifact writes happen *before* the state flip, each through a
        temporary file and ``os.replace``, so a client that observes
        ``done`` can always download complete artifacts.  A sidecar
        SHA-256 of the intended bytes is written *before* each
        artifact: a later read that does not match it (out-of-band
        corruption, a torn write on a filesystem without atomic
        rename) is detected and quarantined rather than served.

        ``spans`` are the worker's finished trace spans for this job;
        together with any spans recorded earlier (the server's
        submission spans) they become the optional ``trace.jsonl``
        artifact, digest-verified like every other artifact but never
        *required* — a trace-less job is complete, not torn.
        """
        if spans:
            self.record_spans(fingerprint, spans)
        chaos.fire("store.complete.pre_artifact")
        directory = self.artifact_dir(fingerprint)
        directory.mkdir(parents=True, exist_ok=True)
        self._write_trace_artifact(fingerprint, directory)
        payloads = {
            "layout.cif": result.cif.encode("utf-8"),
            "result.json": (
                json.dumps(result.to_dict(), indent=2) + "\n"
            ).encode("utf-8"),
        }
        for name, payload in payloads.items():
            self._write_atomic(
                directory / f"{name}.sha256",
                (_digest(payload) + "\n").encode("ascii"),
            )
            self._write_atomic(
                directory / name,
                chaos.mangle("store.artifact.write", payload),
            )
        with self._connect() as connection:
            connection.execute("BEGIN IMMEDIATE")
            connection.execute(
                "UPDATE jobs SET state = 'done', error = NULL, error_code = NULL,"
                " finished_at = ?, worker_pid = NULL WHERE fingerprint = ?",
                (time.time(), fingerprint),
            )
            connection.executemany(
                "INSERT INTO timings (fingerprint, stage, seconds) VALUES (?, ?, ?)",
                [
                    (fingerprint, stage, seconds)
                    for stage, seconds in result.timings.items()
                ],
            )
            chaos.fire("store.complete.pre_commit")  # crash: artifacts, no flip
        chaos.fire("store.complete.post_commit")

    def fail(
        self,
        fingerprint: str,
        error: str,
        retry: bool = False,
        expect_pid: Optional[int] = None,
        code: Optional[int] = None,
    ) -> Optional[str]:
        """Record a failure; returns the job's resulting state.

        ``retry=True`` (transient failures: a crashed worker) re-queues
        the job until ``max_attempts`` is exhausted.  ``expect_pid``
        guards the supervisor's crash sweep: the update only applies if
        the job is still running under that pid — ``None`` is returned
        (and nothing changes) when it is not, so a job whose worker
        finished or was re-judged a heartbeat ago is left alone.
        ``code`` is the CLI exit-code family of the failure
        (:func:`repro.cli.exit_code_for`), recorded on the terminal
        ``failed`` row so every surfaced failure is classifiable.
        """
        with self._connect() as connection:
            connection.execute("BEGIN IMMEDIATE")
            guard = "state = 'running'"
            values: List[Any] = []
            if expect_pid is not None:
                guard += " AND worker_pid = ?"
                values.append(expect_pid)
            row = connection.execute(
                f"SELECT attempts, state FROM jobs WHERE fingerprint = ? AND {guard}",
                [fingerprint, *values],
            ).fetchone()
            if row is None:
                return None
            if retry and row["attempts"] < self.max_attempts:
                connection.execute(
                    "UPDATE jobs SET state = 'queued', worker_pid = NULL,"
                    " error = ? WHERE fingerprint = ?",
                    (error, fingerprint),
                )
                return "queued"
            connection.execute(
                "UPDATE jobs SET state = 'failed', worker_pid = NULL,"
                " error = ?, error_code = ?, finished_at = ? WHERE fingerprint = ?",
                (error, code, time.time(), fingerprint),
            )
            return "failed"

    def record_cache_stats(self, stats: CacheStats) -> None:
        """Accumulate a worker's cache-counter deltas fleet-wide."""
        with self._connect() as connection:
            connection.execute("BEGIN IMMEDIATE")
            for name, value in stats.to_dict().items():
                if value:
                    connection.execute(
                        "INSERT INTO counters (name, value) VALUES (?, ?)"
                        " ON CONFLICT(name) DO UPDATE SET value = value + ?",
                        (f"cache_{name}", value, value),
                    )

    # ------------------------------------------------------------------
    # trace spans

    def record_spans(self, fingerprint: str, spans: List[Span]) -> None:
        """Append finished spans to a job's trace in the ledger."""
        if not spans:
            return
        with self._connect() as connection:
            connection.execute("BEGIN IMMEDIATE")
            connection.executemany(
                "INSERT INTO spans (fingerprint, start_s, span) VALUES (?, ?, ?)",
                [
                    (fingerprint, s.start_s, json.dumps(s.to_dict(), sort_keys=True))
                    for s in spans
                ],
            )

    def trace_spans(self, fingerprint: str) -> List[Span]:
        """Every recorded span of a job, oldest first."""
        with self._connect() as connection:
            rows = connection.execute(
                "SELECT span FROM spans WHERE fingerprint = ?"
                " ORDER BY start_s, rowid",
                (fingerprint,),
            ).fetchall()
        return [Span.from_dict(json.loads(row["span"])) for row in rows]

    def append_trace(self, fingerprint: str, spans: List[Span]) -> bool:
        """Attach late spans (the client's side) to a finished trace.

        The client's submit/wait spans only finish *after* the worker
        completed the job, so they arrive via ``POST
        /jobs/<fp>/trace``.  They are appended to the span ledger and,
        when the job is already ``done``, the ``trace.jsonl`` artifact
        (and its digest) is rewritten to include them.  Returns whether
        the job exists.
        """
        status = self.status(fingerprint)
        if status is None:
            return False
        self.record_spans(fingerprint, spans)
        if status["state"] == "done":
            directory = self.artifact_dir(fingerprint)
            if directory.is_dir():
                self._write_trace_artifact(fingerprint, directory)
        return True

    def _write_trace_artifact(self, fingerprint: str, directory: Path) -> None:
        """(Re)write ``trace.jsonl`` + digest from the span ledger.

        Deliberately *not* routed through the ``store.artifact.write``
        chaos seam: the seeded fault plans count mangle calls to aim at
        specific required-artifact writes, and the optional trace must
        not shift their trigger windows.
        """
        spans = self.trace_spans(fingerprint)
        if not spans:
            return
        payload = spans_to_jsonl(spans)
        self._write_atomic(
            directory / "trace.jsonl.sha256",
            (_digest(payload) + "\n").encode("ascii"),
        )
        self._write_atomic(directory / "trace.jsonl", payload)

    # ------------------------------------------------------------------
    # the client side

    def status(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The job row as a dict, or ``None`` for an unknown job."""
        with self._connect() as connection:
            row = connection.execute(
                "SELECT * FROM jobs WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
        if row is None:
            return None
        status = dict(row)
        status["job"] = status.pop("fingerprint")
        status.pop("spec", None)
        return status

    def result(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """Status plus the stored ``result.json`` for a ``done`` job."""
        status = self.status(fingerprint)
        if status is None:
            return None
        if status["state"] == "done":
            path = self.artifact_dir(fingerprint) / "result.json"
            try:
                status["result"] = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                status["result"] = None
                status["error"] = "artifacts missing or unreadable"
        return status

    def artifact_dir(self, fingerprint: str) -> Path:
        """Directory holding one job's artifacts."""
        return self.root / "artifacts" / fingerprint

    def artifact_bytes(self, fingerprint: str, name: str) -> Optional[bytes]:
        """One artifact's verified raw bytes, or ``None`` when absent.

        ``name`` must be a known artifact file — arbitrary paths are
        rejected so the HTTP layer cannot be walked out of the store.
        When a sidecar digest exists, the payload is verified against
        it before being served: a mismatch (a torn or corrupted
        artifact) quarantines the whole artifact directory and returns
        ``None`` — the no-torn-artifact-is-ever-served invariant.
        """
        if name not in ARTIFACT_NAMES + OPTIONAL_ARTIFACT_NAMES:
            available = ", ".join(ARTIFACT_NAMES + OPTIONAL_ARTIFACT_NAMES)
            raise ServiceError(
                f"unknown artifact {name!r} (available: {available})"
            )
        directory = self.artifact_dir(fingerprint)
        try:
            payload = (directory / name).read_bytes()
        except OSError:
            return None
        try:
            expected = (directory / f"{name}.sha256").read_text("ascii").strip()
        except OSError:
            return payload  # pre-digest artifact: serve as before
        if _digest(payload) != expected:
            self.quarantine(fingerprint, reason=f"digest mismatch on {name}")
            return None
        return payload

    def quarantine(self, fingerprint: str, reason: str = "") -> Optional[Path]:
        """Move a job's artifacts out of serving range; returns the spot.

        The directory lands under ``<root>/quarantine/<fingerprint>``
        (merged over any earlier quarantine of the same job) for
        post-mortem inspection, and the ``quarantined`` counter is
        bumped — ``/healthz`` reports it as a degraded signal.
        """
        source = self.artifact_dir(fingerprint)
        if not source.exists():
            return None
        target = self.root / "quarantine" / fingerprint
        if target.exists():
            shutil.rmtree(target, ignore_errors=True)
        target.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(source, target)
        except OSError:
            shutil.rmtree(source, ignore_errors=True)
        self.bump("quarantined")
        return target

    # ------------------------------------------------------------------
    # crash-consistent recovery and GC

    def recover(self) -> Dict[str, Any]:
        """Make the ledger consistent after a hard kill; run at boot.

        Two passes, both idempotent:

        * **orphaned claims** — ``running`` rows whose worker pid is no
          longer alive (the daemon was SIGKILLed, the host rebooted)
          are re-queued as transient failures, or failed for good once
          ``max_attempts`` is exhausted;
        * **artifact integrity** — every ``done`` job's artifacts are
          verified against their sidecar digests; a torn or missing
          artifact quarantines the directory and re-queues the job for
          a fresh execution (content-addressed jobs are always safely
          recomputable).

        Returns ``{"requeued", "failed", "quarantined"}`` fingerprint
        lists and accumulates the ``recovery_requeued`` /
        ``quarantined`` counters that ``/healthz`` reports.
        """
        report: Dict[str, Any] = {"requeued": [], "failed": [], "quarantined": []}
        for job in self.running_jobs():
            pid = job["worker_pid"]
            if _pid_alive(pid):
                continue
            state = self.fail(
                job["fingerprint"],
                f"worker (pid {pid}) lost before restart",
                retry=True,
                expect_pid=pid,
                code=70,
            )
            if state == "queued":
                report["requeued"].append(job["fingerprint"])
            elif state == "failed":
                report["failed"].append(job["fingerprint"])
        with self._connect() as connection:
            done = [
                row["fingerprint"]
                for row in connection.execute(
                    "SELECT fingerprint FROM jobs WHERE state = 'done'"
                )
            ]
        for fingerprint in done:
            if self._artifacts_intact(fingerprint):
                continue
            self.quarantine(fingerprint, reason="recovery integrity check")
            report["quarantined"].append(fingerprint)
            with self._connect() as connection:
                connection.execute("BEGIN IMMEDIATE")
                connection.execute(
                    "UPDATE jobs SET state = 'queued', error = NULL,"
                    " error_code = NULL, attempts = 0, worker_pid = NULL"
                    " WHERE fingerprint = ? AND state = 'done'",
                    (fingerprint,),
                )
            report["requeued"].append(fingerprint)
        if report["requeued"]:
            self.bump("recovery_requeued", len(report["requeued"]))
        return report

    def _artifacts_intact(self, fingerprint: str) -> bool:
        """Whether every artifact of a ``done`` job matches its digest.

        Required artifacts must exist and match; optional artifacts
        (the trace) may be absent, but when present must match — a torn
        trace quarantines the job like any other torn artifact.
        """
        directory = self.artifact_dir(fingerprint)
        for name in ARTIFACT_NAMES + OPTIONAL_ARTIFACT_NAMES:
            try:
                payload = (directory / name).read_bytes()
            except OSError:
                if name in OPTIONAL_ARTIFACT_NAMES:
                    continue  # optional artifact: absence is fine
                return False
            try:
                expected = (directory / f"{name}.sha256").read_text("ascii").strip()
            except OSError:
                continue  # pre-digest artifact: nothing to check against
            if _digest(payload) != expected:
                return False
        return True

    def evict(self, max_bytes: int) -> Dict[str, Any]:
        """Shrink the artifact store below ``max_bytes``, LRU by atime.

        Terminal jobs (``done``/``failed``) are eviction candidates,
        least-recently-used first (file access time, falling back to
        modification time on ``noatime`` mounts); queued and running
        jobs are never touched.  Evicting a job removes its artifacts
        *and* its ledger row — the job is content-addressed, so a
        future submission of the same content simply re-runs the
        pipeline.  Returns ``{"evicted", "freed_bytes", "kept_bytes",
        "skipped_live"}``.
        """
        live = set()
        with self._connect() as connection:
            for row in connection.execute(
                "SELECT fingerprint, state FROM jobs"
                " WHERE state IN ('queued', 'running')"
            ):
                live.add(row["fingerprint"])
        report: Dict[str, Any] = {
            "evicted": 0, "freed_bytes": 0, "kept_bytes": 0, "skipped_live": 0,
        }
        candidates = []
        live_bytes = 0
        artifacts = self.root / "artifacts"
        for directory in artifacts.iterdir() if artifacts.exists() else ():
            if not directory.is_dir():
                continue
            size = used = 0
            for path in directory.iterdir():
                try:
                    stat = path.stat()
                except OSError:
                    continue
                size += stat.st_size
                used = max(used, stat.st_atime, stat.st_mtime)
            if directory.name in live:
                report["skipped_live"] += 1
                live_bytes += size
                continue
            candidates.append((used, size, directory))
        candidates.sort()
        total = live_bytes + sum(size for _, size, _ in candidates)
        evicted = []
        for _, size, directory in candidates:
            if total <= max_bytes:
                break
            shutil.rmtree(directory, ignore_errors=True)
            evicted.append(directory.name)
            total -= size
            report["evicted"] += 1
            report["freed_bytes"] += size
        report["kept_bytes"] = total
        if evicted:
            with self._connect() as connection:
                connection.execute("BEGIN IMMEDIATE")
                for fingerprint in evicted:
                    connection.execute(
                        "DELETE FROM jobs WHERE fingerprint = ?"
                        " AND state IN ('done', 'failed')",
                        (fingerprint,),
                    )
                    connection.execute(
                        "DELETE FROM timings WHERE fingerprint = ?", (fingerprint,)
                    )
                    connection.execute(
                        "DELETE FROM spans WHERE fingerprint = ?", (fingerprint,)
                    )
            self.bump("evicted", len(evicted))
        return report

    # ------------------------------------------------------------------
    # observability

    def bump(self, name: str, value: int = 1) -> None:
        """Accumulate ``value`` onto the persistent counter ``name``."""
        with self._connect() as connection:
            connection.execute("BEGIN IMMEDIATE")
            connection.execute(
                "INSERT INTO counters (name, value) VALUES (?, ?)"
                " ON CONFLICT(name) DO UPDATE SET value = value + ?",
                (name, value, value),
            )

    def counter(self, name: str) -> int:
        """The persistent counter ``name`` (0 when never bumped)."""
        with self._connect() as connection:
            row = connection.execute(
                "SELECT value FROM counters WHERE name = ?", (name,)
            ).fetchone()
        return row["value"] if row is not None else 0

    def jobs(self) -> List[Dict[str, Any]]:
        """Every ledger row as a status dict (the invariant checker's view)."""
        with self._connect() as connection:
            rows = connection.execute("SELECT * FROM jobs").fetchall()
        result = []
        for row in rows:
            status = dict(row)
            status["job"] = status.pop("fingerprint")
            status.pop("spec", None)
            result.append(status)
        return result

    def stage_samples(self) -> List[Tuple[str, float]]:
        """Every per-stage latency sample as ``(stage, seconds)`` rows.

        This is the raw feed for the ``/metrics`` per-stage latency
        histograms — ``stats()`` only carries the mean/max digest.
        """
        with self._connect() as connection:
            rows = connection.execute(
                "SELECT stage, seconds FROM timings ORDER BY rowid"
            ).fetchall()
        return [(row["stage"], row["seconds"]) for row in rows]

    def queue_depth(self) -> int:
        """Number of jobs waiting to be claimed."""
        with self._connect() as connection:
            return connection.execute(
                "SELECT COUNT(*) FROM jobs WHERE state = 'queued'"
            ).fetchone()[0]

    def running_jobs(self) -> List[Dict[str, Any]]:
        """Jobs currently claimed by a worker (for the supervisor)."""
        with self._connect() as connection:
            rows = connection.execute(
                "SELECT fingerprint, worker_pid, started_at, attempts"
                " FROM jobs WHERE state = 'running'"
            ).fetchall()
        return [dict(row) for row in rows]

    def stats(self) -> Dict[str, Any]:
        """Fleet-wide statistics for the ``/stats`` endpoint."""
        with self._connect() as connection:
            states = dict(
                connection.execute(
                    "SELECT state, COUNT(*) FROM jobs GROUP BY state"
                ).fetchall()
            )
            submissions, executions = connection.execute(
                "SELECT COALESCE(SUM(submissions), 0),"
                " COALESCE(SUM(executions), 0) FROM jobs"
            ).fetchone()
            stage_rows = connection.execute(
                "SELECT stage, COUNT(*), AVG(seconds), MAX(seconds)"
                " FROM timings GROUP BY stage"
            ).fetchall()
            counters = dict(
                connection.execute("SELECT name, value FROM counters").fetchall()
            )
        cache_hits = counters.get("cache_hits", 0)
        cache_lookups = cache_hits + counters.get("cache_misses", 0)
        return {
            "jobs": states,
            "queue_depth": states.get("queued", 0),
            "max_queue_depth": self.max_queue_depth,
            "backpressure_rejections": counters.get("backpressure_rejections", 0),
            "quarantined": counters.get("quarantined", 0),
            "recovery_requeued": counters.get("recovery_requeued", 0),
            "evicted": counters.get("evicted", 0),
            "submissions": submissions,
            "executions": executions,
            "dedup_factor": (submissions / executions) if executions else None,
            "stage_latency": {
                stage: {"count": count, "mean_s": mean, "max_s": maximum}
                for stage, count, mean, maximum in stage_rows
            },
            "cache": {
                **counters,
                "hit_rate": (cache_hits / cache_lookups) if cache_lookups else None,
            },
        }

    @staticmethod
    def _write_atomic(path: Path, payload: bytes) -> None:
        """Write ``payload`` to ``path`` via a same-directory rename."""
        temporary = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
        temporary.write_bytes(payload)
        os.replace(temporary, path)


def _parse_size(text: str) -> int:
    """Parse a byte budget: plain bytes or a K/M/G-suffixed figure."""
    text = text.strip()
    multiplier = 1
    suffixes = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if text and text[-1].upper() in suffixes:
        multiplier = suffixes[text[-1].upper()]
        text = text[:-1]
    try:
        value = int(float(text) * multiplier)
    except ValueError:
        raise ServiceError(
            f"bad size {text!r} (use bytes or a K/M/G suffix, e.g. 500M)"
        ) from None
    if value < 0:
        raise ServiceError("size budgets must be non-negative")
    return value


def gc_main(argv: Optional[List[str]] = None) -> int:
    """``repro gc``: evict cold artifacts and cache entries from a root.

    Long-lived service roots grow without bound — every distinct job
    ever run keeps its artifacts, and every distinct cell geometry its
    compaction memo.  This verb applies the LRU byte budgets
    (:meth:`Store.evict` / ``CompactionCache.evict``), never touching
    queued or running jobs, and prints what it freed.  Safe to run
    against the root of a live daemon.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro gc",
        description="Garbage-collect a layout-service root: evict"
        " least-recently-used artifacts and compaction-cache entries"
        " down to byte budgets, skipping queued/running jobs.",
    )
    parser.add_argument(
        "--root",
        default=".repro-service",
        metavar="DIR",
        help="service state directory (default: .repro-service)",
    )
    parser.add_argument(
        "--max-bytes",
        metavar="SIZE",
        help="artifact-store budget (bytes, or K/M/G-suffixed)",
    )
    parser.add_argument(
        "--cache-max-bytes",
        metavar="SIZE",
        help="compaction-cache budget (bytes, or K/M/G-suffixed)",
    )
    arguments = parser.parse_args(argv)
    if arguments.max_bytes is None and arguments.cache_max_bytes is None:
        parser.error("nothing to do: give --max-bytes and/or --cache-max-bytes")
    if not Path(arguments.root).is_dir():
        raise ServiceError(f"no service root at {arguments.root!r}")
    store = Store(arguments.root)
    if arguments.max_bytes is not None:
        report = store.evict(_parse_size(arguments.max_bytes))
        print(
            f"artifacts: evicted {report['evicted']} job(s),"
            f" freed {report['freed_bytes']} byte(s),"
            f" kept {report['kept_bytes']} byte(s)"
            f" ({report['skipped_live']} live job(s) untouched)"
        )
    if arguments.cache_max_bytes is not None:
        report = store.compaction_cache().evict(
            _parse_size(arguments.cache_max_bytes)
        )
        print(
            f"cache: evicted {report['evicted']} entr(ies),"
            f" freed {report['freed_bytes']} byte(s),"
            f" kept {report['kept_bytes']} byte(s)"
        )
    return 0
