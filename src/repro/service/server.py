"""The HTTP front end: a stdlib JSON API over store and pool.

Endpoints (all JSON unless noted)::

    POST /jobs                   submit a job spec -> {job, state, deduplicated}
                                 (429 + Retry-After when the queue is full;
                                 an X-Repro-Trace-Id header joins the
                                 client's trace to the job's span tree)
    POST /jobs/<fp>/trace        append the client's finished spans to a
                                 job's trace artifact
    GET  /jobs/<fp>              job status
    GET  /jobs/<fp>/result       result.json + status (202 while pending)
    GET  /jobs/<fp>/result?wait=S  the same, held up to S seconds (at most
                                 MAX_RESULT_WAIT) until the job is done or
                                 failed; a worker's completion answers it
                                 at once (400 for a malformed or negative S)
    GET  /jobs/<fp>/artifact/<name>  digest-verified artifact bytes
                                 (layout.cif, result.json, trace.jsonl; a
                                 torn artifact quarantines and answers 404)
    GET  /healthz                liveness + degradation (503 with reasons
                                 when workers are down or the queue is full)
    GET  /stats                  queue depth, dedup factor, cache hit rate,
                                 per-stage latencies, worker head-count,
                                 robustness counters, metrics-as-JSON
    GET  /metrics                the same registry as Prometheus text
                                 exposition (cache, backpressure, respawn,
                                 chaos, per-stage latency histograms)

Built on ``http.server.ThreadingHTTPServer`` — no third-party
dependencies — with the deduplication contract implemented in the
store: a warm resubmission answers ``state: done`` straight from SQLite
and never touches a worker.  A query string never takes part in
routing; only ``wait`` on the result endpoint is read.  ``serve_main``
is the ``repro serve`` CLI verb: it boots the daemon, then drains the
worker pool gracefully on SIGTERM/SIGINT so in-flight jobs finish
before exit, answering held result requests first.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import QueueFullError, ServiceError
from ..obs.trace import TRACE_HEADER, Span, Tracer, parse_token, service_enabled
from . import chaos
from .jobs import JobSpec
from .metrics import build_registry
from .store import Store
from .workers import WorkerPool

__all__ = ["DEFAULT_PORT", "MAX_RESULT_WAIT", "LayoutServer", "serve_main"]

#: default TCP port of the layout service
DEFAULT_PORT = 8737

#: the longest one ``GET /jobs/<fp>/result?wait=S`` is held, in seconds
MAX_RESULT_WAIT = 60.0


def _split_path(path: str) -> Tuple[List[str], Dict[str, List[str]]]:
    """``(segments, query)`` of a request path; the query never routes."""
    split = urllib.parse.urlsplit(path)
    segments = [part for part in split.path.split("/") if part]
    return segments, urllib.parse.parse_qs(split.query, keep_blank_values=True)


def _wait_seconds(query: Dict[str, List[str]]) -> float:
    """The ``wait`` query parameter, clamped to :data:`MAX_RESULT_WAIT`.

    Absent means 0 (answer at once); a malformed, NaN or negative value
    raises :class:`ServiceError`, which the handler answers with 400.
    """
    values = query.get("wait")
    if not values:
        return 0.0
    try:
        seconds = float(values[-1])
    except ValueError:
        seconds = float("nan")
    if not seconds >= 0.0:
        raise ServiceError(
            f"wait must be a non-negative number of seconds, not {values[-1]!r}"
        )
    return min(seconds, MAX_RESULT_WAIT)


class _Handler(BaseHTTPRequestHandler):
    """Route requests to the owning :class:`LayoutServer`."""

    #: set by LayoutServer when it builds the HTTP server
    service: "LayoutServer"

    server_version = "repro-layout-service/1.0"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Route access logs through the server's quiet flag."""
        if self.service.verbose:
            sys.stderr.write(
                "%s - %s\n" % (self.address_string(), format % args)
            )

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_bytes(self, payload: bytes, content_type: str = "text/plain") -> None:
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_POST(self) -> None:  # noqa: N802 — http.server contract
        """POST routing: job submission and late client trace spans."""
        directive = chaos.fire("server.request", path=self.path)
        if directive and directive.get("drop"):
            self.close_connection = True
            return
        parts, _ = _split_path(self.path)
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "trace":
            self._append_trace(parts[1])
            return
        if parts != ["jobs"]:
            self._send_json(404, {"error": f"no such endpoint {self.path!r}"})
            return
        token = self.headers.get(TRACE_HEADER)
        server_span: Optional[Span] = None
        tracer: Optional[Tracer] = None
        if service_enabled():
            trace_id, parent = parse_token(token)
            tracer = Tracer(trace_id)
            server_span = tracer.open("server.submit", parent_id=parent)
        try:
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length) or b"{}")
            spec = JobSpec.from_dict(payload)
            submitted = self.service.pool.submit(spec, trace=token)
        except QueueFullError as error:
            self._send_json(
                429,
                {"error": str(error), "retry_after": error.retry_after},
                headers={"Retry-After": f"{error.retry_after:g}"},
            )
            return
        except (ServiceError, ValueError) as error:
            self._send_json(400, {"error": str(error)})
            return
        if server_span is not None and tracer is not None:
            server_span.set(
                state=submitted["state"], deduplicated=submitted["deduplicated"]
            ).finish()
            try:
                self.service.store.record_spans(submitted["job"], [server_span])
            except OSError:
                pass  # telemetry must never fail a submission
        directive = chaos.fire("server.respond", path=self.path)
        if directive and directive.get("drop"):
            # the submission took effect; the lost response is what the
            # client's idempotent resubmit exists for
            self.close_connection = True
            return
        self._send_json(200, submitted)

    def _append_trace(self, fingerprint: str) -> None:
        """POST /jobs/<fp>/trace: attach the client's finished spans."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length) or b"{}")
            spans = [Span.from_dict(record) for record in payload.get("spans", [])]
        except (ValueError, KeyError, TypeError) as error:
            self._send_json(400, {"error": f"bad trace payload: {error}"})
            return
        if not self.service.store.append_trace(fingerprint, spans):
            self._send_json(404, {"error": f"unknown job {fingerprint!r}"})
            return
        self._send_json(200, {"job": fingerprint, "spans": len(spans)})

    def do_GET(self) -> None:  # noqa: N802 — http.server contract
        """GET routing: status, result, artifacts, health, stats."""
        directive = chaos.fire("server.request", path=self.path)
        if directive and directive.get("drop"):
            self.close_connection = True
            return
        try:
            parts, query = _split_path(self.path)
            if parts == ["healthz"]:
                self._healthz()
            elif parts == ["stats"]:
                stats = self.service.store.stats()
                stats["workers"] = self.service.pool.alive_workers()
                stats["timeouts"] = self.service.pool.timeouts
                stats["crashes"] = self.service.pool.crashes
                stats["respawns"] = self.service.pool.respawns
                stats["metrics"] = build_registry(
                    self.service.store, self.service.pool
                ).to_dict()
                self._send_json(200, stats)
            elif parts == ["metrics"]:
                registry = build_registry(self.service.store, self.service.pool)
                self._send_bytes(
                    registry.to_prometheus().encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif len(parts) == 2 and parts[0] == "jobs":
                self._job_status(parts[1])
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
                self._job_result(parts[1], _wait_seconds(query))
            elif len(parts) == 4 and parts[0] == "jobs" and parts[2] == "artifact":
                self._job_artifact(parts[1], parts[3])
            else:
                self._send_json(404, {"error": f"no such endpoint {self.path!r}"})
        except ServiceError as error:
            self._send_json(400, {"error": str(error)})

    def _healthz(self) -> None:
        """Liveness plus degradation: non-200 when the service is impaired.

        Healthy is 200 ``{"ok": true}``.  Degraded — fewer live workers
        than configured, or a full queue — is 503 with the reasons
        listed, so probes and load balancers can act on *why*.  The
        recovery counters (quarantined artifacts, recovery re-queues,
        dead-worker respawns) ride along as context without flipping
        the status by themselves: they record survived incidents, not
        a current impairment.
        """
        pool = self.service.pool
        store = self.service.store
        alive = pool.alive_workers()
        depth = store.queue_depth()
        degraded = []
        if alive < pool.workers:
            degraded.append(f"workers: {alive}/{pool.workers} alive")
        if store.max_queue_depth is not None and depth >= store.max_queue_depth:
            degraded.append(f"queue full: {depth}/{store.max_queue_depth}")
        payload = {
            "ok": not degraded,
            "workers": alive,
            "workers_configured": pool.workers,
            "queue_depth": depth,
            "max_queue_depth": store.max_queue_depth,
            "respawns": pool.respawns,
            "quarantined": store.counter("quarantined"),
            "recovery_requeued": store.counter("recovery_requeued"),
            "degraded": degraded,
        }
        self._send_json(200 if not degraded else 503, payload)

    def _job_status(self, fingerprint: str) -> None:
        status = self.service.store.status(fingerprint)
        if status is None:
            self._send_json(404, {"error": f"unknown job {fingerprint!r}"})
        else:
            self._send_json(200, status)

    def _job_result(self, fingerprint: str, wait: float) -> None:
        result = self.service.await_result(fingerprint, wait)
        if result is None:
            self._send_json(404, {"error": f"unknown job {fingerprint!r}"})
        elif result["state"] in ("queued", "running"):
            self._send_json(202, result)
        else:
            self._send_json(200, result)

    def _job_artifact(self, fingerprint: str, name: str) -> None:
        payload = self.service.store.artifact_bytes(fingerprint, name)
        if payload is None:
            self._send_json(
                404, {"error": f"no artifact {name!r} for job {fingerprint!r}"}
            )
        elif name.endswith(".json"):
            self._send_bytes(payload, "application/json")
        else:
            self._send_bytes(payload)


class LayoutServer:
    """The daemon: one store, one worker pool, one HTTP endpoint.

    ``port=0`` binds an ephemeral port (tests and parallel CI lanes);
    the bound address is available as :attr:`url` after construction.
    """

    def __init__(
        self,
        root: str,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        workers: int = 2,
        job_timeout: float = 300.0,
        max_attempts: int = 2,
        poll_interval: float = 0.05,
        max_queue_depth: Optional[int] = None,
        verbose: bool = False,
    ) -> None:
        """Create the daemon (nothing runs until :meth:`start`).

        ``max_queue_depth`` enables backpressure: submissions past it
        answer 429 with a ``Retry-After`` header instead of queueing.
        """
        chaos.maybe_load_from_env()
        self.pool = WorkerPool(
            root,
            workers=workers,
            job_timeout=job_timeout,
            max_attempts=max_attempts,
            poll_interval=poll_interval,
            max_queue_depth=max_queue_depth,
        )
        self.store: Store = self.pool.store
        self.verbose = verbose
        self.recovery: Optional[Dict[str, Any]] = None
        handler = type("BoundHandler", (_Handler,), {"service": self})
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self._thread: Optional[threading.Thread] = None
        self._closing = threading.Event()

    @property
    def url(self) -> str:
        """The bound base URL (resolves ephemeral ports)."""
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> None:
        """Recover the store, start the pool, serve HTTP in a thread.

        The recovery pass (:meth:`Store.recover`) runs *before* any
        worker: orphaned ``running`` rows from a hard-killed previous
        daemon re-queue, torn artifacts quarantine — the boot is what
        makes a crash of the last boot consistent.  Its report is kept
        as :attr:`recovery`.
        """
        self._closing.clear()
        self.recovery = self.store.recover()
        self.pool.start()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()

    def await_result(
        self, fingerprint: str, wait: float
    ) -> Optional[Dict[str, Any]]:
        """The job's result payload, held up to ``wait`` seconds for a
        terminal state (``None`` for an unknown job).

        Wakes on every transition the pool announces; ``poll_interval``
        bounds each wait as a heartbeat re-check, for transitions made
        outside this pool.  A stopping server answers at once with the
        current state.
        """
        deadline = time.monotonic() + wait
        while True:
            seen = self.pool.transitions
            result = self.store.result(fingerprint)
            remaining = deadline - time.monotonic()
            if (
                result is None
                or result["state"] not in ("queued", "running")
                or remaining <= 0
                or self._closing.is_set()
            ):
                return result
            self.pool.await_transition(
                seen, min(remaining, self.pool.poll_interval)
            )

    def stop(self, drain: bool = True) -> int:
        """Answer held result requests, stop HTTP, then the pool;
        returns the drained in-flight count."""
        self._closing.set()
        self.pool.announce()
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        return self.pool.stop(drain=drain)

    def __enter__(self) -> "LayoutServer":
        """Context-manager start (tests: ``with LayoutServer(...)``)."""
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager stop with drain."""
        self.stop(drain=True)


def serve_main(argv: Optional[List[str]] = None) -> int:
    """``repro serve``: run the layout service in the foreground.

    Prints the bound URL on stdout once ready, then blocks until
    SIGTERM/SIGINT; on either it stops accepting requests, drains
    in-flight jobs, and exits 0 — the clean-shutdown contract CI
    asserts on.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the layout-as-a-service daemon: an HTTP job"
        " queue with a shared, restart-surviving artifact store.",
    )
    parser.add_argument(
        "--root",
        default=".repro-service",
        metavar="DIR",
        help="service state directory: job ledger, artifacts, shared"
        " compaction cache (default: .repro-service)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"TCP port; 0 picks an ephemeral one (default: {DEFAULT_PORT})",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker processes (default: 2)",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=300.0, metavar="S",
        help="per-job wall-clock limit in seconds (default: 300)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=2, metavar="N",
        help="attempts per job before a crashed worker's job is failed"
        " for good (default: 2)",
    )
    parser.add_argument(
        "--max-queue", type=int, default=None, metavar="N",
        help="backpressure: reject new submissions with 429 + Retry-After"
        " once N jobs are queued (default: unbounded)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log HTTP requests to stderr"
    )
    arguments = parser.parse_args(argv)
    if arguments.workers < 1:
        parser.error("--workers must be at least 1")
    if arguments.job_timeout <= 0:
        parser.error("--job-timeout must be positive")
    if arguments.max_queue is not None and arguments.max_queue < 1:
        parser.error("--max-queue must be at least 1")

    try:
        server = LayoutServer(
            arguments.root,
            host=arguments.host,
            port=arguments.port,
            workers=arguments.workers,
            job_timeout=arguments.job_timeout,
            max_attempts=arguments.max_attempts,
            max_queue_depth=arguments.max_queue,
            verbose=arguments.verbose,
        )
    except OSError as error:
        raise ServiceError(
            f"cannot bind {arguments.host}:{arguments.port}: {error}"
        ) from None
    stop_requested = threading.Event()

    def request_stop(signum: int, frame: Any) -> None:
        stop_requested.set()

    previous = {
        signal.SIGTERM: signal.signal(signal.SIGTERM, request_stop),
        signal.SIGINT: signal.signal(signal.SIGINT, request_stop),
    }
    server.start()
    print(
        f"serving on {server.url} (root {arguments.root},"
        f" {arguments.workers} worker(s))",
        flush=True,
    )
    recovery = server.recovery or {}
    if recovery.get("requeued") or recovery.get("quarantined"):
        print(
            f"recovered: {len(recovery['requeued'])} job(s) re-queued,"
            f" {len(recovery['quarantined'])} artifact set(s) quarantined",
            flush=True,
        )
    try:
        stop_requested.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    in_flight = server.stop(drain=True)
    print(f"drained {in_flight} in-flight job(s); clean shutdown", flush=True)
    return 0
