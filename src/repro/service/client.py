"""The thin client: talk to a layout service over HTTP, resiliently.

:class:`ServiceClient` wraps ``urllib.request`` — submit, poll, fetch
— raising :class:`~repro.core.errors.ServiceError` with the server's
diagnostic on any failure, so callers never parse HTTP by hand.  It
carries the client half of the service's robustness contract:

* **backpressure** — a 429 answer is retried after the server's
  ``Retry-After`` (or a capped, jittered exponential backoff when the
  header is absent), up to ``max_retries`` attempts;
* **idempotent resubmit** — a dropped connection or lost response is
  retried with the same backoff; this is safe even for ``POST /jobs``
  because job identity is the content fingerprint, so a resubmission
  deduplicates server-side instead of double-running;
* **long-polled waiting** — :meth:`wait` asks the server to hold each
  result request (``?wait=``) until the job finishes, so a job is
  answered the moment a worker completes it, with one request.  Each
  window stays below half the socket ``timeout``.  Only a pending
  answer that comes back *before* its window ran out (an older daemon
  that ignores ``wait``, or one shutting down) makes the client sleep,
  backing off exponentially up to ``_MAX_POLL_INTERVAL``.

``submit_main`` is the ``repro submit`` CLI verb: it reads the *same*
parameter file with the batch CLI's reader
(:func:`~repro.service.jobs.spec_from_files`), which embeds the
sample/design texts the file's directives point at (a submission is
self-contained — the server never reads the client's filesystem), and
round-trips submit → wait → download.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Tuple, Union

from ..core.errors import LanguageError, RsgError, ServiceError
from ..obs import trace as obs_trace
from ..obs.render import render_trace, spans_from_jsonl
from ..obs.trace import TRACE_HEADER, Span, Tracer, propagation_token
from .jobs import JobSpec, spec_from_files

__all__ = ["ServiceClient", "stats_main", "submit_main", "trace_main"]

#: connection-level failures a retry can heal: the server restarting,
#: a dropped response, a reset mid-flight
_RETRYABLE_OS_ERRORS = (
    ConnectionResetError,
    ConnectionRefusedError,
    ConnectionAbortedError,
    BrokenPipeError,
)

#: first and longest sleep of :meth:`ServiceClient.wait` between result
#: requests the server did not hold (seconds); each sleep doubles
_POLL_INTERVAL = 0.05
_MAX_POLL_INTERVAL = 2.0


class ServiceClient:
    """HTTP client for one layout-service endpoint.

    ``max_retries`` bounds how often one logical request is retried
    across 429 backpressure answers and dropped connections;
    ``backoff`` seeds the exponential delay, capped at
    ``backoff_cap`` and jittered ±25 % so a fleet of rejected clients
    does not return in lockstep.  ``max_retries=0`` restores the old
    fail-fast behaviour.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 10.0,
        max_retries: int = 5,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
    ) -> None:
        """``url`` is the service base URL, e.g. ``http://127.0.0.1:8737``."""
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.retries = 0  # observability: how often this client retried
        self._sleep = time.sleep  # seam for tests
        self._rng = random.Random()

    def _jittered(self, delay: float) -> float:
        """``delay`` within the cap, ±25 % jitter (never negative)."""
        capped = min(delay, self.backoff_cap)
        return max(0.0, capped * self._rng.uniform(0.75, 1.25))

    def _request(
        self,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        raw: bool = False,
        accept: Tuple[int, ...] = (),
    ) -> Any:
        """One logical request with retry/backoff (see class docstring).

        ``accept`` lists non-2xx statuses whose JSON body should be
        *returned* rather than raised — ``health()`` accepts the 503
        degraded answer, for example.
        """
        data = header = None
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            header = {"Content-Type": "application/json"}
        delay = self.backoff
        attempt = 0
        tracer = obs_trace.active()
        while True:
            request = urllib.request.Request(self.url + path, data=data)
            for name, value in (header or {}).items():
                request.add_header(name, value)
            if tracer is not None:
                request.add_header(TRACE_HEADER, propagation_token(tracer))
            try:
                with urllib.request.urlopen(
                    request, timeout=self.timeout
                ) as response:
                    body = response.read()
                return body if raw else json.loads(body)
            except urllib.error.HTTPError as error:
                body = error.read()
                if error.code in accept:
                    return body if raw else json.loads(body)
                if error.code == 429 and attempt < self.max_retries:
                    retry_after = self._retry_after(error)
                    wait = self._jittered(
                        retry_after if retry_after is not None else delay
                    )
                    attempt += 1
                    self.retries += 1
                    self._sleep(wait)
                    delay = min(self.backoff_cap, delay * 2)
                    continue
                detail = ""
                try:
                    detail = json.loads(body).get("error", "")
                except Exception:  # noqa: BLE001 — best-effort diagnostics
                    pass
                raise ServiceError(
                    f"{request.get_method()} {path}: HTTP {error.code}"
                    + (f": {detail}" if detail else "")
                ) from None
            except OSError as error:  # URLError, resets, timeouts
                reason = getattr(error, "reason", error)
                retryable = isinstance(
                    (reason if isinstance(reason, BaseException) else error),
                    _RETRYABLE_OS_ERRORS,
                )
                if retryable and attempt < self.max_retries:
                    attempt += 1
                    self.retries += 1
                    self._sleep(self._jittered(delay))
                    delay = min(self.backoff_cap, delay * 2)
                    continue
                raise ServiceError(
                    f"cannot reach layout service at {self.url}: {reason}"
                ) from None

    @staticmethod
    def _retry_after(error: urllib.error.HTTPError) -> Optional[float]:
        """The server's ``Retry-After`` header in seconds, if parseable."""
        value = error.headers.get("Retry-After") if error.headers else None
        if value is None:
            return None
        try:
            return max(0.0, float(value))
        except ValueError:
            return None

    def submit(self, spec: Union[JobSpec, Dict[str, Any]]) -> Dict[str, Any]:
        """Submit a spec; returns ``{job, state, deduplicated}``.

        When a tracer is ambient the POST is wrapped in a
        ``client.request`` span carrying the retry count — the client
        half of the job's trace tree (a no-op otherwise).
        """
        payload = spec.to_dict() if isinstance(spec, JobSpec) else spec
        with obs_trace.span("client.request", path="/jobs") as request_span:
            before = self.retries
            submitted = self._request("/jobs", payload=payload)
            request_span.set(
                retries=self.retries - before,
                state=submitted.get("state"),
                deduplicated=submitted.get("deduplicated"),
            )
        return submitted

    def status(self, job: str) -> Dict[str, Any]:
        """The job's ledger row."""
        return self._request(f"/jobs/{job}")

    def result(self, job: str, wait: Optional[float] = None) -> Dict[str, Any]:
        """Status plus ``result`` for a finished job (202-tolerant).

        ``wait`` asks the server to hold the answer up to that many
        seconds while the job is still queued or running.
        """
        query = "" if wait is None else f"?wait={wait}"
        return self._request(f"/jobs/{job}/result{query}")

    def wait(self, job: str, timeout: float = 120.0) -> Dict[str, Any]:
        """Wait until the job finishes; raise on failure or deadline.

        Returns the full result payload of a ``done`` job.  A
        ``failed`` job raises :class:`ServiceError` carrying the
        job's recorded error.  Each result request is long-polled with
        a window of ``min(time left, self.timeout / 2)``, so the server
        answers as soon as the job ends and the socket timeout is never
        hit.  A pending answer that returns before its window ran out
        means the server did not hold it: the client then sleeps,
        starting at ``_POLL_INTERVAL`` and doubling up to
        ``_MAX_POLL_INTERVAL``, so an older daemon is not hammered.
        """
        deadline = time.monotonic() + timeout
        interval = _POLL_INTERVAL
        polls = 0
        with obs_trace.span("client.wait") as wait_span:
            while True:
                asked = time.monotonic()
                window = min(max(0.0, deadline - asked), self.timeout / 2)
                result = self.result(job, wait=window)
                polls += 1
                state = result.get("state")
                if state == "done":
                    wait_span.set(polls=polls, state=state)
                    return result
                if state == "failed":
                    wait_span.set(polls=polls, state=state)
                    raise ServiceError(
                        f"job {job} failed: {result.get('error') or 'unknown error'}"
                    )
                now = time.monotonic()
                if now >= deadline:
                    wait_span.set(polls=polls, state=state)
                    raise ServiceError(
                        f"job {job} still {state} after {timeout:g}s"
                    )
                if now - asked < window:
                    self._sleep(min(interval, deadline - now))
                    interval = min(_MAX_POLL_INTERVAL, interval * 2)

    def artifact(self, job: str, name: str) -> bytes:
        """Download one artifact (``layout.cif``, ``result.json``,
        ``trace.jsonl``)."""
        return self._request(f"/jobs/{job}/artifact/{name}", raw=True)

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` payload — returned even when degraded (503)."""
        return self._request("/healthz", accept=(503,))

    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` observability payload."""
        return self._request("/stats")

    def metrics(self) -> str:
        """The ``/metrics`` Prometheus text exposition."""
        return self._request("/metrics", raw=True).decode("utf-8")

    def post_trace(self, job: str, spans: List[Span]) -> Dict[str, Any]:
        """Attach finished client spans to a job's stored trace."""
        return self._request(
            f"/jobs/{job}/trace",
            payload={"spans": [s.to_dict() for s in spans]},
        )


def submit_main(argv: Optional[List[str]] = None) -> int:
    """``repro submit``: send a job to a running layout service.

    Submits, waits (unless ``--no-wait``), prints the job fingerprint
    and outcome, and optionally writes the layout artifact to
    ``--output``.
    """
    import argparse

    from .server import DEFAULT_PORT

    parser = argparse.ArgumentParser(
        prog="repro submit",
        description="Submit a generation job to a running layout service.",
    )
    parser.add_argument("parameter_file", help="the parameter file (Appendix C style)")
    parser.add_argument(
        "--url",
        default=f"http://127.0.0.1:{DEFAULT_PORT}",
        help=f"service base URL (default: http://127.0.0.1:{DEFAULT_PORT})",
    )
    parser.add_argument(
        "--kind",
        default="custom",
        help="generator kind: custom (embed the files the parameter file"
        " names) or a builtin library kind like multiplier",
    )
    parser.add_argument(
        "--set", action="append", default=[], metavar="NAME=VALUE",
        help="override a parameter binding (repeatable)",
    )
    parser.add_argument("--compact", metavar="AXES", help="compaction mode (as the batch CLI)")
    parser.add_argument("--tech", default="A", help="design-rule technology (default: A)")
    parser.add_argument("--verify", metavar="MODE", help="verification mode: lvs, sim or all")
    parser.add_argument("--sim-vectors", type=int, metavar="N", help="simulated-vector cap")
    parser.add_argument(
        "--output", metavar="FILE", help="write the layout.cif artifact to FILE"
    )
    parser.add_argument(
        "--no-wait", action="store_true",
        help="submit and print the job fingerprint without waiting",
    )
    parser.add_argument(
        "--timeout", type=float, default=300.0, metavar="S",
        help="wait deadline in seconds (default: 300)",
    )
    arguments = parser.parse_args(argv)

    try:
        spec = spec_from_files(
            arguments.parameter_file, arguments.set, kind=arguments.kind,
            tech=arguments.tech, compact=arguments.compact,
            verify=arguments.verify, sim_vectors=arguments.sim_vectors,
        )
    except LanguageError:
        raise
    except RsgError as error:  # a custom submission without its directives
        raise ServiceError(
            f"{error}, or use --kind for a builtin generator"
        ) from None
    client = ServiceClient(arguments.url)
    if not obs_trace.service_enabled():
        code, _ = _submit_flow(arguments, client, spec)
        return code

    tracer = Tracer()
    job: Optional[str] = None
    with obs_trace.activated(tracer):
        with tracer.span("client.submit") as root:
            root.set(url=arguments.url)
            code, job = _submit_flow(arguments, client, spec)
    if job is not None:
        try:
            client.post_trace(job, tracer.drain())
        except ServiceError:
            pass  # an old server without /trace still served the job
    return code


def _submit_flow(
    arguments, client: ServiceClient, spec: JobSpec
) -> Tuple[int, Optional[str]]:
    """The submit → wait → download round-trip; returns (code, job)."""
    started = time.perf_counter()
    submitted = client.submit(spec)
    job = submitted["job"]
    print(
        f"job {job[:16]}… {submitted['state']}"
        + (" (deduplicated)" if submitted.get("deduplicated") else "")
    )
    if arguments.no_wait:
        print(f"poll with: GET {arguments.url}/jobs/{job}")
        return 0, job
    result = client.wait(job, timeout=arguments.timeout)
    elapsed = time.perf_counter() - started
    summary = result.get("result") or {}
    print(
        f"done in {elapsed:.2f}s: cell {summary.get('cell_name')!r},"
        f" {summary.get('instance_count')} instance(s)"
    )
    if arguments.output:
        payload = client.artifact(job, "layout.cif")
        with open(arguments.output, "wb") as handle:
            handle.write(payload)
        print(f"wrote layout to {arguments.output}")
    return 0, job


def stats_main(argv: Optional[List[str]] = None) -> int:
    """``repro stats``: pretty-print a running service's telemetry.

    Fetches ``/stats`` (the JSON digest) and, with ``--metrics``, the
    raw ``/metrics`` Prometheus text.  An unreachable service raises
    :class:`~repro.core.errors.ServiceError` — the CLI maps that to
    exit family 6 like every other service failure.
    """
    import argparse

    from .server import DEFAULT_PORT

    parser = argparse.ArgumentParser(
        prog="repro stats",
        description="Show queue, dedup, cache, worker, and latency"
        " statistics from a running layout service.",
    )
    parser.add_argument(
        "--url",
        default=f"http://127.0.0.1:{DEFAULT_PORT}",
        help=f"service base URL (default: http://127.0.0.1:{DEFAULT_PORT})",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="also print the raw /metrics Prometheus exposition",
    )
    arguments = parser.parse_args(argv)
    client = ServiceClient(arguments.url, max_retries=0)
    stats = client.stats()

    jobs = stats.get("jobs", {})
    states = ", ".join(f"{state}={count}" for state, count in sorted(jobs.items()))
    print(f"jobs: {states or 'none'}")
    print(
        f"queue: depth {stats.get('queue_depth')}"
        f" (max {stats.get('max_queue_depth') or 'unbounded'}),"
        f" {stats.get('backpressure_rejections', 0)} rejection(s)"
    )
    dedup = stats.get("dedup_factor")
    print(
        f"throughput: {stats.get('submissions')} submission(s),"
        f" {stats.get('executions')} execution(s)"
        + (f", dedup x{dedup:.2f}" if dedup else "")
    )
    print(
        f"workers: {stats.get('workers')} alive,"
        f" {stats.get('timeouts', 0)} timeout(s),"
        f" {stats.get('crashes', 0)} crash(es),"
        f" {stats.get('respawns', 0)} respawn(s)"
    )
    cache = stats.get("cache", {})
    hit_rate = cache.get("hit_rate")
    print(
        "cache: "
        + (f"hit rate {hit_rate:.1%}" if hit_rate is not None else "no lookups yet")
    )
    print(
        f"robustness: {stats.get('quarantined', 0)} quarantined,"
        f" {stats.get('recovery_requeued', 0)} recovery requeue(s),"
        f" {stats.get('evicted', 0)} evicted"
    )
    latency = stats.get("stage_latency", {})
    if latency:
        print("stage latency:")
        for stage, row in sorted(latency.items()):
            print(
                f"  {stage:<10} n={row['count']:<5}"
                f" mean {row['mean_s'] * 1000.0:8.2f} ms"
                f"  max {row['max_s'] * 1000.0:8.2f} ms"
            )
    if arguments.metrics:
        print()
        print(client.metrics(), end="")
    return 0


def trace_main(argv: Optional[List[str]] = None) -> int:
    """``repro trace``: render a job's stored span tree.

    Downloads the digest-verified ``trace.jsonl`` artifact and prints
    the indented tree (durations in ms, statuses, key attributes).  An
    unknown job or a trace-less job answers HTTP 404, which surfaces as
    a :class:`~repro.core.errors.ServiceError` (exit family 6).
    """
    import argparse

    from .server import DEFAULT_PORT

    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Render the span tree a job recorded while it was"
        " submitted, claimed, and executed.",
    )
    parser.add_argument("fingerprint", help="the job fingerprint (repro submit prints it)")
    parser.add_argument(
        "--url",
        default=f"http://127.0.0.1:{DEFAULT_PORT}",
        help=f"service base URL (default: http://127.0.0.1:{DEFAULT_PORT})",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the raw JSONL artifact instead of the tree",
    )
    arguments = parser.parse_args(argv)
    client = ServiceClient(arguments.url, max_retries=0)
    payload = client.artifact(arguments.fingerprint, "trace.jsonl")
    if arguments.as_json:
        print(payload.decode("utf-8"), end="")
        return 0
    print(render_trace(spans_from_jsonl(payload)))
    return 0
