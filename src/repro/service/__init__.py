"""Layout-as-a-service: job queue, artifact store, worker pool, HTTP API.

The batch CLI (:mod:`repro.cli`) runs one generate → compact → route →
verify pipeline per invocation.  That pipeline is defined once, here,
in :func:`repro.service.jobs.run_job`; the CLI calls it and this
package wraps it in a long-running service:

* :mod:`repro.service.jobs` — the job model and the pipeline.  A
  request is a canonicalised :class:`JobSpec` (generator kind,
  parameter-file text, technology, compact/route/verify options)
  hashed to a content fingerprint with the :mod:`repro.compact.cache`
  machinery, so two semantically identical requests *are* the same
  job.  ``spec_from_files`` reads a parameter file into a spec for
  both ``repro`` and ``repro submit``; ``run_job`` runs the stages and
  ``execute_job`` adds the CIF emit stage the workers store;
* :mod:`repro.service.store` — a SQLite-backed job/result/metadata
  store plus on-disk artifacts keyed by fingerprint, wrapping a shared
  :class:`~repro.compact.cache.CompactionCache` so compaction and
  extraction memos are shared across the whole worker fleet and
  survive restarts;
* :mod:`repro.service.workers` — a queue-driven pool of worker
  processes with per-job timeout, bounded retry on transient failure,
  crash isolation, and graceful drain;
* :mod:`repro.service.server` / :mod:`repro.service.client` — a
  stdlib ``ThreadingHTTPServer`` JSON API (submit / status / result /
  artifact / health / stats) and a thin ``urllib`` client with capped
  jittered retry/backoff, exposed as the ``repro serve`` and
  ``repro submit`` CLI verbs;
* :mod:`repro.service.chaos` — deterministic, seeded fault injection
  (crashes, torn writes, disk errors, stalls, dropped connections)
  behind narrow hook seams, driving the chaos test suite;
* :mod:`repro.service.metrics` — the ``/metrics`` registry builder,
  folding the scattered service counters and per-stage latencies into
  one :class:`~repro.obs.metrics.MetricsRegistry` (Prometheus text at
  ``GET /metrics``, JSON under ``/stats``).

The service is also traced end to end (:mod:`repro.obs`): a submission
carrying an ``X-Repro-Trace-Id`` header joins the client's trace, the
worker roots its execution spans under it via the job row, and the
finished span tree is persisted as a digest-verified ``trace.jsonl``
artifact rendered by ``repro trace <fingerprint>``.

Deduplication is end-to-end: N identical concurrent submissions cause
exactly one pipeline execution, and a warm resubmission is served from
the store without touching a worker.  The service is crash-consistent:
``Store.recover()`` runs on every boot to re-queue orphaned jobs and
quarantine torn artifacts, submissions shed load with 429 +
``Retry-After`` once the queue is full, and ``repro gc``
(:func:`gc_main`) evicts least-recently-used artifacts down to a byte
budget without touching live jobs.

Importing the package loads none of these modules: each export resolves
on first read (:mod:`repro._lazy`).  ``repro <par>`` imports only
:mod:`repro.service.jobs`, which imports no sibling, so a one-shot run
never loads the HTTP, SQLite or multiprocessing stack.
"""

from .._lazy import lazy_exports

__all__ = [
    "DEFAULT_PORT",
    "FaultPlan",
    "FaultSpec",
    "JobResult",
    "JobSpec",
    "LayoutServer",
    "ServiceClient",
    "Store",
    "WorkerPool",
    "build_registry",
    "execute_job",
    "fingerprint_spec",
    "gc_main",
    "run_job",
    "serve_main",
    "spec_from_files",
    "stats_main",
    "submit_main",
    "trace_main",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".chaos": ["FaultPlan", "FaultSpec"],
    ".client": ["ServiceClient", "stats_main", "submit_main", "trace_main"],
    ".jobs": [
        "JobResult", "JobSpec", "execute_job", "fingerprint_spec", "run_job",
        "spec_from_files",
    ],
    ".metrics": ["build_registry"],
    ".server": ["DEFAULT_PORT", "LayoutServer", "serve_main"],
    ".store": ["Store", "gc_main"],
    ".workers": ["WorkerPool"],
})
