"""Flight-recorder observability: spans, metrics, and trace rendering.

The :mod:`repro.obs` package is the stdlib-only telemetry layer for the
layout stack.  It has three pillars:

* :mod:`repro.obs.trace` — hierarchical :class:`~repro.obs.trace.Span`
  records collected by a process-local :class:`~repro.obs.trace.Tracer`,
  with a propagation token that crosses the client → HTTP → store →
  worker-process boundary so one ``repro submit`` yields a single span
  tree.
* :mod:`repro.obs.metrics` — mergeable counters, gauges, and
  fixed-bucket histograms gathered in a
  :class:`~repro.obs.metrics.MetricsRegistry` and rendered as Prometheus
  text exposition (``GET /metrics``) or JSON (``/stats``).
* :mod:`repro.obs.render` — the JSONL codec for persisted trace
  artifacts and the indented-tree renderer behind ``repro trace``.

When no tracer is activated (library calls outside ``repro`` and the
service, or the service under ``REPRO_TRACE=0``) every hook degrades to
a near-zero-cost no-op, so the batched geometry kernels pay nothing for
it.
"""

from .._lazy import lazy_exports

__all__ = [
    "TRACE_HEADER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "activated",
    "active",
    "annotate",
    "import_span",
    "is_enabled",
    "parse_token",
    "propagation_token",
    "render_trace",
    "span",
    "spans_from_jsonl",
    "spans_to_jsonl",
    "stage_span",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".metrics": ["Counter", "Gauge", "Histogram", "MetricsRegistry"],
    ".render": ["render_trace", "spans_from_jsonl", "spans_to_jsonl"],
    ".trace": [
        "TRACE_HEADER", "Span", "Tracer", "activated", "active", "annotate",
        "import_span", "is_enabled", "parse_token", "propagation_token",
        "span", "stage_span",
    ],
})
