"""Unit coverage of the flight-recorder package (`repro.obs`).

Tracing: span lifecycle, tracer parenting, the no-op disabled path,
token propagation, and the collector stamps on stage spans.  Metrics: instrument semantics, merging, and
the Prometheus text rendering.  Rendering: the JSONL codec and the
indented tree.
"""

import gc
import json
import re
import threading

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
    Tracer,
    activated,
    active,
    annotate,
    is_enabled,
    parse_token,
    propagation_token,
    render_trace,
    span,
    spans_from_jsonl,
    spans_to_jsonl,
    stage_span,
)
from repro.obs.trace import _NOOP, _time_collector, new_id, service_enabled


class TestSpan:
    def test_begin_finish_stamps_times(self):
        tested = Span(name="op", trace_id="t").begin()
        assert tested.start_s > 0
        tested.finish()
        assert tested.duration_s >= 0
        assert tested.status == "ok"

    def test_finish_can_override_status(self):
        tested = Span(name="op", trace_id="t").begin().finish(status="error")
        assert tested.status == "error"

    def test_dict_round_trip(self):
        original = Span(name="op", trace_id="t", parent_id="p").begin()
        original.set(kernel="numpy", passes=3).finish()
        rebuilt = Span.from_dict(original.to_dict())
        assert rebuilt == original

    def test_to_dict_omits_empty_attributes(self):
        assert "attributes" not in Span(name="op", trace_id="t").to_dict()

    def test_ids_are_unique_hex(self):
        ids = {new_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(re.fullmatch(r"[0-9a-f]{16}", i) for i in ids)


class TestTracer:
    def test_nested_spans_parent_correctly(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert [s.name for s in tracer.finished()] == ["inner", "outer"]

    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (doomed,) = tracer.finished()
        assert doomed.status == "error"
        assert tracer.current() is None

    def test_drain_clears(self):
        tracer = Tracer()
        with tracer.span("op"):
            pass
        assert len(tracer.drain()) == 1
        assert tracer.finished() == []

    def test_threads_get_independent_stacks(self):
        tracer = Tracer()
        seen = {}

        def worker():
            seen["current"] = tracer.current()
            with tracer.span("threaded") as threaded:
                seen["parent"] = threaded.parent_id

        with tracer.span("main-thread"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # The other thread neither sees nor parents under this thread's span.
        assert seen["current"] is None
        assert seen["parent"] is None

    def test_open_add_collects_manual_spans(self):
        tracer = Tracer()
        manual = tracer.open("manual", worker_pid=42)
        tracer.add(manual.finish())
        (collected,) = tracer.finished()
        assert collected.attributes == {"worker_pid": 42}


class TestActivation:
    def test_disabled_span_is_the_shared_noop(self):
        assert active() is None
        handle = span("anything", key="value")
        assert handle is _NOOP
        with handle as entered:
            entered.set(more="attrs")
        annotate(ignored=True)  # must not raise without a tracer

    def test_activated_routes_module_level_span(self):
        tracer = Tracer()
        with activated(tracer):
            assert is_enabled()
            assert active() is tracer
            with span("op", kernel="numpy"):
                annotate(extra=1)
        assert active() is None
        (only,) = tracer.finished()
        assert only.attributes == {"kernel": "numpy", "extra": 1}

    def test_activation_restores_previous_tracer(self):
        outer, inner = Tracer(), Tracer()
        with activated(outer):
            with activated(inner):
                assert active() is inner
            assert active() is outer

    def test_interleaved_thread_activations_keep_the_newest_live_one(self):
        """Thread A activates, B activates, A exits, B exits: once A is
        out, B's tracer is ambient and the collector hook stays; once B
        is out, no tracer is active and the hook is gone."""
        first, second = Tracer(), Tracer()
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def run_a():
            with activated(first):
                a_in.set()
                b_in.wait(10)
            a_out.set()

        def run_b():
            a_in.wait(10)
            with activated(second):
                b_in.set()
                a_out.wait(10)
                seen["after_a"] = (active(), _time_collector in gc.callbacks)

        threads = [threading.Thread(target=run_a), threading.Thread(target=run_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(20)
        assert seen["after_a"] == (second, True)
        assert active() is None
        assert _time_collector not in gc.callbacks

    def test_stage_span_stamps_the_collector_inside_it(self):
        tracer = Tracer()
        enabled = gc.isenabled()
        gc.disable()  # only the explicit collections below run
        try:
            with activated(tracer):
                assert gc.callbacks.count(_time_collector) == 1
                with activated(Tracer()):
                    assert gc.callbacks.count(_time_collector) == 1
                with stage_span("job.generate"):
                    gc.collect()
                    gc.collect()
                with stage_span("job.emit"):
                    pass
        finally:
            if enabled:
                gc.enable()
        assert _time_collector not in gc.callbacks
        generate, emit = tracer.finished()
        assert generate.attributes["gc_collections"] == 2
        assert 0 < generate.attributes["gc_s"] <= generate.duration_s
        assert emit.attributes == {"gc_s": 0.0, "gc_collections": 0}
        assert "[gc_s=" in render_trace([generate])

    def test_stage_span_without_a_tracer_is_the_noop(self):
        with stage_span("job.generate") as handle:
            gc.collect()
        assert handle is _NOOP
        assert _time_collector not in gc.callbacks

    def test_policy_helpers_read_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert service_enabled()
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert not service_enabled()
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert service_enabled()


class TestPropagation:
    def test_token_round_trip(self):
        tracer = Tracer()
        with tracer.span("client.request") as request:
            token = propagation_token(tracer)
        assert parse_token(token) == (tracer.trace_id, request.span_id)

    def test_token_without_open_span_has_no_parent(self):
        tracer = Tracer()
        assert parse_token(propagation_token(tracer)) == (tracer.trace_id, None)

    @pytest.mark.parametrize("bad", [None, "", ":", ":orphan", 42, b"x:y"])
    def test_malformed_tokens_decode_to_fresh_trace(self, bad):
        assert parse_token(bad) == (None, None)


class TestMetrics:
    def test_counter_only_goes_up(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_sets_and_merges(self):
        gauge = Gauge()
        gauge.set(4)
        assert gauge.merge(Gauge(value=2)).value == 6

    def test_histogram_buckets_sum_count(self):
        histogram = Histogram(buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.counts == [1, 1, 1]
        assert histogram.count == 3
        assert histogram.total == pytest.approx(5.55)
        assert histogram.mean() == pytest.approx(1.85)

    def test_histogram_merge_requires_same_buckets(self):
        merged = Histogram(buckets=(0.1, 1.0))
        other = Histogram(buckets=(0.1, 1.0))
        other.observe(0.5)
        assert merged.merge(other).count == 1
        with pytest.raises(ValueError):
            merged.merge(Histogram(buckets=(0.2,)))

    def test_registry_get_or_create_by_name_and_labels(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_x_total", "x", labels={"k": "a"})
        again = registry.counter("repro_x_total", labels={"k": "a"})
        other = registry.counter("repro_x_total", labels={"k": "b"})
        assert first is again and first is not other

    def test_prometheus_text_is_well_formed(self):
        registry = MetricsRegistry()
        registry.counter("repro_jobs_total", "Total jobs.").inc(3)
        registry.gauge("repro_queue_depth", "Depth.").set(2)
        histogram = registry.histogram(
            "repro_stage_latency_seconds",
            "Stage wall time.",
            labels={"stage": "compact"},
            buckets=(0.1, 1.0),
        )
        histogram.observe(0.05)
        histogram.observe(0.5)
        text = registry.to_prometheus()
        assert "# HELP repro_jobs_total Total jobs.\n" in text
        assert "# TYPE repro_jobs_total counter\n" in text
        assert "repro_jobs_total 3\n" in text
        assert 'repro_stage_latency_seconds_bucket{stage="compact",le="0.1"} 1' in text
        assert 'repro_stage_latency_seconds_bucket{stage="compact",le="+Inf"} 2' in text
        assert 'repro_stage_latency_seconds_count{stage="compact"} 2' in text
        # Every non-comment line is "<name>[{labels}] <value>".
        sample = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})?'
            r" (\+Inf|-Inf|-?[0-9.e+-]+)$"
        )
        for line in text.strip().splitlines():
            if not line.startswith("#"):
                assert sample.match(line), line

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", labels={"k": 'a"b\\c\nd'}).inc()
        assert r'k="a\"b\\c\nd"' in registry.to_prometheus()

    def test_to_dict_shapes(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total").inc(2)
        registry.histogram("repro_h", labels={"stage": "emit"}).observe(0.2)
        as_dict = registry.to_dict()
        assert as_dict["repro_x_total"]["value"] == 2
        entry = as_dict['repro_h{stage="emit"}']
        assert entry["count"] == 1 and entry["labels"] == {"stage": "emit"}


class TestRendering:
    def _tree(self):
        tracer = Tracer()
        with tracer.span("client.submit"):
            with tracer.span("client.request", retries=0):
                pass
            with tracer.span("client.wait", state="done"):
                pass
        return tracer.finished()

    def test_jsonl_round_trip(self):
        spans = self._tree()
        payload = spans_to_jsonl(spans)
        lines = payload.decode("utf-8").strip().split("\n")
        assert len(lines) == 3
        assert all(isinstance(json.loads(line), dict) for line in lines)
        assert sorted(
            spans_from_jsonl(payload), key=lambda s: s.span_id
        ) == sorted(spans, key=lambda s: s.span_id)

    def test_render_trace_indents_children(self):
        rendered = render_trace(self._tree())
        lines = rendered.splitlines()
        assert lines[0].startswith("trace ") and "(3 spans)" in lines[0]
        root_indent = len(lines[1]) - len(lines[1].lstrip())
        child_indent = len(lines[2]) - len(lines[2].lstrip())
        assert lines[1].lstrip().startswith("client.submit")
        assert lines[2].lstrip().startswith("client.request")
        assert child_indent > root_indent
        assert "[retries=0]" in lines[2]
        assert lines[3].lstrip().startswith("client.wait")
        assert len(lines[3]) - len(lines[3].lstrip()) == child_indent

    def test_render_trace_marks_errors_and_orphans(self):
        orphan = Span(
            name="lost", trace_id="t", parent_id="gone", status="error"
        )
        rendered = render_trace([orphan])
        assert "lost" in rendered and "!error" in rendered

    def test_render_empty(self):
        assert render_trace([]) == "(empty trace)"

    def test_render_shows_the_sweep_node_count(self):
        sweep = Span(
            name="extract.sweep", trace_id="t", attributes={"nodes": 5478}
        )
        assert render_trace([sweep]).splitlines()[1].endswith("  [nodes=5478]")


def _timed(name, start_ms, duration_ms, parent=None):
    """A hand-built finished span; its name doubles as its id."""
    return Span(
        name=name, trace_id="t", span_id=name, parent_id=parent,
        start_s=1000.0 + start_ms / 1000.0, duration_s=duration_ms / 1000.0,
    )


class TestUnattributedLine:
    def test_parent_less_its_children(self):
        lines = render_trace([
            _timed("job", 0, 10),
            _timed("generate", 1, 3, parent="job"),
            _timed("emit", 5, 4, parent="job"),
        ]).splitlines()
        assert [line.strip() for line in lines[1:]] == [
            "job  10.00 ms", "generate  3.00 ms", "emit  4.00 ms",
            "(unattributed)  3.00 ms",
        ]
        # After the children, at their indent.
        indent = [len(line) - len(line.lstrip()) for line in lines[1:]]
        assert indent[3] == indent[1] > indent[0]

    def test_overlapping_children_count_once(self):
        rendered = render_trace([
            _timed("job", 0, 10),
            _timed("a", 1, 4, parent="job"),
            _timed("b", 3, 5, parent="job"),
        ])
        # [1, 5] and [3, 8] cover 7 ms of 10, not 9.
        assert rendered.splitlines()[-1].strip() == "(unattributed)  3.00 ms"

    def test_child_outliving_its_parent_is_clipped(self):
        """``worker.execute`` runs in another process and outlives the
        ``client.request`` that submitted it: parent - sum(children)
        would read -18 ms here."""
        rendered = render_trace([
            _timed("client.request", 0, 10),
            _timed("worker.execute", 2, 28, parent="client.request"),
        ])
        assert rendered.splitlines()[-1].strip() == "(unattributed)  2.00 ms"

    def test_leaf_spans_get_no_line(self):
        assert "(unattributed)" not in render_trace([_timed("alone", 0, 5)])
        rendered = render_trace([
            _timed("job", 0, 10),
            _timed("leaf", 0, 10, parent="job"),
        ])
        # Only the parent closes with one; a fully covered parent reads 0.
        assert rendered.count("(unattributed)") == 1
        assert rendered.splitlines()[-1].strip() == "(unattributed)  0.00 ms"
