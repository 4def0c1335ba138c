"""End-to-end flight-recorder coverage against a live service.

One ``repro submit`` must produce one single-rooted span tree spanning
client, server, store claim, worker, and pipeline stages, persisted as
a digest-verified ``trace.jsonl`` artifact; ``GET /metrics`` must
serve well-formed Prometheus text folding in every service counter;
and the ``repro stats`` / ``repro trace`` verbs must render both from
the CLI with the service exit family on failure.
"""

import json
import re

import pytest

from repro.cli import EXIT_SERVICE, main
from repro.core.errors import ServiceError
from repro.obs import Tracer, activated, render_trace, spans_from_jsonl
from repro.obs import trace as obs_trace
from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec
from repro.service.server import LayoutServer

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


@pytest.fixture(scope="class")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("traced-service")
    with LayoutServer(str(root), port=0, workers=2) as server:
        yield ServiceClient(server.url)


def traced_submission(service, job_spec):
    """Submit like ``repro submit`` does: rooted, propagated, posted."""
    tracer = Tracer()
    with activated(tracer):
        with tracer.span("client.submit") as root:
            submitted = service.submit(job_spec)
            result = service.wait(submitted["job"], timeout=60.0)
            root.set(state=result["state"])
    service.post_trace(submitted["job"], tracer.drain())
    return submitted["job"], result


class TestTraceArtifact:
    def test_one_submission_one_span_tree(self, service):
        job, result = traced_submission(service, spec(parameters="t=1\n", compact="x"))
        assert result["state"] == "done"
        spans = spans_from_jsonl(service.artifact(job, "trace.jsonl"))

        names = {span.name for span in spans}
        assert {
            "client.submit",
            "client.request",
            "client.wait",
            "server.submit",
            "store.claim",
            "worker.execute",
            "job.generate",
            "job.compact",
            "job.emit",
        } <= names

        # Single trace, single root, every other span parented inside it.
        assert len({span.trace_id for span in spans}) == 1
        ids = {span.span_id for span in spans}
        roots = [span for span in spans if span.parent_id is None]
        assert [root.name for root in roots] == ["client.submit"]
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in ids
        assert all(span.status == "ok" for span in spans)

        by_name = {span.name: span for span in spans}
        assert "worker_pid" in by_name["worker.execute"].attributes
        solver = by_name.get("solver.solve")
        assert solver is not None and solver.attributes.get("backend")
        assert solver.attributes.get("passes", 0) >= 1
        # The worker roots under the client's request span.
        assert by_name["worker.execute"].parent_id == by_name["client.request"].span_id

    def test_untraced_client_still_gets_worker_trace(self, service):
        assert obs_trace.active() is None
        submitted = service.submit(spec(parameters="serverside=1\n"))
        service.wait(submitted["job"], timeout=60.0)
        spans = spans_from_jsonl(service.artifact(submitted["job"], "trace.jsonl"))
        names = {span.name for span in spans}
        assert "worker.execute" in names and "job.generate" in names
        executed = next(span for span in spans if span.name == "worker.execute")
        assert executed.parent_id is None  # no client trace to join

    def test_trace_survives_warm_resubmission(self, service):
        job_spec = spec(parameters="warmtrace=1\n")
        first = service.submit(job_spec)
        service.wait(first["job"], timeout=60.0)
        before = service.artifact(first["job"], "trace.jsonl")
        again = service.submit(job_spec)
        assert again["deduplicated"] is True
        assert service.artifact(first["job"], "trace.jsonl") == before

    def test_post_trace_unknown_job_is_404(self, service):
        with pytest.raises(ServiceError, match="HTTP 404"):
            service.post_trace("no-such-job", [])


class TestMetricsEndpoint:
    def test_prometheus_text_shape(self, service):
        submitted = service.submit(spec(parameters="m=1\n"))
        service.wait(submitted["job"], timeout=60.0)
        text = service.metrics()
        assert "# TYPE repro_jobs gauge" in text
        assert "# TYPE repro_executions_total counter" in text
        assert "# TYPE repro_stage_latency_seconds histogram" in text
        assert re.search(r'repro_jobs\{state="done"\} [1-9]', text)
        assert re.search(
            r'repro_stage_latency_seconds_bucket\{stage="generate",le="\+Inf"\} [1-9]',
            text,
        )
        assert "repro_workers_alive 2" in text
        sample = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})?'
            r" (\+Inf|-Inf|-?[0-9.e+-]+)$"
        )
        for line in text.strip().splitlines():
            if not line.startswith("#"):
                assert sample.match(line), line

    def test_stats_carries_metrics_json(self, service):
        stats = service.stats()
        assert stats["metrics"]["repro_queue_depth"]["type"] == "gauge"
        assert any(key.startswith("repro_jobs{") for key in stats["metrics"])


class TestCliVerbs:
    def test_trace_verb_renders_tree(self, service, capsys):
        job, _ = traced_submission(service, spec(parameters="clitrace=1\n"))
        assert main(["trace", job, "--url", service.url]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace ")
        assert "worker.execute" in out and "job.generate" in out
        # The rendered tree matches a local render of the artifact.
        payload = service.artifact(job, "trace.jsonl")
        assert out.strip() == render_trace(spans_from_jsonl(payload))

    def test_trace_verb_json_dump(self, service, capsys):
        job, _ = traced_submission(service, spec(parameters="clitrace=2\n"))
        assert main(["trace", job, "--url", service.url, "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(json.loads(line)["trace_id"] for line in lines)

    def test_trace_verb_unknown_job_exits_service_family(self, service, capsys):
        assert main(["trace", "bogus", "--url", service.url]) == EXIT_SERVICE
        assert "HTTP 404" in capsys.readouterr().err

    def test_stats_verb(self, service, capsys):
        submitted = service.submit(spec(parameters="clistats=1\n"))
        service.wait(submitted["job"], timeout=60.0)
        assert main(["stats", "--url", service.url]) == 0
        out = capsys.readouterr().out
        assert out.startswith("jobs: ")
        assert "queue: depth" in out
        assert "workers: 2 alive" in out
        assert "stage latency:" in out

    def test_stats_verb_metrics_dump(self, service, capsys):
        assert main(["stats", "--url", service.url, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "# HELP" in out and "repro_submissions_total" in out

    def test_stats_verb_unreachable_exits_service_family(self, capsys):
        assert main(["stats", "--url", "http://127.0.0.1:9"]) == EXIT_SERVICE
        assert capsys.readouterr().err


class TestTracingDisabled:
    def test_no_trace_artifact_when_disabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        with LayoutServer(str(tmp_path / "svc"), port=0, workers=1) as server:
            client = ServiceClient(server.url)
            submitted = client.submit(spec(parameters="dark=1\n"))
            result = client.wait(submitted["job"], timeout=60.0)
            assert result["state"] == "done"
            with pytest.raises(ServiceError, match="HTTP 404"):
                client.artifact(submitted["job"], "trace.jsonl")
            # The layout artifacts are unaffected.
            assert client.artifact(submitted["job"], "layout.cif")
