"""The HTTP front end, end to end: daemon, client, and CLI verbs.

Most tests drive an in-process :class:`LayoutServer` on an ephemeral
port through :class:`ServiceClient` — the same code path as ``repro
submit``.  The final class boots the real ``repro serve`` CLI as a
subprocess and asserts the clean-shutdown contract: SIGTERM drains
in-flight jobs and exits 0.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.errors import ServiceError
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
    root = tmp_path_factory.mktemp("service")
    with LayoutServer(str(root), port=0, workers=2) as server:
        yield ServiceClient(server.url)


class TestEndpoints:
    def test_health_reports_workers(self, service):
        health = service.health()
        assert health["ok"] is True
        assert health["workers"] == 2

    def test_submit_wait_fetch_round_trip(self, service):
        submitted = service.submit(spec(parameters="rt=1\n"))
        assert submitted["state"] == "queued"
        assert submitted["deduplicated"] is False
        result = service.wait(submitted["job"], timeout=60.0)
        assert result["state"] == "done"
        assert result["result"]["cell_name"] == "top"
        cif = service.artifact(submitted["job"], "layout.cif")
        assert cif.startswith(b"( CIF generated by repro RSG")
        report = json.loads(service.artifact(submitted["job"], "result.json"))
        assert report["cell_name"] == "top"

    def test_warm_resubmission_answers_done(self, service):
        job = spec(parameters="warm=1\n")
        first = service.submit(job)
        service.wait(first["job"], timeout=60.0)
        again = service.submit(job)
        assert again["state"] == "done"
        assert again["deduplicated"] is True

    def test_dict_payload_submission(self, service):
        submitted = service.submit(
            {
                "kind": "custom",
                "sample_text": SAMPLE,
                "design_text": DESIGN,
                "parameters": "dict=1\n",
            }
        )
        assert service.wait(submitted["job"], timeout=60.0)["state"] == "done"

    def test_bad_spec_is_http_400(self, service):
        with pytest.raises(ServiceError, match="HTTP 400.*unknown job-spec field"):
            service.submit({"kind": "custom", "bogus": True})
        with pytest.raises(ServiceError, match="HTTP 400.*sample_text"):
            service.submit({"kind": "custom"})

    @pytest.mark.parametrize(
        "payload,message",
        [
            ({"kind": ["x"]}, "kind must be a string"),
            ({"kind": "multiplier", "tech": 1}, "tech must be a string"),
            ({"kind": "multiplier", "output_cell": 5}, "output_cell must be a string"),
            ({"kind": "multiplier", "compact": "x", "solver": "topological"}, "removed"),
        ],
        ids=["kind", "tech", "output_cell", "solver"],
    )
    def test_badly_typed_spec_is_http_400(self, service, payload, message):
        # a type error inside validation must not drop the connection,
        # and a spec no worker can run must not be queued
        with pytest.raises(ServiceError, match=f"HTTP 400.*{message}"):
            service.submit(payload)

    def test_unknown_job_is_http_404(self, service):
        with pytest.raises(ServiceError, match="HTTP 404"):
            service.status("f" * 64)

    def test_unknown_endpoint_is_http_404(self, service):
        with pytest.raises(ServiceError, match="HTTP 404"):
            service._request("/nonesuch")

    def test_artifact_traversal_is_http_400(self, service):
        submitted = service.submit(spec(parameters="trav=1\n"))
        service.wait(submitted["job"], timeout=60.0)
        with pytest.raises(ServiceError, match="HTTP 400.*unknown artifact"):
            service.artifact(submitted["job"], "..%2Fjobs.sqlite")

    def test_pending_result_is_http_202(self, service):
        submitted = service.submit(spec(delay=1.0, parameters="slow=1\n"))
        request = urllib.request.Request(
            f"{service.url}/jobs/{submitted['job']}/result"
        )
        with urllib.request.urlopen(request, timeout=10.0) as response:
            assert response.status == 202
            assert json.loads(response.read())["state"] in ("queued", "running")
        service.wait(submitted["job"], timeout=60.0)

    def test_failed_job_raises_with_recorded_error(self, service):
        submitted = service.submit(
            spec(design_text='(mk_instance t nonesuch)\n(mk_cell "top" t)\n')
        )
        with pytest.raises(ServiceError, match="failed"):
            service.wait(submitted["job"], timeout=60.0)

    def test_stats_expose_dedup_and_cache(self, service):
        job = spec(parameters="stats=1\n")
        service.wait(service.submit(job)["job"], timeout=60.0)
        service.submit(job)
        stats = service.stats()
        assert stats["submissions"] > stats["executions"]
        assert stats["dedup_factor"] > 1.0
        assert stats["workers"] == 2
        assert "cache" in stats and "stage_latency" in stats

    def test_unreachable_service_is_a_service_error(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=2.0)
        with pytest.raises(ServiceError, match="cannot reach layout service"):
            client.health()


class TestQueryStrings:
    """A query string never takes part in routing."""

    def _get(self, url):
        try:
            with urllib.request.urlopen(url, timeout=10.0) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_query_is_stripped_before_routing(self, service):
        job = service.submit(spec(parameters="query=1\n"))["job"]
        service.wait(job, timeout=60.0)
        for path in (f"/jobs/{job}?x=1", f"/jobs/{job}/result?x=1&y=2"):
            code, payload = self._get(service.url + path)
            assert code == 200, payload
            assert payload["job"] == job
        code, payload = self._get(service.url + "/healthz?verbose=1")
        assert code == 200 and payload["ok"] is True

    @pytest.mark.parametrize("value", ["-1", "soon", "", "nan"])
    def test_malformed_or_negative_wait_is_http_400(self, service, value):
        job = service.submit(spec(parameters="badwait=1\n"))["job"]
        code, payload = self._get(f"{service.url}/jobs/{job}/result?wait={value}")
        assert code == 400
        assert "wait must be a non-negative number" in payload["error"]


class TestPushNotPoll:
    """Hand-offs ride notifications; ``poll_interval`` is only the heartbeat."""

    def test_fresh_job_round_trip_does_not_wait_for_the_heartbeat(self, tmp_path):
        with LayoutServer(
            str(tmp_path), port=0, workers=1, poll_interval=5.0
        ) as server:
            client = ServiceClient(server.url)
            time.sleep(0.2)  # the worker is idle, blocked on its wake-up
            started = time.monotonic()
            job = client.submit(spec(parameters="push=1\n"))["job"]
            result = client.wait(job, timeout=30.0)
            elapsed = time.monotonic() - started
        assert result["state"] == "done"
        assert elapsed < 1.0, f"submit -> wait took {elapsed:.2f}s"

    def test_stop_answers_held_waiters_at_once(self, tmp_path):
        server = LayoutServer(str(tmp_path), port=0, workers=1)
        server.start()
        client = ServiceClient(server.url)
        job = client.submit(spec(delay=2.0, parameters="held=1\n"))["job"]
        answered = {}

        def hold():
            url = f"{server.url}/jobs/{job}/result?wait=30"
            with urllib.request.urlopen(url, timeout=40.0) as response:
                answered["code"] = response.status
                answered["state"] = json.loads(response.read())["state"]
                answered["at"] = time.monotonic()

        holder = threading.Thread(target=hold)
        holder.start()
        time.sleep(0.3)
        stopping = time.monotonic()
        drained = server.stop(drain=True)
        holder.join(timeout=10.0)
        assert answered["code"] == 202
        assert answered["state"] in ("queued", "running")
        # held until the stop began, then answered at once, not after
        # the drain or the window
        assert 0.0 <= answered["at"] - stopping < 1.0
        assert drained == 1


class TestDegradedHealth:
    """``/healthz`` flips to 503 with reasons when the service is impaired."""

    def test_healthy_service_answers_200(self, tmp_path):
        with LayoutServer(str(tmp_path), port=0, workers=1) as server:
            request = urllib.request.Request(f"{server.url}/healthz")
            with urllib.request.urlopen(request, timeout=10.0) as response:
                assert response.status == 200
                payload = json.loads(response.read())
            assert payload["ok"] is True
            assert payload["degraded"] == []
            assert payload["workers_configured"] == 1
            assert payload["quarantined"] == 0
            assert payload["recovery_requeued"] == 0

    def test_dead_workers_and_full_queue_degrade(self, tmp_path):
        with LayoutServer(
            str(tmp_path), port=0, workers=2, max_queue_depth=1
        ) as server:
            client = ServiceClient(server.url)
            assert client.health()["ok"] is True
            server.pool.stop(drain=True)  # every worker gone

            health = client.health()  # the client accepts the 503 answer
            assert health["ok"] is False
            assert any("workers: 0/2" in reason for reason in health["degraded"])

            client.submit(spec(parameters="degraded=1\n"))  # fills the queue
            health = client.health()
            assert any("queue full: 1/1" in r for r in health["degraded"])
            assert health["queue_depth"] == 1
            assert health["max_queue_depth"] == 1

            # the raw status code really is non-200, for probes
            request = urllib.request.Request(f"{server.url}/healthz")
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=10.0)
            assert caught.value.code == 503


class TestServeCli:
    """The ``repro serve`` subprocess: boot, serve, drain, exit 0."""

    def _boot(self, root, tmp_path, extra=()):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--root", str(root),
             "--port", "0", "--workers", "1", *extra],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.getcwd(),
        )
        banner = process.stdout.readline()
        assert banner.startswith("serving on http://"), banner
        url = banner.split()[2]
        return process, url

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """ISSUE acceptance: SIGTERM → drain in-flight → clean exit."""
        root = tmp_path / "state"
        process, url = self._boot(root, tmp_path)
        try:
            client = ServiceClient(url)
            slow = client.submit(spec(delay=1.0))
            deadline = time.monotonic() + 30.0
            while client.status(slow["job"])["state"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.02)

            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=60.0)
        finally:
            if process.poll() is None:
                process.kill()
        assert process.returncode == 0, stderr
        assert "drained 1 in-flight job(s); clean shutdown" in stdout

        # the drained job really finished: its artifacts survived
        from repro.service.store import Store

        store = Store(str(root))
        assert store.status(slow["job"])["state"] == "done"
        assert store.artifact_bytes(slow["job"], "layout.cif")

    def test_restart_serves_previous_artifacts_warm(self, tmp_path):
        root = tmp_path / "state"
        process, url = self._boot(root, tmp_path)
        try:
            client = ServiceClient(url)
            job = spec(parameters="restart=1\n")
            first = client.submit(job)
            client.wait(first["job"], timeout=60.0)
            process.send_signal(signal.SIGTERM)
            process.communicate(timeout=60.0)
        finally:
            if process.poll() is None:
                process.kill()
        assert process.returncode == 0

        process, url = self._boot(root, tmp_path)
        try:
            client = ServiceClient(url)
            again = client.submit(job)
            assert again["state"] == "done"
            assert again["deduplicated"] is True
            process.send_signal(signal.SIGTERM)
            stdout, _ = process.communicate(timeout=60.0)
        finally:
            if process.poll() is None:
                process.kill()
        assert process.returncode == 0
        assert "drained 0 in-flight job(s)" in stdout

    def test_port_collision_is_a_clean_service_error(self, tmp_path):
        root = tmp_path / "state"
        process, url = self._boot(root, tmp_path)
        try:
            port = url.rsplit(":", 1)[1]
            clash = subprocess.run(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--root", str(tmp_path / "other"), "--port", port],
                capture_output=True,
                text=True,
                timeout=60.0,
                env={**os.environ, "PYTHONPATH": "src"},
            )
            assert clash.returncode == 6  # EXIT_SERVICE
            assert "cannot bind" in clash.stderr
        finally:
            process.send_signal(signal.SIGTERM)
            process.communicate(timeout=60.0)
            if process.poll() is None:
                process.kill()


class TestSubmitCli:
    def test_submit_round_trip_writes_output(self, tmp_path):
        root = tmp_path / "state"
        with LayoutServer(str(root), port=0, workers=1) as server:
            sample = tmp_path / "tiny.sample"
            design = tmp_path / "tiny.design"
            sample.write_text(SAMPLE)
            design.write_text(DESIGN)
            parameters = tmp_path / "tiny.par"
            parameters.write_text(
                f".example_file:{sample}\n.concept_file:{design}\n"
            )
            output = tmp_path / "out.cif"
            result = subprocess.run(
                [sys.executable, "-m", "repro.cli", "submit", str(parameters),
                 "--url", server.url, "--output", str(output)],
                capture_output=True,
                text=True,
                timeout=120.0,
                env={**os.environ, "PYTHONPATH": "src"},
            )
            assert result.returncode == 0, result.stderr
            assert "done in" in result.stdout
            assert output.read_text().startswith("( CIF generated by repro RSG")

            # same files, second submission: the daemon answers warm
            rerun = subprocess.run(
                [sys.executable, "-m", "repro.cli", "submit", str(parameters),
                 "--url", server.url],
                capture_output=True,
                text=True,
                timeout=120.0,
                env={**os.environ, "PYTHONPATH": "src"},
            )
            assert rerun.returncode == 0, rerun.stderr
            assert "(deduplicated)" in rerun.stdout
