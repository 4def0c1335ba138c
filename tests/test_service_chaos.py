"""The chaos suite: the service under deterministic, seeded fault plans.

Every test here activates a :class:`repro.service.chaos.FaultPlan` —
crashes at commit boundaries, torn artifact writes, injected ENOSPC /
EIO, SIGKILLed workers, dropped HTTP responses — drives the real
submit → execute → download flow through it, and then asserts the
*invariants* the service promises to keep under any such plan:

* no wedged jobs — every ledger row reaches ``done`` or ``failed``
  once faults stop and the queue is drained;
* no torn artifact is ever served — a digest-mismatched download
  quarantines and answers 404;
* dedup is preserved — one fingerprint, one row, however many
  submissions and retries it took;
* failures are *surfaced*, with an error message and a CLI exit-code
  family, never swallowed.

:func:`assert_service_invariants` is the shared checker; the seeded
sweep (``test_seeded_fault_plans_terminate_cleanly``) runs it across
eight distinct reproducible plans.  Run just this file via
``make chaos``.
"""

import errno
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.cli import main as cli_main
from repro.core.errors import QueueFullError, ServiceError
from repro.service import chaos
from repro.service.chaos import FaultPlan, FaultSpec
from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec, execute_job
from repro.service.server import LayoutServer
from repro.service.store import ARTIFACT_NAMES, Store, gc_main
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

#: the CLI exit-code families a surfaced failure may carry
EXIT_FAMILIES = {1, 3, 4, 5, 6, 70}


def spec(**overrides):
    base = dict(kind="custom", sample_text=SAMPLE, design_text=DESIGN)
    base.update(overrides)
    return JobSpec(**base)


@pytest.fixture(autouse=True)
def no_leftover_chaos():
    """Whatever a test does, chaos never leaks into the next one."""
    chaos.deactivate()
    yield
    chaos.deactivate()


def assert_service_invariants(store):
    """The robustness contract, checked against the whole ledger.

    Call after faults are deactivated and the queue drained: every
    job must be terminal, every failure classified, every served
    artifact digest-valid, every fingerprint unique (dedup).
    """
    jobs = store.jobs()
    fingerprints = [job["job"] for job in jobs]
    assert len(fingerprints) == len(set(fingerprints)), "dedup broken"
    for job in jobs:
        state = job["state"]
        assert state in ("done", "failed"), (
            f"wedged job {job['job'][:12]}…: state {state!r}"
        )
        assert job["submissions"] >= 1
        if state == "failed":
            assert job["error"], "failure without a surfaced error"
            assert job["error_code"] in EXIT_FAMILIES, (
                f"failure with unclassified exit code {job['error_code']!r}"
            )
        else:
            for name in ARTIFACT_NAMES:
                payload = store.artifact_bytes(job["job"], name)
                assert payload is not None, (
                    f"done job {job['job'][:12]}… serves no {name}"
                )


def drain_queue(root, deadline=90.0):
    """Run a clean worker pool until nothing is queued or running."""
    store = Store(root)

    def unfinished():
        return [
            job for job in store.jobs() if job["state"] in ("queued", "running")
        ]

    if not unfinished():
        return
    pool = WorkerPool(root, workers=2, poll_interval=0.02)
    pool.start()
    try:
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            if not unfinished():
                return
            time.sleep(0.05)
        raise AssertionError(f"queue never drained: {unfinished()}")
    finally:
        pool.stop(drain=True)


class TestFaultPlans:
    def test_seeded_plans_are_deterministic(self):
        assert FaultPlan.seeded(7).to_json() == FaultPlan.seeded(7).to_json()
        assert FaultPlan.seeded(7).to_json() != FaultPlan.seeded(8).to_json()

    def test_plans_round_trip_through_json(self):
        plan = FaultPlan.seeded(3)
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.seed == plan.seed
        assert [f.to_dict() for f in clone.faults] == [
            f.to_dict() for f in plan.faults
        ]

    def test_unknown_action_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultSpec.from_dict({"site": "worker.claimed", "action": "melt"})

    def test_fire_honours_the_trigger_window(self):
        plan = FaultPlan(
            faults=[
                FaultSpec(
                    "cache.read_disk",
                    "raise",
                    after=1,
                    times=1,
                    errno_code=errno.EIO,
                )
            ]
        )
        chaos.activate(plan)
        assert chaos.fire("cache.read_disk") is None  # hit 1: before window
        with pytest.raises(OSError) as caught:  # hit 2: the window
            chaos.fire("cache.read_disk")
        assert caught.value.errno == errno.EIO
        assert chaos.fire("cache.read_disk") is None  # hit 3: spent
        assert chaos.trip_counts() == {"cache.read_disk": 1}

    def test_mangle_truncates_exactly_once(self):
        plan = FaultPlan(
            faults=[FaultSpec("store.artifact.write", "torn", fraction=0.5)]
        )
        chaos.activate(plan)
        payload = b"x" * 100
        assert chaos.mangle("store.artifact.write", payload) == b"x" * 50
        assert chaos.mangle("store.artifact.write", payload) == payload

    def test_env_round_trip_activates_in_fresh_state(self):
        plan = FaultPlan.seeded(11)
        chaos.activate(plan, env=True)
        chaos._plan = None  # simulate a freshly spawned process
        chaos.maybe_load_from_env()
        assert chaos.active_plan() is not None
        assert chaos.active_plan().seed == 11


class TestSeededSweep:
    """≥8 distinct seeded plans, each terminating with invariants held."""

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_fault_plans_terminate_cleanly(self, seed, tmp_path):
        plan = FaultPlan.seeded(seed)
        chaos.activate(plan, env=True)
        specs = [spec(parameters=f"chaos_{seed}_{i}=1\n") for i in range(3)]
        try:
            with LayoutServer(
                str(tmp_path),
                port=0,
                workers=2,
                job_timeout=20.0,
                poll_interval=0.02,
                max_queue_depth=8,
            ) as server:
                client = ServiceClient(
                    server.url, max_retries=8, backoff=0.02, backoff_cap=0.3
                )
                jobs = []
                for job_spec in specs:
                    try:
                        jobs.append(client.submit(job_spec)["job"])
                    except ServiceError:
                        pass  # a surfaced rejection is a legal outcome
                if jobs:  # a duplicate submission must still dedup
                    try:
                        client.submit(specs[0])
                    except ServiceError:
                        pass
                for job in jobs:
                    try:
                        client.wait(job, timeout=45.0)
                    except ServiceError:
                        pass  # failed-and-surfaced is a legal outcome
        finally:
            chaos.deactivate()
        store = Store(str(tmp_path))
        store.recover()
        drain_queue(str(tmp_path))
        assert_service_invariants(store)


class TestTornArtifacts:
    def test_out_of_band_truncation_is_never_served(self, tmp_path):
        store = Store(str(tmp_path))
        job = store.submit(spec(parameters="torn=1\n"))["job"]
        fingerprint, claimed = store.claim(os.getpid())
        store.complete(fingerprint, execute_job(claimed))
        path = store.artifact_dir(job) / "layout.cif"
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])  # torn mid-file
        assert store.artifact_bytes(job, "layout.cif") is None
        assert (store.root / "quarantine" / job).is_dir()
        assert store.counter("quarantined") == 1
        report = store.recover()
        assert job in report["requeued"]
        assert store.status(job)["state"] == "queued"

    def test_injected_torn_write_quarantines_then_recovers(self, tmp_path):
        plan = FaultPlan(
            faults=[FaultSpec("store.artifact.write", "torn", fraction=0.5)]
        )
        chaos.activate(plan, env=True)
        try:
            with LayoutServer(
                str(tmp_path), port=0, workers=1, poll_interval=0.02
            ) as server:
                client = ServiceClient(server.url)
                job = client.submit(spec(parameters="torn=2\n"))["job"]
                client.wait(job, timeout=60.0)
                with pytest.raises(ServiceError, match="HTTP 404"):
                    client.artifact(job, "layout.cif")
                assert server.store.counter("quarantined") >= 1
                chaos.deactivate()  # the fault window is spent; stop chaos
                report = server.store.recover()
                assert job in report["requeued"]
                result = client.wait(job, timeout=60.0)
                assert result["state"] == "done"
                cif = client.artifact(job, "layout.cif")
                assert cif.startswith(b"( CIF generated by repro RSG")
        finally:
            chaos.deactivate()


class TestBackpressure:
    def test_429_retry_after_round_trips_through_client(self, tmp_path):
        with LayoutServer(
            str(tmp_path),
            port=0,
            workers=1,
            poll_interval=0.02,
            max_queue_depth=1,
        ) as server:
            client = ServiceClient(server.url)
            slow = client.submit(spec(delay=1.2, parameters="slow=1\n"))["job"]
            deadline = time.monotonic() + 10.0
            while client.status(slow)["state"] != "running":
                assert time.monotonic() < deadline, "slow job never claimed"
                time.sleep(0.02)
            client.submit(spec(parameters="fills=1\n"))  # depth 1 == max

            # the raw protocol: 429 with a Retry-After header
            request = urllib.request.Request(
                f"{server.url}/jobs",
                data=json.dumps(
                    spec(parameters="rejected=1\n").to_dict()
                ).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=10.0)
            assert caught.value.code == 429
            assert float(caught.value.headers["Retry-After"]) > 0

            # degraded health while the queue is full
            health = client.health()
            assert health["ok"] is False
            assert any("queue full" in reason for reason in health["degraded"])

            # the resilient client backs off and eventually lands the job
            patient = ServiceClient(server.url, max_retries=40, backoff=0.05)
            sleeps = []
            patient._sleep = lambda seconds: (
                sleeps.append(seconds),
                time.sleep(min(seconds, 0.2)),
            )
            submitted = patient.submit(spec(parameters="patient=1\n"))
            assert submitted["state"] == "queued"
            assert patient.retries >= 1
            assert sleeps and all(second > 0 for second in sleeps)
            assert server.store.counter("backpressure_rejections") >= 2
            for job in (slow, submitted["job"]):
                patient.wait(job, timeout=60.0)

    def test_store_level_backpressure_never_breaks_dedup(self, tmp_path):
        store = Store(str(tmp_path), max_queue_depth=1, retry_after=0.5)
        first = spec(parameters="bp=1\n")
        store.submit(first)
        with pytest.raises(QueueFullError) as caught:
            store.submit(spec(parameters="bp=2\n"))
        assert caught.value.retry_after == 0.5
        assert store.counter("backpressure_rejections") == 1
        # attaching to the existing queued row is always allowed
        again = store.submit(first)
        assert again["deduplicated"] is True


class TestRecovery:
    def _dead_pid(self):
        process = subprocess.Popen([sys.executable, "-c", "pass"])
        process.wait()
        return process.pid

    def test_orphaned_running_row_is_requeued(self, tmp_path):
        store = Store(str(tmp_path))
        job = store.submit(spec(parameters="orphan=1\n"))["job"]
        fingerprint, _ = store.claim(self._dead_pid())
        assert store.status(fingerprint)["state"] == "running"
        report = store.recover()
        assert report["requeued"] == [job]
        assert store.status(job)["state"] == "queued"
        assert store.counter("recovery_requeued") == 1
        assert store.recover()["requeued"] == []  # idempotent

    def test_exhausted_attempts_fail_for_good_with_internal_code(self, tmp_path):
        store = Store(str(tmp_path), max_attempts=1)
        job = store.submit(spec(parameters="orphan=2\n"))["job"]
        store.claim(self._dead_pid())
        report = store.recover()
        assert report["failed"] == [job]
        status = store.status(job)
        assert status["state"] == "failed"
        assert status["error_code"] == 70
        assert "lost" in status["error"]

    def test_live_pid_is_left_alone(self, tmp_path):
        store = Store(str(tmp_path))
        store.submit(spec(parameters="orphan=3\n"))
        fingerprint, _ = store.claim(os.getpid())  # this very process
        assert store.recover()["requeued"] == []
        assert store.status(fingerprint)["state"] == "running"


class TestEviction:
    def _filled_store(self, tmp_path, count=3):
        store = Store(str(tmp_path))
        jobs = []
        for index in range(count):
            job = store.submit(spec(parameters=f"gc_{index}=1\n"))["job"]
            fingerprint, claimed = store.claim(os.getpid())
            store.complete(fingerprint, execute_job(claimed))
            jobs.append(job)
        return store, jobs

    def test_evict_shrinks_below_budget_lru_first(self, tmp_path):
        store, jobs = self._filled_store(tmp_path)
        old = store.artifact_dir(jobs[0])
        past = time.time() - 3600
        for path in old.iterdir():
            os.utime(path, (past, past))
        sizes = sum(
            path.stat().st_size
            for job in jobs
            for path in store.artifact_dir(job).iterdir()
        )
        report = store.evict(max_bytes=sizes - 1)  # force exactly one out
        assert report["evicted"] == 1
        assert report["kept_bytes"] <= sizes - 1
        assert not old.exists()  # the coldest directory went first
        assert store.status(jobs[0]) is None  # ledger row went with it
        assert store.status(jobs[1])["state"] == "done"
        assert store.counter("evicted") == 1

    def test_evict_never_touches_live_jobs(self, tmp_path):
        store, jobs = self._filled_store(tmp_path)
        live = store.submit(spec(parameters="gc_live=1\n"))["job"]
        partial = store.artifact_dir(live)
        partial.mkdir(parents=True)
        (partial / "layout.cif").write_bytes(b"in progress")
        report = store.evict(max_bytes=0)
        assert report["skipped_live"] == 1
        assert report["evicted"] == len(jobs)
        assert partial.exists()
        assert store.status(live)["state"] == "queued"

    def test_gc_verb_reports_and_respects_budgets(self, tmp_path, capsys):
        self._filled_store(tmp_path)
        assert gc_main(
            ["--root", str(tmp_path), "--max-bytes", "0", "--cache-max-bytes", "0"]
        ) == 0
        output = capsys.readouterr().out
        assert "artifacts: evicted 3 job(s)" in output
        assert "cache:" in output

    def test_gc_is_a_cli_verb(self, tmp_path, capsys):
        self._filled_store(tmp_path)
        assert cli_main(["gc", "--root", str(tmp_path), "--max-bytes", "1G"]) == 0
        assert "evicted 0 job(s)" in capsys.readouterr().out

    def test_gc_requires_a_budget_and_a_root(self, tmp_path):
        with pytest.raises(SystemExit):
            gc_main(["--root", str(tmp_path)])
        assert cli_main(
            ["gc", "--root", str(tmp_path / "nonesuch"), "--max-bytes", "1M"]
        ) == 6  # EXIT_SERVICE


class TestInjectedDiskErrors:
    def test_enospc_on_cache_write_degrades_not_fails(self, tmp_path):
        plan = FaultPlan(
            faults=[
                FaultSpec(
                    "cache.write_disk", "raise", errno_code=errno.ENOSPC
                )
            ]
        )
        chaos.activate(plan)
        try:
            store = Store(str(tmp_path))
            cache = store.compaction_cache()
            cache.put("key-1", {"value": 1})  # injected ENOSPC, absorbed
            assert cache.cache_stats.write_errors == 1
            assert cache.get("key-1") == {"value": 1}  # memory tier holds
            cache.put("key-2", {"value": 2})  # window spent: persists
            assert cache.cache_stats.write_errors == 1
        finally:
            chaos.deactivate()

    def test_eio_on_cache_read_is_a_miss(self, tmp_path):
        store = Store(str(tmp_path))
        cache = store.compaction_cache()
        cache.put("key-3", {"value": 3})
        plan = FaultPlan(
            faults=[
                FaultSpec("cache.read_disk", "raise", errno_code=errno.EIO)
            ]
        )
        chaos.activate(plan)
        try:
            fresh = store.compaction_cache()  # cold memory tier: disk path
            assert fresh.get("key-3") is None  # injected EIO -> miss
            assert fresh.get("key-3") == {"value": 3}  # window spent
        finally:
            chaos.deactivate()


class TestClientResilience:
    def test_dropped_response_is_resubmitted_idempotently(self, tmp_path):
        plan = FaultPlan(faults=[FaultSpec("server.respond", "drop")])
        chaos.activate(plan, env=True)
        try:
            with LayoutServer(
                str(tmp_path), port=0, workers=1, poll_interval=0.02
            ) as server:
                client = ServiceClient(
                    server.url, max_retries=5, backoff=0.02
                )
                submitted = client.submit(spec(parameters="drop=1\n"))
                # the first submission landed; the retry deduplicated
                assert client.retries >= 1
                assert submitted["deduplicated"] is True
                result = client.wait(submitted["job"], timeout=60.0)
                assert result["state"] == "done"
        finally:
            chaos.deactivate()

    def test_wait_takes_one_request_and_no_sleep(self, tmp_path):
        """Against the real server a wait is one held request."""
        with LayoutServer(
            str(tmp_path), port=0, workers=1, poll_interval=0.02
        ) as server:
            client = ServiceClient(server.url)
            sleeps, requests = [], []
            client._sleep = sleeps.append
            answer = client.result
            client.result = lambda job, wait=None: (
                requests.append(wait), answer(job, wait=wait)
            )[1]
            job = client.submit(spec(delay=0.4, parameters="poll=1\n"))["job"]
            assert client.wait(job, timeout=60.0)["state"] == "done"
        assert len(requests) == 1, requests
        assert 0 < requests[0] <= client.timeout / 2
        assert sleeps == []

    def test_expired_window_is_asked_again_without_sleep(self, tmp_path):
        """A 202 that was held for its whole window needs no back-off."""
        with LayoutServer(
            str(tmp_path), port=0, workers=1, poll_interval=0.02
        ) as server:
            client = ServiceClient(server.url, timeout=0.5)  # 0.25 s windows
            sleeps, requests = [], []
            client._sleep = sleeps.append
            answer = client.result
            client.result = lambda job, wait=None: (
                requests.append(wait), answer(job, wait=wait)
            )[1]
            job = client.submit(spec(delay=0.8, parameters="expire=1\n"))["job"]
            assert client.wait(job, timeout=60.0)["state"] == "done"
        assert len(requests) >= 3, requests
        assert all(window == 0.25 for window in requests)
        assert sleeps == []

    def test_wait_backs_off_instead_of_busy_polling(self):
        """A daemon that ignores ``wait`` still is not hammered."""
        pending = 8
        seen = []

        class Stub(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 — http.server contract
                seen.append(self.path)
                done = len(seen) > pending
                body = json.dumps(
                    {"state": "done" if done else "queued", "result": {}}
                ).encode("utf-8")
                self.send_response(200 if done else 202)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        stub = ThreadingHTTPServer(("127.0.0.1", 0), Stub)
        thread = threading.Thread(target=stub.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = stub.server_address[:2]
            client = ServiceClient(f"http://{host}:{port}")
            sleeps = []
            client._sleep = sleeps.append
            assert client.wait("f" * 64, timeout=60.0)["state"] == "done"
        finally:
            stub.shutdown()
            stub.server_close()
        assert all("?wait=" in path for path in seen)  # it did ask to be held
        assert len(sleeps) == pending
        assert sleeps[0] <= 0.05
        assert sorted(sleeps) == sleeps  # monotone backoff
        assert all(second <= 2.0 for second in sleeps)

    def test_killed_worker_does_not_strand_a_held_wait(self, tmp_path):
        """A waiter held across a worker's death ends in ``done`` early.

        The retry runs on a respawned worker; its completion must answer
        the held request at once, not at the next 2 s heartbeat and not
        at the end of the 10 s window.
        """
        with LayoutServer(
            str(tmp_path), port=0, workers=1, max_attempts=2, poll_interval=2.0
        ) as server:
            client = ServiceClient(server.url, timeout=20.0)  # 10 s windows
            requests = []
            answer = client.result
            client.result = lambda job, wait=None: (
                requests.append(wait), answer(job, wait=wait)
            )[1]
            job = client.submit(spec(delay=1.0, parameters="strand=1\n"))["job"]
            outcome = {}

            def hold():
                started = time.monotonic()
                outcome["result"] = client.wait(job, timeout=60.0)
                outcome["seconds"] = time.monotonic() - started
                outcome["answered_at"] = time.time()

            holder = threading.Thread(target=hold)
            holder.start()
            deadline = time.monotonic() + 10.0
            while server.store.status(job)["state"] != "running":
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.02)
            os.kill(server.store.status(job)["worker_pid"], signal.SIGKILL)
            holder.join(timeout=30.0)
            status = server.store.status(job)
        assert outcome["result"]["state"] == "done"
        assert status["attempts"] == 2
        assert len(requests) == 1 and requests[0] >= 9.0  # one held request
        assert outcome["seconds"] < 8.0, outcome["seconds"]
        lag = outcome["answered_at"] - status["finished_at"]
        assert lag < 0.5, f"answered {lag:.2f}s after the retry finished"

    def test_connection_refused_eventually_surfaces(self):
        client = ServiceClient(
            "http://127.0.0.1:9", max_retries=2, backoff=0.001
        )
        client._sleep = lambda seconds: None
        with pytest.raises(ServiceError, match="cannot reach layout service"):
            client.health()
        assert client.retries == 2  # it did try
