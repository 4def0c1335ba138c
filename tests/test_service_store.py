"""The store is the dedup contract: one fingerprint, one execution.

Everything the HTTP layer and worker pool rely on is pinned here
against a bare :class:`repro.service.store.Store` — no daemon, no
processes — so failures localise: submission dedup, atomic claiming
under thread concurrency, artifact round-trips, bounded retry, cache
counters, and restart survival.
"""

import json
import shutil
import threading

import pytest

from repro.compact.cache import CacheStats
from repro.core.errors import ServiceError
from repro.service import chaos
from repro.service.chaos import FaultPlan, FaultSpec
from repro.service.jobs import JobSpec, execute_job
from repro.service.store import Store

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


@pytest.fixture
def store(tmp_path):
    return Store(str(tmp_path / "service"))


def spec(**overrides):
    base = dict(kind="custom", sample_text=SAMPLE, design_text=DESIGN)
    base.update(overrides)
    return JobSpec(**base)


class TestSubmission:
    def test_first_submission_queues(self, store):
        submitted = store.submit(spec())
        assert submitted["state"] == "queued"
        assert submitted["deduplicated"] is False
        assert store.queue_depth() == 1

    def test_resubmission_deduplicates(self, store):
        job = store.submit(spec())["job"]
        again = store.submit(spec())
        assert again["job"] == job
        assert again["deduplicated"] is True
        assert store.queue_depth() == 1
        assert store.status(job)["submissions"] == 2

    def test_distinct_specs_queue_separately(self, store):
        store.submit(spec())
        store.submit(spec(parameters="a=1\n"))
        assert store.queue_depth() == 2

    def test_done_job_resubmission_stays_done(self, store):
        job = store.submit(spec())["job"]
        fingerprint, claimed = store.claim(worker_pid=1)
        store.complete(fingerprint, execute_job(claimed))
        again = store.submit(spec())
        assert again == {"job": job, "state": "done", "deduplicated": True}
        assert store.queue_depth() == 0

    def test_failed_job_resubmission_requeues_fresh(self, store):
        job = store.submit(spec())["job"]
        store.claim(worker_pid=1)
        store.fail(job, "boom")
        assert store.status(job)["state"] == "failed"
        again = store.submit(spec())
        assert again["state"] == "queued"
        assert again["deduplicated"] is False
        status = store.status(job)
        assert status["attempts"] == 0
        assert status["error"] is None


class TestClaiming:
    def test_claim_returns_spec_and_marks_running(self, store):
        submitted = store.submit(spec(parameters="a=1\n"))
        claimed = store.claim(worker_pid=42)
        assert claimed is not None
        fingerprint, job_spec = claimed
        assert fingerprint == submitted["job"]
        assert job_spec.parameters == "a=1\n"
        status = store.status(fingerprint)
        assert status["state"] == "running"
        assert status["worker_pid"] == 42
        assert status["executions"] == 1

    def test_empty_queue_claims_none(self, store):
        assert store.claim(worker_pid=1) is None

    def _store_spec_as(self, store, payload):
        """Queue a job, then rewrite its stored spec to ``payload``."""
        job = store.submit(spec(compact="x"))["job"]
        with store._connect() as connection:
            connection.execute(
                "UPDATE jobs SET spec = ? WHERE fingerprint = ?",
                (json.dumps(payload), job),
            )
        return job

    @pytest.mark.parametrize("solver", [None, "bellman-ford"])
    def test_claims_a_spec_stored_with_a_solver_field(self, store, solver):
        # Earlier builds stored asdict(spec), which had a solver field.
        job = self._store_spec_as(
            store, {**spec(compact="x").to_dict(), "solver": solver}
        )
        assert store.claim(worker_pid=1) == (job, spec(compact="x"))

    @pytest.mark.parametrize("solver", ["topological", "incremental"])
    def test_stored_spec_naming_a_removed_solver_fails_its_job(self, store, solver):
        from repro.cli import EXIT_SERVICE

        job = self._store_spec_as(
            store, {**spec(compact="x").to_dict(), "solver": solver}
        )
        assert store.claim(worker_pid=1) is None
        status = store.status(job)
        assert status["state"] == "failed"
        assert status["error_code"] == EXIT_SERVICE
        assert "removed" in status["error"]
        assert store.claim(worker_pid=1) is None  # the queue is empty

    def test_oldest_submission_claimed_first(self, store):
        first = store.submit(spec(parameters="a=1\n"))["job"]
        store.submit(spec(parameters="a=2\n"))
        fingerprint, _ = store.claim(worker_pid=1)
        assert fingerprint == first

    def test_concurrent_claims_never_double_claim(self, store):
        for index in range(4):
            store.submit(spec(parameters=f"a={index}\n"))
        claimed, lock = [], threading.Lock()

        def worker(pid):
            while True:
                claim = store.claim(worker_pid=pid)
                if claim is None:
                    return
                with lock:
                    claimed.append(claim[0])

        threads = [threading.Thread(target=worker, args=(pid,)) for pid in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(claimed) == 4
        assert len(set(claimed)) == 4
        assert store.queue_depth() == 0


class TestCompletionAndArtifacts:
    def test_complete_persists_artifacts_and_timings(self, store):
        store.submit(spec())
        fingerprint, claimed = store.claim(worker_pid=1)
        result = execute_job(claimed)
        store.complete(fingerprint, result)
        assert store.status(fingerprint)["state"] == "done"
        cif = store.artifact_bytes(fingerprint, "layout.cif")
        assert cif == result.cif.encode("utf-8")
        payload = json.loads(store.artifact_bytes(fingerprint, "result.json"))
        assert payload["cell_name"] == "top"
        full = store.result(fingerprint)
        assert full["result"]["cell_name"] == "top"
        assert "generate" in store.stats()["stage_latency"]

    def test_artifact_names_are_policed(self, store):
        store.submit(spec())
        job = store.claim(worker_pid=1)[0]
        with pytest.raises(ServiceError, match="unknown artifact"):
            store.artifact_bytes(job, "../jobs.sqlite")

    def test_missing_artifact_is_none_not_error(self, store):
        job = store.submit(spec())["job"]
        assert store.artifact_bytes(job, "layout.cif") is None

    def test_unknown_job_status_is_none(self, store):
        assert store.status("nope") is None
        assert store.result("nope") is None


class TestFailureAndRetry:
    def test_plain_failure_records_error(self, store):
        job = store.submit(spec())["job"]
        store.claim(worker_pid=1)
        assert store.fail(job, "pipeline exploded") == "failed"
        status = store.status(job)
        assert status["state"] == "failed"
        assert status["error"] == "pipeline exploded"

    def test_retry_requeues_until_attempts_exhausted(self, store):
        job = store.submit(spec())["job"]
        store.claim(worker_pid=1)  # attempt 1
        assert store.fail(job, "worker crashed", retry=True) == "queued"
        store.claim(worker_pid=2)  # attempt 2 == max_attempts
        assert store.fail(job, "worker crashed", retry=True) == "failed"

    def test_fail_guard_ignores_stale_pid(self, store):
        job = store.submit(spec())["job"]
        store.claim(worker_pid=7)
        assert store.fail(job, "not yours", expect_pid=99) is None
        assert store.status(job)["state"] == "running"

    def test_fail_guard_ignores_finished_job(self, store):
        store.submit(spec())
        fingerprint, claimed = store.claim(worker_pid=1)
        store.complete(fingerprint, execute_job(claimed))
        assert store.fail(fingerprint, "too late", expect_pid=1) is None
        assert store.status(fingerprint)["state"] == "done"


class TestStats:
    def test_dedup_factor_is_submissions_over_executions(self, store):
        for _ in range(3):
            store.submit(spec())
        fingerprint, claimed = store.claim(worker_pid=1)
        store.complete(fingerprint, execute_job(claimed))
        stats = store.stats()
        assert stats["submissions"] == 3
        assert stats["executions"] == 1
        assert stats["dedup_factor"] == 3.0
        assert stats["jobs"] == {"done": 1}

    def test_cache_counters_accumulate_across_workers(self, store):
        store.record_cache_stats(CacheStats(hits=3, misses=1, bytes_written=128))
        store.record_cache_stats(CacheStats(hits=1, misses=1, bytes_read=64))
        cache = store.stats()["cache"]
        assert cache["cache_hits"] == 4
        assert cache["cache_misses"] == 2
        assert cache["cache_bytes_written"] == 128
        assert cache["cache_bytes_read"] == 64
        assert cache["hit_rate"] == pytest.approx(4 / 6)

    def test_empty_store_stats_are_calm(self, store):
        stats = store.stats()
        assert stats["dedup_factor"] is None
        assert stats["cache"]["hit_rate"] is None


class TestPersistence:
    def test_store_survives_reopen(self, store):
        store.submit(spec())
        fingerprint, claimed = store.claim(worker_pid=1)
        result = execute_job(claimed)
        store.complete(fingerprint, result)
        reopened = Store(str(store.root))
        assert reopened.status(fingerprint)["state"] == "done"
        assert reopened.artifact_bytes(fingerprint, "layout.cif") == result.cif.encode(
            "utf-8"
        )
        again = reopened.submit(spec())
        assert again["state"] == "done"
        assert again["deduplicated"] is True

    def test_shared_compaction_cache_lives_under_root(self, store):
        cache = store.compaction_cache()
        assert str(store.root) in str(cache.directory)


class TestConnection:
    """One long-lived connection per store, shared by its threads."""

    def test_fresh_store_at_a_recreated_root_sees_an_empty_ledger(self, tmp_path):
        """A connection belongs to its store, never to the root's path.

        A session that deletes its root and opens a new store there (as
        flowbench's ``service-mix`` does) must not be answered from the
        deleted ledger, even while the old store is still alive.
        """
        root = tmp_path / "service"
        old = Store(str(root))
        old.submit(spec())
        shutil.rmtree(root)
        fresh = Store(str(root))
        assert fresh.jobs() == []
        assert (root / "jobs.sqlite").exists()
        assert len(old.jobs()) == 1

    def test_threads_share_one_store(self, store):
        """8 submitting threads and a reader: exact counts, no misuse."""
        errors = []
        submitted = threading.Event()

        def submit(thread):
            try:
                for index in range(25):
                    store.submit(spec(parameters=f"t{thread}_{index}=1\n"))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        def read():
            try:
                while not submitted.is_set():
                    store.stats()
                    store.status("nope")
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        reader = threading.Thread(target=read)
        reader.start()
        writers = [threading.Thread(target=submit, args=(t,)) for t in range(8)]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join()
        submitted.set()
        reader.join()
        assert errors == []
        stats = store.stats()
        assert stats["jobs"] == {"queued": 200}
        assert stats["submissions"] == 200
        assert store.queue_depth() == 200

    def test_claim_that_raises_before_commit_rolls_back(self, store):
        """An in-process failure leaves no transaction open behind it."""
        job = store.submit(spec())["job"]
        chaos.activate(FaultPlan([FaultSpec("store.claim.pre_commit", "raise")]))
        try:
            with pytest.raises(OSError, match="injected"):
                store.claim(worker_pid=1)
        finally:
            chaos.deactivate()
        status = store.status(job)
        assert status["state"] == "queued"
        assert status["executions"] == 0
        assert store.claim(worker_pid=2)[0] == job
        assert store.status(job)["worker_pid"] == 2
