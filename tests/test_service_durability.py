"""Durability and fleet tests: journal, crash recovery, leases, chaos.

The guarantees these pin down (the whole point of the job store):

* a service ``kill -9``-ed mid-job loses **nothing committed** — on
  restart the job resumes from the journal to a terminal state with
  zero lost completed rows and no point executed twice
  (journal-counted, via the subprocess test below);
* two workers pointed at one store drain one queue with every job
  claimed exactly once and every point done exactly once;
* a worker that stops heartbeating forfeits its lease — the job is
  reclaimed and resumed, exactly like pool breakage is retried;
* the chaos knobs (``crash_after_points``, ``lease_drop``) and
  :class:`ChaosStorage` make all of the above deterministic to drill.
"""

import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import sweep as sweep_mod
from repro.service import JobManager, JobState, JobStore

SRC = str(Path(__file__).resolve().parents[1] / "src")

SPEC = {"experiment": "fig8", "scale": "smoke",
        "thresholds": [None, 900.0]}


def _echo_runner(point, context):
    value = (point.threshold or 0.0) + point.seed
    return {"payload": {"value": value},
            "metrics": {"accuracy": value, "n_weights": 1,
                        "power_opt_mw": value},
            "skipped": None}


def _slow_runner(point, context):
    time.sleep(0.15)
    return _echo_runner(point, context)


def _soak_runner(point, context):
    time.sleep(0.01)
    return _echo_runner(point, context)


@pytest.fixture()
def echo_experiment(monkeypatch):
    monkeypatch.setitem(sweep_mod._POINT_RUNNERS, "fig8", _echo_runner)


@pytest.fixture()
def slow_experiment(monkeypatch):
    monkeypatch.setitem(sweep_mod._POINT_RUNNERS, "fig8", _slow_runner)


def _wait_done(mgr, job_id, timeout=60.0):
    assert mgr.wait(job_id, timeout=timeout), \
        f"job {job_id} never reached a terminal state"
    return mgr.status(job_id)


class TestJobStore:
    """Unit tests of the SQLite journal + lease table."""

    @pytest.fixture()
    def store(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        yield store
        store.close()

    def test_claim_is_exclusive_until_expiry(self, store):
        store.create_job("j1", 1.0, b"spec", {})
        claim = store.claim_next("w1", lease_s=60.0)
        assert claim.job_id == "j1" and not claim.reclaimed
        # The live lease blocks every other worker.
        assert store.claim_next("w2", lease_s=60.0) is None
        worker, deadline, renewals = store.lease_of("j1")
        assert worker == "w1" and renewals == 0
        assert store.renew_lease("j1", "w1", 60.0)
        assert store.lease_of("j1")[2] == 1

    def test_expired_lease_is_reclaimed(self, store):
        store.create_job("j1", 1.0, b"spec", {})
        store.claim_next("w1", lease_s=0.05)
        time.sleep(0.1)
        claim = store.claim_next("w2", lease_s=60.0)
        assert claim is not None and claim.job_id == "j1"
        assert claim.reclaimed  # stolen from a silent worker
        # ... and the previous owner's heartbeat now fails.
        assert not store.renew_lease("j1", "w1", 60.0)
        assert store.lease_of("j1")[0] == "w2"
        events = [e["event"] for e in store.journal_events("j1")]
        assert events == ["submitted", "claimed", "reclaimed"]

    def test_oldest_claimable_job_wins(self, store):
        store.create_job("late", 2.0, b"s", {})
        store.create_job("early", 1.0, b"s", {})
        assert store.claim_next("w", 60.0).job_id == "early"
        assert store.claim_next("w", 60.0).job_id == "late"

    def test_terminal_jobs_are_not_claimable(self, store):
        store.create_job("j1", 1.0, b"s", {})
        claim = store.claim_next("w1", 60.0)
        store.finish_job("j1", "done", 2.0, None, 0, "w1")
        assert store.claim_next("w2", 60.0) is None
        assert store.lease_of("j1") is None  # released atomically

    def test_record_row_is_idempotent_and_journal_counted(self, store):
        store.create_job("j1", 1.0, b"s", {})
        assert store.record_row("j1", 0, b"row", cached=False)
        assert not store.record_row("j1", 0, b"replay", cached=False)
        assert store.count_events("j1", "point_done") == 1
        blob, cached = store.load_rows("j1")[0]
        assert blob == b"row" and cached is False  # first write wins

    def test_row_supersedes_failure(self, store):
        store.create_job("j1", 1.0, b"s", {})
        store.record_failure("j1", 0, {"kind": "pool"})
        assert store.load_failures("j1") == {0: {"kind": "pool"}}
        store.record_row("j1", 0, b"row", cached=False)
        assert store.load_failures("j1") == {}  # retry succeeded

    def test_lifetime_counters_survive_reopen(self, tmp_path):
        path = tmp_path / "jobs.sqlite3"
        store = JobStore(path)
        store.create_job("j1", 1.0, b"s", {})
        store.record_row("j1", 0, b"r", cached=True)
        store.record_row("j1", 1, b"r", cached=False)
        store.record_failure("j1", 2, {"kind": "error"})
        store.finish_job("j1", "partial", 2.0, None, 3, "w")
        store.close()
        counters = JobStore(path).lifetime_counters()
        assert counters["jobs_submitted"] == 1
        assert counters["jobs_partial"] == 1
        assert counters["points_done"] == 2
        assert counters["points_cached"] == 1
        assert counters["points_failed"] == 1
        assert counters["point_retries"] == 3


class TestRestartRecovery:
    """In-process restart: terminal jobs served, queued jobs resumed."""

    def test_terminal_jobs_survive_restart(self, tmp_path,
                                           echo_experiment):
        cache = str(tmp_path / "cache")
        mgr = JobManager(cache_dir=cache, retry_backoff_s=0.01)
        job_id = mgr.submit_mapping(SPEC)["job_id"]
        _wait_done(mgr, job_id)
        mgr.shutdown()

        fresh = JobManager(cache_dir=cache, retry_backoff_s=0.01)
        try:
            assert fresh.recovered_jobs == 1
            assert fresh.resumed_jobs == []
            assert fresh.status(job_id)["state"] == JobState.DONE
            result = fresh.result(job_id)
            assert result["n_rows"] == 2
            # The lifetime counters were rebuilt from the store.
            assert fresh.stats()["counters"]["points_done"] == 2
        finally:
            fresh.shutdown()

    def test_queued_job_submitted_to_a_dead_manager_is_resumed(
            self, tmp_path, echo_experiment):
        cache = str(tmp_path / "cache")
        store_path = str(tmp_path / "cache" / "service-jobs.sqlite3")
        # Journal a submission directly (as if the manager died after
        # create_job but before running anything).
        import pickle

        from repro.experiments.sweep import expand, \
            sweep_spec_from_mapping
        spec = sweep_spec_from_mapping(dict(SPEC), source="test")
        points = expand(spec)
        store = JobStore(store_path)
        store.create_job("orphan01", time.time(),
                         pickle.dumps((spec, tuple(points))),
                         {"jobs": 1, "char_jobs": 1, "max_retries": 0})
        store.close()

        mgr = JobManager(cache_dir=cache, retry_backoff_s=0.01,
                         poll_interval_s=0.05)
        try:
            assert mgr.resumed_jobs == ["orphan01"]
            status = _wait_done(mgr, "orphan01")
            assert status["state"] == JobState.DONE
            assert status["points"]["done"] == len(points)
        finally:
            mgr.shutdown()


class TestCrashRecovery:
    """The acceptance drill: SIGKILL mid-job, restart, resume."""

    _CHILD = """
import sys
from repro.experiments import sweep as sweep_mod
from repro.service import JobManager

def _echo(point, context):
    value = (point.threshold or 0.0) + point.seed
    return {"payload": {"value": value},
            "metrics": {"accuracy": value}, "skipped": None}

sweep_mod._POINT_RUNNERS["fig8"] = _echo
mgr = JobManager(cache_dir=sys.argv[1], store_path=sys.argv[2],
                 retry_backoff_s=0.01, lease_s=1.0)
status = mgr.submit_mapping({
    "experiment": "fig8", "scale": "smoke",
    "thresholds": [None, 900.0, 1800.0],
    "crash_after_points": 1,
})
print(status["job_id"], flush=True)
mgr.wait(status["job_id"], timeout=60)
print("UNREACHABLE", flush=True)  # the crash knob SIGKILLs us first
"""

    def test_sigkill_mid_job_resumes_with_no_loss_and_no_rerun(
            self, tmp_path, echo_experiment):
        cache = str(tmp_path / "cache")
        store_path = str(tmp_path / "store" / "jobs.sqlite3")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", self._CHILD, cache, store_path],
            capture_output=True, text=True, timeout=120, env=env)
        # The crash knob killed the child the instant the first row
        # was journaled — the hard way, not an exception.
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert "UNREACHABLE" not in proc.stdout

        # The kill can land before the child prints the job id, so the
        # id comes from the journal, which holds exactly the one job.
        store = JobStore(store_path)
        (record,) = store.load_jobs()
        job_id = record["job_id"]
        assert proc.stdout.split()[:1] in ([], [job_id])
        rows_before_restart = store.load_rows(job_id)
        assert len(rows_before_restart) == 1  # the journaled row
        assert store.load_job(job_id)["state"] == "running"
        store.close()

        # Restart "the service" on the same store + cache.  The dead
        # child's lease (1 s) expires, the job is reclaimed and
        # resumes from the journal.
        mgr = JobManager(cache_dir=cache, store_path=store_path,
                         retry_backoff_s=0.01, lease_s=1.0,
                         poll_interval_s=0.1)
        try:
            assert job_id in mgr.resumed_jobs
            status = _wait_done(mgr, job_id, timeout=60.0)
            assert status["state"] == JobState.DONE
            assert status["points"]["done"] == 3

            # Zero lost completed rows: the pre-crash row is still the
            # journaled original, never recomputed or re-recorded.
            rows_after = mgr.store.load_rows(job_id)
            assert len(rows_after) == 3
            (index,) = rows_before_restart
            assert rows_after[index][0] == rows_before_restart[index][0]

            # No point executed twice, counted from the journal: one
            # point_done record per grid index, exactly once each.
            done_events = mgr.store.journal_events(job_id,
                                                   event="point_done")
            indices = [event["detail"]["index"]
                       for event in done_events]
            assert sorted(indices) == [0, 1, 2]

            # The recovery itself is journaled.
            events = [e["event"]
                      for e in mgr.store.journal_events(job_id)]
            assert "reclaimed" in events
            assert "resumed" in events
            assert events[-1] == "done"
        finally:
            mgr.shutdown()


class TestWorkerFleet:
    """Two managers on one store drain one queue, exactly once each."""

    def test_two_workers_claim_disjoint_jobs(self, tmp_path,
                                             slow_experiment):
        cache = str(tmp_path / "cache")
        store_path = str(tmp_path / "jobs.sqlite3")
        first = JobManager(cache_dir=cache, store_path=store_path,
                           worker_id="w1", retry_backoff_s=0.01,
                           poll_interval_s=0.05)
        second = JobManager(cache_dir=cache, store_path=store_path,
                            worker_id="w2", retry_backoff_s=0.01,
                            poll_interval_s=0.05)
        try:
            job_ids = [
                first.submit_mapping(dict(SPEC, seeds=[seed]))["job_id"]
                for seed in range(4)
            ]
            for job_id in job_ids:
                status = _wait_done(first, job_id, timeout=60.0)
                assert status["state"] == JobState.DONE

            store = first.store
            claimants = set()
            for job_id in job_ids:
                # Claimed exactly once — never stolen, never doubled.
                claims = store.journal_events(job_id, event="claimed")
                assert len(claims) == 1
                assert store.count_events(job_id, "reclaimed") == 0
                claimants.add(claims[0]["detail"]["worker"])
                # Every point done exactly once (journal-counted).
                done = store.journal_events(job_id, event="point_done")
                indices = [e["detail"]["index"] for e in done]
                assert sorted(indices) == sorted(set(indices))
                assert len(indices) == 2
            # With 4 slow jobs and a 50 ms poll, both workers drained.
            assert claimants == {"w1", "w2"}

            # Both managers see every job through the shared store.
            assert second.status(job_ids[0])["state"] == JobState.DONE
            assert second.result(job_ids[0])["n_rows"] == 2
        finally:
            first.shutdown()
            second.shutdown()


class TestLeaseDropChaos:
    """The lease_drop knob: abandon mid-job, reclaim, resume."""

    def test_dropped_lease_is_reclaimed_and_job_completes(
            self, tmp_path, echo_experiment):
        mgr = JobManager(cache_dir=str(tmp_path / "cache"),
                         retry_backoff_s=0.01, lease_s=30.0,
                         poll_interval_s=0.05)
        try:
            body = dict(SPEC, thresholds=[None, 900.0, 1800.0],
                        lease_drop=1)
            job_id = mgr.submit_mapping(body)["job_id"]
            status = _wait_done(mgr, job_id, timeout=60.0)
            assert status["state"] == JobState.DONE
            assert status["points"]["done"] == 3

            store = mgr.store
            # Dropped exactly once (the knob is journal-bounded) and
            # reclaimed; no point ran twice across the two tenures.
            assert store.count_events(job_id, "lease_dropped") == 1
            assert store.count_events(job_id, "reclaimed") == 1
            done = store.journal_events(job_id, event="point_done")
            indices = [e["detail"]["index"] for e in done]
            assert sorted(indices) == [0, 1, 2]
        finally:
            mgr.shutdown()


class TestChaosCacheEndToEnd:
    """A job over a chaos:// artifact cache still completes."""

    def test_job_completes_over_faulty_storage(self, tmp_path,
                                               echo_experiment):
        cache_url = (f"chaos://{tmp_path}/cache"
                     f"?read=0.3&write=0.3&corrupt=0.2&seed=11")
        mgr = JobManager(cache_dir=cache_url,
                         store_path=str(tmp_path / "jobs.sqlite3"),
                         retry_backoff_s=0.01)
        try:
            body = dict(SPEC, seeds=[0, 1, 2])
            job_id = mgr.submit_mapping(body)["job_id"]
            status = _wait_done(mgr, job_id, timeout=60.0)
            # Storage faults cost recomputation, never correctness.
            assert status["state"] == JobState.DONE
            assert status["points"]["done"] == 6
            assert mgr.result(job_id)["n_rows"] == 6
        finally:
            mgr.shutdown()


class TestSeededSoak:
    """Two managers share one journal over ``chaos://`` storage; one is
    shut down mid-run and replaced by a fresh one on the same journal."""

    def test_every_job_ends_once_and_both_managers_agree(
            self, tmp_path, monkeypatch):
        monkeypatch.setitem(sweep_mod._POINT_RUNNERS, "fig8",
                            _soak_runner)
        rng = random.Random(2511)
        cache = (f"chaos://{tmp_path}/cache"
                 f"?read=0.2&write=0.2&corrupt=0.1&seed=7")
        store_path = str(tmp_path / "jobs.sqlite3")

        def start(worker_id, seed):
            return JobManager(cache_dir=cache, store_path=store_path,
                              worker_id=worker_id, retry_backoff_s=0.01,
                              lease_s=2.0, poll_interval_s=0.05,
                              retry_jitter_seed=seed)

        managers = [start("w1", 1), start("w2", 2)]
        try:
            knobs = {}
            for n in range(30):
                body = dict(SPEC, thresholds=[None, 900.0, 1800.0],
                            seeds=[n % 10],
                            max_retries=rng.randint(0, 2))
                roll = rng.random()
                if roll < 0.2:
                    body["poison"] = "threshold=900"
                elif roll < 0.3:
                    body["poison"] = "fig8 point"
                elif roll < 0.6:
                    body["lease_drop"] = rng.randint(1, 2)
                job_id = managers[n % 2].submit_mapping(body)["job_id"]
                knobs[job_id] = body
                if n == 15:  # replace w1 while jobs are still queued
                    managers[0].shutdown()
                    managers[0] = start("w3", 3)

            for mgr in managers:
                for job_id in knobs:
                    assert mgr.wait(job_id, timeout=30), job_id
                    assert mgr.status(job_id)["state"] \
                        in JobState.TERMINAL

            store = managers[1].store
            for job_id, body in knobs.items():
                status = managers[1].status(job_id)
                done = [event["detail"]["index"] for event in
                        store.journal_events(job_id, event="point_done")]
                # One point_done record per journaled row, none twice.
                assert sorted(done) == sorted(store.load_rows(job_id))
                assert len(done) == status["points"]["done"]
                expected = {None: 3, "threshold=900": 2, "fig8 point": 0}
                assert status["points"]["done"] \
                    == expected[body.get("poison")]
                assert store.count_events(job_id, "lease_dropped") \
                    == body.get("lease_drop", 0)
            assert managers[0].list_jobs() == managers[1].list_jobs()
        finally:
            for mgr in managers:
                mgr.shutdown()
