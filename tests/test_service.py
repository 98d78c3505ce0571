"""Experiment-service tests: job lifecycle, failure paths, HTTP layer.

The :class:`~repro.service.jobs.JobManager` tests run everywhere (the
job layer is dependency-free); the HTTP tests skip cleanly when the
optional ``service`` extra (fastapi) or its test client transport
(httpx) is absent — mirroring the no-numba leg of the jit extra.

Pool-breakage tests rely on the ``fork`` start method: the forked
workers inherit the monkeypatched synthetic point runner and the
module-level sentinel path, so no real pipeline work runs.
"""

import gc
import json
import multiprocessing
import os
import pickle
import sys
import threading
import time
import tracemalloc
from collections.abc import Mapping
from dataclasses import replace

import pytest

from repro.experiments import sweep as sweep_mod
from repro.service import JobManager, JobState, records_to_csv
from repro.service import jobs as jobs_mod
from repro.service.jobs import JOB_ONLY_KEYS

_FORK = multiprocessing.get_start_method(allow_none=False) == "fork"

#: Sentinel path the crash-once runner uses (inherited by forked
#: pool workers); reset per-test via the fixtures below.
_CRASH_SENTINEL = [None]


def _echo_runner(point, context):
    """Synthetic per-point runner: no pipeline work, tiny payload."""
    value = (point.threshold or 0.0) + point.seed
    return {"payload": {"value": value},
            "metrics": {"accuracy": value, "n_weights": 1,
                        "power_opt_mw": value},
            "skipped": None}


def _slow_runner(point, context):
    time.sleep(0.25)
    return _echo_runner(point, context)


def _crash_once_runner(point, context):
    """Kills its worker the first time the 900-threshold point runs."""
    if point.threshold == 900.0:
        time.sleep(0.2)  # let the sibling point finish first
        if not os.path.exists(_CRASH_SENTINEL[0]):
            open(_CRASH_SENTINEL[0], "w").close()
            os._exit(1)
    return _echo_runner(point, context)


def _crash_always_runner(point, context):
    """Kills its worker every time the 900-threshold point runs."""
    if point.threshold == 900.0:
        time.sleep(0.2)
        os._exit(1)
    return _echo_runner(point, context)


SPEC = {"experiment": "fig8", "scale": "smoke",
        "thresholds": [None, 900.0]}


@pytest.fixture()
def echo_experiment(monkeypatch):
    monkeypatch.setitem(sweep_mod._POINT_RUNNERS, "fig8", _echo_runner)


@pytest.fixture()
def manager(tmp_path):
    mgr = JobManager(cache_dir=str(tmp_path / "cache"),
                     retry_backoff_s=0.01)
    yield mgr
    mgr.shutdown()


def _finish(mgr, status, timeout=60.0):
    assert mgr.wait(status["job_id"], timeout=timeout), \
        "job did not reach a terminal state in time"
    return mgr.status(status["job_id"])


class TestLifecycle:
    def test_submit_runs_to_done(self, manager, echo_experiment):
        submitted = manager.submit_mapping(SPEC)
        assert submitted["state"] in (JobState.QUEUED, JobState.RUNNING,
                                      JobState.DONE)
        status = _finish(manager, submitted)
        assert status["state"] == JobState.DONE
        assert status["points"] == {"total": 2, "done": 2, "cached": 0,
                                    "failed": 0, "remaining": 0,
                                    "precached": 0}
        assert status["duration_s"] >= 0
        result = manager.result(status["job_id"])
        assert result["n_rows"] == 2 and result["n_failed"] == 0
        assert {row["threshold"] for row in result["rows"]} \
            == {None, 900.0}

    def test_resubmission_is_served_from_cache(self, manager,
                                               echo_experiment):
        _finish(manager, manager.submit_mapping(SPEC))
        status = _finish(manager, manager.submit_mapping(SPEC))
        assert status["state"] == JobState.DONE
        assert status["points"]["precached"] == 2
        assert status["points"]["cached"] == 2

    def test_aggregated_result(self, manager, echo_experiment):
        spec = dict(SPEC, seeds=[0, 1])
        status = _finish(manager, manager.submit_mapping(spec))
        result = manager.result(status["job_id"], aggregated=True)
        assert result["n_rows"] == 4
        assert len(result["aggregated"]) == 2  # seed axis collapsed

    def test_list_jobs_and_stats(self, manager, echo_experiment):
        first = _finish(manager, manager.submit_mapping(SPEC))
        second = _finish(manager, manager.submit_mapping(SPEC))
        listed = manager.list_jobs()
        assert [job["job_id"] for job in listed] \
            == [second["job_id"], first["job_id"]]  # newest first
        stats = manager.stats()
        assert stats["counters"]["jobs_submitted"] == 2
        assert stats["counters"]["jobs_done"] == 2
        assert stats["counters"]["points_cached"] == 2
        assert stats["jobs"] == {JobState.DONE: 2}

    def test_unknown_job_id(self, manager):
        # One contract across the query surface: unknown ids return
        # None everywhere — wait() included, it must never raise.
        assert manager.status("nope") is None
        assert manager.result("nope") is None
        assert manager.wait("nope", timeout=0.1) is None

    def test_submit_after_shutdown_is_rejected(self, tmp_path,
                                               echo_experiment):
        mgr = JobManager(cache_dir=str(tmp_path))
        mgr.shutdown()
        mgr.shutdown()  # idempotent
        with pytest.raises(RuntimeError, match="shut down"):
            mgr.submit_mapping(SPEC)

    def test_startup_sweeps_stale_tmp_litter(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        litter = cache / ".0123456789abcdef-dead1"
        litter.write_bytes(b"half-written")
        old = time.time() - 7200
        os.utime(litter, (old, old))
        mgr = JobManager(cache_dir=str(cache))
        try:
            assert mgr.stale_tmp_swept == 1
            assert not litter.exists()
        finally:
            mgr.shutdown()


class TestValidation:
    def test_unknown_spec_key_is_rejected(self, manager):
        with pytest.raises(ValueError, match="unknown"):
            manager.submit_mapping(dict(SPEC, typo_key=1))

    def test_job_knobs_are_split_off_the_spec(self, manager,
                                              echo_experiment):
        body = dict(SPEC, jobs=1, char_jobs=1, max_retries=0,
                    timeout_s=60)
        assert set(JOB_ONLY_KEYS) >= {"jobs", "char_jobs",
                                      "max_retries", "timeout_s",
                                      "poison"}
        status = _finish(manager, manager.submit_mapping(body))
        assert status["state"] == JobState.DONE
        assert status["timeout_s"] == 60.0
        assert status["counters"]["max_retries"] == 0

    def test_bad_knobs_are_rejected(self, manager):
        with pytest.raises(ValueError, match="timeout_s"):
            manager.submit_mapping(dict(SPEC, timeout_s=0))
        with pytest.raises(ValueError, match="max_retries"):
            manager.submit_mapping(dict(SPEC, max_retries=-1))
        with pytest.raises(ValueError, match="poison"):
            manager.submit_mapping(dict(SPEC, poison=123))
        with pytest.raises(ValueError, match="object"):
            manager.submit_mapping(["not", "a", "mapping"])

    def test_missing_experiment_is_rejected(self, manager):
        with pytest.raises(ValueError, match="experiment"):
            manager.submit_mapping({"scale": "smoke"})


class TestFailurePaths:
    def test_poisoned_point_marks_job_partial(self, manager,
                                              echo_experiment):
        body = dict(SPEC, poison="threshold=900")
        status = _finish(manager, manager.submit_mapping(body))
        assert status["state"] == JobState.PARTIAL
        assert status["points"]["done"] == 1
        assert status["points"]["failed"] == 1
        (failure,) = status["failures"]
        assert "threshold=900" in failure["point"]
        assert failure["kind"] == "error"
        assert "poisoned point" in failure["error"]
        result = manager.result(status["job_id"])
        assert result["n_rows"] == 1 and result["n_failed"] == 1

    def test_poison_fires_before_the_cache(self, manager,
                                           echo_experiment):
        """A poisoned re-submission must still fail, even precached."""
        _finish(manager, manager.submit_mapping(SPEC))
        body = dict(SPEC, poison="threshold=900")
        status = _finish(manager, manager.submit_mapping(body))
        assert status["points"]["precached"] == 2
        assert status["state"] == JobState.PARTIAL

    def test_everything_poisoned_marks_job_failed(self, manager,
                                                  echo_experiment):
        body = dict(SPEC, poison="fig8 point")
        status = _finish(manager, manager.submit_mapping(body))
        assert status["state"] == JobState.FAILED
        assert status["points"]["done"] == 0
        assert manager.result(status["job_id"])["n_rows"] == 0
        health = manager.stats()
        assert health["counters"]["jobs_failed"] == 1

    def test_job_timeout_keeps_finished_rows(self, manager,
                                             monkeypatch):
        monkeypatch.setitem(sweep_mod._POINT_RUNNERS, "fig8",
                            _slow_runner)
        body = dict(SPEC, thresholds=[None, 900.0, 1800.0],
                    timeout_s=0.35)
        status = _finish(manager, manager.submit_mapping(body))
        assert status["state"] in (JobState.PARTIAL, JobState.FAILED)
        assert status["points"]["failed"] >= 1
        kinds = {failure["kind"] for failure in status["failures"]}
        assert kinds == {"timeout"}

    @pytest.mark.skipif(not _FORK, reason="needs fork start method")
    def test_pool_breakage_is_retried_and_recovers(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setitem(sweep_mod._POINT_RUNNERS, "fig8",
                            _crash_once_runner)
        _CRASH_SENTINEL[0] = str(tmp_path / "crashed-once")
        mgr = JobManager(cache_dir=str(tmp_path / "cache"),
                         retry_backoff_s=0.01)
        try:
            body = dict(SPEC, jobs=2, max_retries=2)
            status = _finish(mgr, mgr.submit_mapping(body))
            assert status["state"] == JobState.DONE
            assert status["points"]["done"] == 2
            assert status["counters"]["retries"] >= 1
            assert mgr.stats()["counters"]["point_retries"] >= 1
        finally:
            mgr.shutdown()

    @pytest.mark.skipif(not _FORK, reason="needs fork start method")
    def test_retries_exhausted_marks_job_partial(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setitem(sweep_mod._POINT_RUNNERS, "fig8",
                            _crash_always_runner)
        mgr = JobManager(cache_dir=str(tmp_path / "cache"),
                         retry_backoff_s=0.01)
        try:
            body = dict(SPEC, jobs=2, max_retries=1)
            status = _finish(mgr, mgr.submit_mapping(body))
            assert status["state"] == JobState.PARTIAL
            assert status["points"]["done"] == 1
            (failure,) = status["failures"]
            assert failure["kind"] == "pool"
            assert failure["attempts"] == 2  # first try + one retry
            assert status["counters"]["retries"] >= 1
        finally:
            mgr.shutdown()


class TestHealthWindow:
    """Degradation is scoped to recent failures, not the lifetime."""

    def test_failure_degrades_within_window(self, manager,
                                            echo_experiment):
        body = dict(SPEC, poison="fig8 point")
        _finish(manager, manager.submit_mapping(body))
        health = manager.health()
        assert health["status"] == "degraded"
        assert health["window"]["recent_failed"] == 1

    def test_degradation_expires_with_the_time_window(
            self, tmp_path, echo_experiment):
        mgr = JobManager(cache_dir=str(tmp_path / "cache"),
                         retry_backoff_s=0.01, health_window_s=0.3)
        try:
            body = dict(SPEC, poison="fig8 point")
            _finish(mgr, mgr.submit_mapping(body))
            assert mgr.health()["status"] == "degraded"
            deadline = time.monotonic() + 5.0
            while mgr.health()["status"] != "ok":
                assert time.monotonic() < deadline, \
                    "degradation never aged out of the time window"
                time.sleep(0.05)
            # ... but the lifetime counters keep it on the books.
            assert mgr.stats()["counters"]["jobs_failed"] == 1
        finally:
            mgr.shutdown()

    def test_healthy_jobs_push_failures_out_of_the_window(
            self, tmp_path, echo_experiment):
        mgr = JobManager(cache_dir=str(tmp_path / "cache"),
                         retry_backoff_s=0.01, health_window_jobs=2)
        try:
            _finish(mgr, mgr.submit_mapping(
                dict(SPEC, poison="fig8 point")))
            assert mgr.health()["status"] == "degraded"
            _finish(mgr, mgr.submit_mapping(SPEC))
            _finish(mgr, mgr.submit_mapping(dict(SPEC, seeds=[1])))
            assert mgr.health()["status"] == "ok"
            assert mgr.stats()["counters"]["jobs_failed"] == 1
        finally:
            mgr.shutdown()


class _SlowMetrics(Mapping):
    """A Mapping whose iteration stalls — stands in for a huge grid
    whose ``tidy()`` serialization is genuinely expensive."""

    def __init__(self, data, delay_s):
        self._data = dict(data)
        self._delay_s = delay_s

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self):
        time.sleep(self._delay_s)
        return iter(self._data)

    def __len__(self):
        return len(self._data)

    def keys(self):
        time.sleep(self._delay_s)
        return self._data.keys()


class TestResultSerialization:
    def test_result_serializes_outside_the_lock(self, manager,
                                                echo_experiment,
                                                monkeypatch):
        """A client downloading a big terminal grid must not block
        concurrent status polls: the row snapshot is taken under the
        manager lock, the tidy/aggregate serialization outside it.  A
        finished job's rows come from the journal, so the slow rows
        are served by the store's row loading."""
        status = _finish(manager, manager.submit_mapping(SPEC))
        load_rows = manager.store.load_rows

        def slow_rows(job_id):
            rows = {}
            for index, (blob, cached) in load_rows(job_id).items():
                row = pickle.loads(blob)
                slow = replace(row, metrics=_SlowMetrics(row.metrics,
                                                         delay_s=0.4))
                rows[index] = (pickle.dumps(slow), cached)
            return rows

        monkeypatch.setattr(manager.store, "load_rows", slow_rows)

        finished = threading.Event()
        payload = {}

        def _download():
            start = time.monotonic()
            payload["result"] = manager.result(status["job_id"])
            payload["seconds"] = time.monotonic() - start
            finished.set()

        thread = threading.Thread(target=_download)
        thread.start()
        time.sleep(0.05)  # let result() snapshot and start tidying
        t0 = time.monotonic()
        assert manager.status(status["job_id"]) is not None
        elapsed = time.monotonic() - t0
        assert finished.wait(10.0), "result() never finished"
        thread.join()
        assert payload["result"]["n_rows"] == 2
        assert payload["seconds"] >= 0.4  # the slow rows were tidied
        assert elapsed < 0.35, (
            f"status() blocked {elapsed:.2f}s behind result() "
            f"serialization — tidy must run outside the lock")


class TestFinishedJobsLeaveMemory:
    """The journal is the only job state: every query reads a job
    back from it, finished or not, and nothing stays behind per job."""

    def test_queries_answer_finished_jobs_from_the_journal(
            self, manager, echo_experiment):
        job_ids = [_finish(manager, manager.submit_mapping(
            dict(SPEC, seeds=[seed])))["job_id"] for seed in range(5)]
        assert [status["job_id"] for status in manager.list_jobs()] \
            == job_ids[::-1]
        for seed, job_id in enumerate(job_ids):
            assert manager.wait(job_id, timeout=0) is True
            job = manager.get(job_id)
            assert job.state == JobState.DONE
            assert [row.metrics["accuracy"] for row in job.rows] \
                == [seed, 900.0 + seed]
            assert job.started_at >= job.created_at
            status = manager.status(job_id)
            assert status["state"] == JobState.DONE
            assert status["points"]["done"] == 2
            result = manager.result(job_id)
            assert result["n_rows"] == 2
            assert [row["seed"] for row in result["rows"]] == [seed] * 2
        stats = manager.stats()
        assert stats["jobs"] == {JobState.DONE: 5}
        assert stats["counters"]["jobs_done"] == 5

    def test_summaries_unpickle_no_row(self, manager, echo_experiment,
                                       monkeypatch):
        """``list_jobs`` and ``status`` of done (fresh and served from
        cache), partial and failed jobs equal the full rebuild's status
        while loading rows is refused."""
        bodies = (SPEC, SPEC, dict(SPEC, poison="threshold=900"),
                  dict(SPEC, poison="fig8 point"))
        job_ids = [_finish(manager, manager.submit_mapping(body))["job_id"]
                   for body in bodies]
        want = {record["job_id"]: manager._rebuild_job(record).status()
                for record in manager.store.load_jobs()}
        assert [want[job_id]["state"] for job_id in job_ids] == [
            JobState.DONE, JobState.DONE, JobState.PARTIAL,
            JobState.FAILED]
        assert want[job_ids[1]]["points"]["cached"] == 2

        def refuse(self, job_id):
            raise AssertionError("a summary loaded rows")

        monkeypatch.setattr(type(manager.store), "load_rows", refuse)
        assert manager.list_jobs() == [want[job_id]
                                       for job_id in job_ids[::-1]]
        for job_id in job_ids:
            assert manager.status(job_id) == want[job_id]

    def test_memory_does_not_grow_with_finished_jobs(self, manager,
                                                     echo_experiment):
        """200 finished echo jobs leave under 150 KB of Python objects
        behind; holding each job and its rows took ~1 MB."""
        for _ in range(5):  # first-use caches and lazy imports
            _finish(manager, manager.submit_mapping(SPEC))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(200):
                _finish(manager, manager.submit_mapping(SPEC))
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert manager.stats()["jobs"] == {JobState.DONE: 205}
        assert grown < 150_000, f"{grown} bytes kept by 200 jobs"

    def test_observer_sees_a_sibling_job_through_the_journal(
            self, tmp_path, monkeypatch):
        """A manager that never claims follows a job a sibling runs
        through ``get``, ``wait``, ``status`` and ``result``."""
        monkeypatch.setitem(sweep_mod._POINT_RUNNERS, "fig8",
                            _slow_runner)
        cache = str(tmp_path / "cache")
        store_path = str(tmp_path / "jobs.sqlite3")
        runner = JobManager(cache_dir=cache, store_path=store_path,
                            worker_id="runner", poll_interval_s=0.05)
        # The observer's drain sleeps through the test: it never claims.
        observer = JobManager(cache_dir=cache, store_path=store_path,
                              worker_id="observer", poll_interval_s=600)
        try:
            job_id = runner.submit_mapping(SPEC)["job_id"]
            job = observer.get(job_id)
            assert job.state not in JobState.TERMINAL
            assert observer.result(job_id)["state"] \
                not in JobState.TERMINAL
            assert observer.wait(job_id, timeout=30)
            job = observer.get(job_id)
            assert job.state == JobState.DONE
            assert job.worker == "runner"
            assert [row.metrics["accuracy"] for row in job.rows] \
                == [0.0, 900.0]
            assert observer.status(job_id) == runner.status(job_id)
            assert observer.status(job_id)["points"]["done"] == 2
            assert observer.result(job_id)["n_rows"] == 2
            assert runner.store.count_events(job_id, "claimed") == 1
            assert runner.store.journal_events(
                job_id, event="claimed")[0]["detail"]["worker"] \
                == "runner"
        finally:
            runner.shutdown()
            observer.shutdown()


class TestWakeUps:
    """Neither the drain thread's wake-up nor a waiter's is lost: 20
    closed-loop jobs each finish well inside ``wait(timeout=10)``."""

    def _closed_loop(self, mgr):
        for seed in range(20):
            job_id = mgr.submit_mapping(dict(SPEC, seeds=[seed]))["job_id"]
            start = time.monotonic()
            assert mgr.wait(job_id, timeout=10), f"job {seed} lost"
            # A lost wake-up would end the wait at its timeout.
            assert time.monotonic() - start < 5.0, f"job {seed} stalled"
            assert mgr.status(job_id)["state"] == JobState.DONE

    def test_submission_wakes_the_drain_thread(self, tmp_path,
                                               echo_experiment):
        # With a 600 s poll only the submission's wake-up drains a job.
        mgr = JobManager(cache_dir=str(tmp_path / "cache"),
                         poll_interval_s=600)
        try:
            self._closed_loop(mgr)
        finally:
            mgr.shutdown()

    def test_finished_job_wakes_its_waiter(self, manager, echo_experiment,
                                           monkeypatch):
        # With a 30 s journal re-read only the drain thread's
        # notification ends a wait early.
        monkeypatch.setattr(jobs_mod, "_WAIT_REREAD_S", 30.0)
        self._closed_loop(manager)

    def test_concurrent_clients_lose_no_job_or_count(self, manager,
                                                     echo_experiment):
        """Four closed-loop clients (more threads than cores) with a
        short switch interval: every job finishes and every submission
        and completion is counted once."""
        errors = []

        def client(first_seed):
            try:
                for seed in range(first_seed, first_seed + 5):
                    job_id = manager.submit_mapping(
                        dict(SPEC, seeds=[seed]))["job_id"]
                    assert manager.wait(job_id, timeout=10), job_id
            except Exception as error:  # reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(seed,))
                       for seed in range(0, 20, 5)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        counters = manager.stats()["counters"]
        assert counters["jobs_submitted"] == counters["jobs_done"] == 20
        assert counters["points_done"] == 40


class TestCsv:
    def test_union_of_columns(self):
        text = records_to_csv([{"a": 1, "b": 2}, {"a": 3, "c": 4}])
        lines = text.strip().splitlines()
        assert lines[0] == "a,b,c"
        assert lines[1] == "1,2,"
        assert lines[2] == "3,,4"

    def test_empty_records(self):
        assert records_to_csv([]).strip() == ""


class TestWithoutFastapi:
    def test_import_repro_service_needs_no_fastapi(self):
        import repro.service  # noqa: F401 - the import IS the test

    def test_create_app_raises_with_install_hint(self):
        from repro.service import create_app, fastapi_available
        if fastapi_available():
            pytest.skip("fastapi installed; the hint path is moot")
        with pytest.raises(RuntimeError, match=r"\[service\]"):
            create_app()

    def test_serve_cli_errors_with_install_hint(self, capsys):
        from repro.service import fastapi_available
        from repro.service.cli import serve_main
        if fastapi_available():
            pytest.skip("fastapi installed; the hint path is moot")
        with pytest.raises(SystemExit):
            serve_main(["--port", "0"])
        assert "pip install" in capsys.readouterr().err


class TestHttpLayer:
    """End-to-end over ASGI; skips cleanly without the service extra."""

    @pytest.fixture()
    def client(self, tmp_path, echo_experiment):
        pytest.importorskip("fastapi")
        try:
            from fastapi.testclient import TestClient
        except ImportError:  # TestClient needs httpx
            pytest.skip("fastapi TestClient transport (httpx) missing")
        from repro.service.app import create_app

        app = create_app(cache_dir=str(tmp_path / "cache"),
                         retry_backoff_s=0.01)
        with TestClient(app) as client:
            yield client

    def _poll(self, client, job_id, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status = client.get(f"/sweeps/{job_id}").json()
            if status["state"] in JobState.TERMINAL:
                return status
            time.sleep(0.05)
        raise AssertionError("job never reached a terminal state")

    def test_healthz(self, client):
        payload = client.get("/healthz").json()
        assert payload["status"] == "ok"
        assert "counters" in payload

    def test_submit_poll_result_roundtrip(self, client):
        response = client.post("/sweeps", json=SPEC)
        assert response.status_code == 202
        submitted = response.json()
        assert submitted["status_url"].endswith(submitted["job_id"])
        status = self._poll(client, submitted["job_id"])
        assert status["state"] == "done"
        result = client.get(f"/sweeps/{submitted['job_id']}/result")
        assert result.status_code == 200
        assert result.json()["n_rows"] == 2

    def test_resubmission_precached_over_http(self, client):
        first = client.post("/sweeps", json=SPEC).json()
        self._poll(client, first["job_id"])
        second = client.post("/sweeps", json=SPEC).json()
        status = self._poll(client, second["job_id"])
        assert status["points"]["precached"] == 2
        assert status["points"]["cached"] == 2

    def test_poisoned_job_is_partial_over_http(self, client):
        body = dict(SPEC, poison="threshold=900")
        submitted = client.post("/sweeps", json=body).json()
        status = self._poll(client, submitted["job_id"])
        assert status["state"] == "partial"
        result = client.get(
            f"/sweeps/{submitted['job_id']}/result").json()
        assert result["n_rows"] == 1
        assert result["failures"]

    def test_toml_submission(self, client):
        pytest.importorskip("tomllib")
        body = ('experiment = "fig8"\nscale = "smoke"\n'
                'thresholds = ["none", 900.0]\n')
        response = client.post(
            "/sweeps", content=body,
            headers={"content-type": "application/toml"})
        assert response.status_code == 202
        status = self._poll(client, response.json()["job_id"])
        assert status["points"]["total"] == 2

    def test_csv_result(self, client):
        submitted = client.post("/sweeps", json=SPEC).json()
        self._poll(client, submitted["job_id"])
        response = client.get(
            f"/sweeps/{submitted['job_id']}/result?format=csv")
        assert response.status_code == 200
        assert response.headers["content-type"].startswith("text/csv")
        assert "threshold" in response.text.splitlines()[0]

    def test_error_statuses(self, client):
        assert client.get("/sweeps/nope").status_code == 404
        assert client.get("/sweeps/nope/result").status_code == 404
        bad = client.post("/sweeps", json=dict(SPEC, typo=1))
        assert bad.status_code == 422
        garbage = client.post(
            "/sweeps", content="{not json",
            headers={"content-type": "application/json"})
        assert garbage.status_code == 422

    def test_result_conflict_while_running(self, client, monkeypatch):
        monkeypatch.setitem(sweep_mod._POINT_RUNNERS, "fig8",
                            _slow_runner)
        submitted = client.post("/sweeps", json=SPEC).json()
        response = client.get(
            f"/sweeps/{submitted['job_id']}/result")
        if response.status_code == 200:  # raced to completion
            pytest.skip("job finished before the conflict probe")
        assert response.status_code == 409
        self._poll(client, submitted["job_id"])

    def test_list_endpoint(self, client):
        submitted = client.post("/sweeps", json=SPEC).json()
        self._poll(client, submitted["job_id"])
        listed = client.get("/sweeps").json()
        assert listed["n_jobs"] >= 1
        assert any(job["job_id"] == submitted["job_id"]
                   for job in listed["jobs"])
