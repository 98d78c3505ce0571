"""Durable job queue and lease-draining worker behind the service.

This module is the fastapi-free core of ``repro.service``: a
:class:`JobManager` accepts sweep specs (the same mappings
:func:`~repro.experiments.sweep.load_sweep_file` parses), journals
them into a :class:`~repro.service.store.JobStore` (SQLite, living
beside the artifact cache), and a background drain thread claims jobs
through the store's lease table and runs each grid over the
:func:`~repro.experiments.parallel.parallel_map_outcomes` process pool
— sharing one warm artifact cache across every job the service ever
runs, so a re-submitted sweep is served instantly.

Durability and fleet semantics are first-class:

* every submission, per-point completion/failure and state transition
  is journaled *before* it is acknowledged, so a service killed with
  ``kill -9`` loses nothing committed: on restart, terminal jobs are
  served as before and interrupted jobs are re-queued and resume from
  the journal (recorded rows replayed, remaining points recomputed
  through the warm cache);
* the journal is the only job state: ``get``, ``status``,
  ``list_jobs``, ``result`` and ``wait`` read every job, finished or
  not, back from it, so a sibling worker's progress shows as soon as
  it commits (``wait`` re-reads the journal every 0.1 s, and a job this
  manager finishes wakes its local waiters at once), and a
  long-running service does not grow with the jobs it has served;
* jobs are claimed through a lease (worker id + heartbeat deadline):
  any number of ``repro serve --worker`` processes pointed at the same
  store drain one queue without double-running a point, and a worker
  that dies simply stops heartbeating — its expired lease makes the
  job reclaimable, exactly like pool breakage makes a point retriable;
* a grid point whose worker is killed outright (pool breakage) is
  retried with exponential backoff *plus seeded full jitter* (so
  multi-worker retry waves do not thunder in lockstep), up to
  ``max_retries`` times;
* a point that keeps failing marks the job ``partial`` — the surviving
  rows are kept and served, never discarded with the grid;
* ``GET /healthz`` degradation is scoped to a sliding window of recent
  finished jobs, not the service's whole lifetime.

Chaos knobs (all journaled, all off by default) make the recovery
paths deterministic to exercise: ``poison`` fails matching points
before the cache, ``crash_after_points`` SIGKILLs the serving process
the moment the N-th row of the job is journaled, and ``lease_drop``
deliberately abandons the lease mid-job so another worker (or the same
one, a heartbeat later) must reclaim and resume it.
"""

from __future__ import annotations

import csv
import io
import os
import pickle
import random
import signal
import socket
import tempfile
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Mapping, Optional, \
    Sequence, Tuple

from repro.core.artifacts import ArtifactStore
from repro.experiments.parallel import (
    TaskFailure,
    parallel_map_outcomes,
    retry_backoff_delay,
)
from repro.experiments.sweep import (
    PointTask,
    SweepPoint,
    SweepResult,
    SweepRow,
    SweepSpec,
    _run_point,
    _scheduled_order,
    expand,
    point_cache_key,
    point_config,
    sweep_spec_from_mapping,
)
from repro.service.store import JobStore

__all__ = ["JobManager", "ExperimentJob", "JobState",
           "records_to_csv", "JOB_ONLY_KEYS"]


class JobState:
    """String states of a job's lifecycle (JSON-friendly)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"          # every grid point produced a row
    PARTIAL = "partial"    # some points failed; surviving rows kept
    FAILED = "failed"      # no point produced a row

    TERMINAL = (DONE, PARTIAL, FAILED)


#: Submission keys consumed by the job layer (everything else must be
#: a sweep-spec key and is validated by ``sweep_spec_from_mapping``).
#: ``poison``, ``crash_after_points`` and ``lease_drop`` are the chaos
#: knobs — deterministic fault injection for tests and smoke drills.
JOB_ONLY_KEYS = ("jobs", "char_jobs", "timeout_s", "max_retries",
                 "poison", "crash_after_points", "lease_drop")


class _LeaseAbandoned(Exception):
    """The drain thread must stop running this job *without*
    finalizing it: the lease was lost to (or deliberately dropped for)
    another claim, and whoever claims next resumes from the journal."""


@dataclass(frozen=True)
class _ServiceTask:
    """One grid point plus the job's chaos knob, picklable."""

    task: PointTask
    poison: Optional[str] = None

    def describe(self) -> str:
        return self.task.describe()


def _run_service_point(service_task: _ServiceTask) -> SweepRow:
    """Worker entry point: poison check, then the normal sweep point.

    The poison check fires *before* the cache lookup so a poisoned
    re-submission still exercises the failure path — that is the whole
    point of the knob.
    """
    description = service_task.task.describe()
    if service_task.poison and service_task.poison in description:
        raise RuntimeError(
            f"poisoned point (chaos knob matched "
            f"{service_task.poison!r}): {description}")
    return _run_point(service_task.task)


@dataclass
class ExperimentJob:
    """One submitted sweep and everything known about its progress."""

    job_id: str
    spec: SweepSpec
    points: List[SweepPoint]
    jobs: int
    char_jobs: int
    max_retries: int
    timeout_s: Optional[float]
    poison: Optional[str] = None
    #: Chaos: SIGKILL the serving process the moment the job's N-th
    #: row is journaled (crash-recovery drills; survives restarts but
    #: fires only when the journaled total *equals* N, so the resumed
    #: run sails past it).
    crash_after_points: Optional[int] = None
    #: Chaos: deliberately abandon the lease (journaled, at most this
    #: many times) once the job has at least one row — the job must be
    #: reclaimed and resumed from the journal.
    lease_drop: int = 0

    state: str = JobState.QUEUED
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Worker id currently (or last) responsible for the job.
    worker: Optional[str] = None
    #: Expansion-order slots; ``None`` until the point finishes.
    rows: List[Optional[SweepRow]] = field(default_factory=list)
    #: Grid index -> structured failure record (terminal failures only).
    failures: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    cached: int = 0
    retries: int = 0
    precached: int = 0
    #: Job-level crash (not a per-point failure), e.g. a config bug.
    error: Optional[str] = None

    @property
    def n_done(self) -> int:
        return sum(1 for row in self.rows if row is not None)

    def knobs(self) -> Dict[str, Any]:
        """The job-level knobs, JSON-able (journaled with the job)."""
        return {
            "jobs": self.jobs,
            "char_jobs": self.char_jobs,
            "max_retries": self.max_retries,
            "timeout_s": self.timeout_s,
            "poison": self.poison,
            "crash_after_points": self.crash_after_points,
            "lease_drop": self.lease_drop,
        }

    def status(self, done: Optional[int] = None) -> Dict[str, Any]:
        """JSON-able snapshot (the ``GET /sweeps/{id}`` payload).

        ``done`` stands in for the count of finished rows when the job
        was summarized from the journal without them.
        """
        total = len(self.points)
        done = self.n_done if done is None else done
        failed = len(self.failures)
        snapshot: Dict[str, Any] = {
            "job_id": self.job_id,
            "state": self.state,
            "experiment": self.spec.experiment,
            "scale": self.spec.scale,
            "grid": self.spec.describe(),
            "points": {
                "total": total,
                "done": done,
                "cached": self.cached,
                "failed": failed,
                "remaining": total - done - failed,
                "precached": self.precached,
            },
            "counters": {
                "retries": self.retries,
                "max_retries": self.max_retries,
            },
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.worker is not None:
            snapshot["worker"] = self.worker
        if self.started_at is not None:
            end = self.finished_at if self.finished_at is not None \
                else time.time()
            snapshot["duration_s"] = round(end - self.started_at, 3)
        if self.timeout_s is not None:
            snapshot["timeout_s"] = self.timeout_s
        if self.failures:
            snapshot["failures"] = [self.failures[index]
                                    for index in sorted(self.failures)]
        if self.error is not None:
            snapshot["error"] = self.error
        return snapshot


def records_to_csv(records: Sequence[Mapping[str, Any]]) -> str:
    """Tidy/aggregated records as CSV text (union of all columns)."""
    columns: List[str] = []
    for record in records:
        for name in record:
            if name not in columns:
                columns.append(name)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, restval="")
    writer.writeheader()
    writer.writerows(records)
    return buffer.getvalue()


def _default_worker_id() -> str:
    return (f"{socket.gethostname()}-{os.getpid()}-"
            f"{uuid.uuid4().hex[:6]}")


#: How often :meth:`JobManager.wait` re-reads the journal.  That is how
#: a waiter sees a job a sibling worker runs; a job this manager
#: finishes wakes its waiters as soon as its terminal state commits.
_WAIT_REREAD_S = 0.1


class JobManager:
    """Durable queue + lease-draining worker for sweep jobs.

    Args:
        cache_dir: Artifact-store location every job (and each job's
            pool workers) shares — a directory path or a registered
            ``scheme://...`` URL (see
            :func:`repro.core.artifacts.register_storage_scheme`,
            including ``chaos://dir?read=0.05`` fault injection).
            ``None`` creates a service-lifetime temporary directory,
            so even then jobs share one warm cache.
        jobs: Default process count per job's grid (``1`` = inline in
            the drain thread; ``0`` = all cores).
        char_jobs: Default per-point characterization sharding.
        max_retries: Default bounded retries for points lost to pool
            breakage (a killed worker), with jittered backoff.
        retry_backoff_s: Backoff scale; the actual delay of wave ``n``
            is drawn uniformly from ``[0, retry_backoff_s * 2**(n-1)]``
            (full jitter, 30 s cap) so retry waves from a worker fleet
            decorrelate instead of thundering in lockstep.
        timeout_s: Default per-job wall-clock budget (``None`` = no
            limit); unfinished points fail, finished rows survive.
        store_path: The SQLite job journal.  Defaults to
            ``service-jobs.sqlite3`` beside the artifact cache (or in
            a manager-lifetime temp dir when the cache has no local
            root).  Point several managers — API nodes and
            ``repro serve --worker`` drainers — at the same path and
            they share one durable queue.
        worker_id: This manager's lease identity (defaults to
            ``host-pid-rand``; must be unique per process).
        lease_s: Lease heartbeat deadline.  A claimed job's lease is
            renewed every ``lease_s / 4``; a worker silent for longer
            than ``lease_s`` forfeits the job to the next claimant.
        poll_interval_s: How often the drain thread checks the store
            for claimable jobs submitted elsewhere (local submissions
            wake it immediately).
        retry_jitter_seed: Seed for the backoff jitter RNG (chaos and
            tests pin it; ``None`` = nondeterministic).
        health_window_jobs / health_window_s: The sliding window
            :meth:`health` scopes degradation to — only ``failed``
            jobs among the last ``health_window_jobs`` finished within
            ``health_window_s`` seconds degrade the service; lifetime
            counts stay in :meth:`stats`.
    """

    def __init__(self, cache_dir: Optional[str] = None, jobs: int = 1,
                 char_jobs: int = 1, max_retries: int = 2,
                 retry_backoff_s: float = 0.5,
                 timeout_s: Optional[float] = None,
                 store_path: Optional[str] = None,
                 worker_id: Optional[str] = None,
                 lease_s: float = 30.0,
                 poll_interval_s: float = 1.0,
                 retry_jitter_seed: Optional[int] = None,
                 health_window_jobs: int = 20,
                 health_window_s: float = 600.0) -> None:
        self._tempdir: Optional[tempfile.TemporaryDirectory] = None
        if cache_dir is None:
            self._tempdir = tempfile.TemporaryDirectory(
                prefix="repro-service-cache-")
            cache_dir = self._tempdir.name
        self.cache_dir = str(cache_dir)
        self.default_jobs = jobs
        self.default_char_jobs = char_jobs
        self.default_max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.default_timeout_s = timeout_s
        self.worker_id = (worker_id if worker_id is not None
                          else _default_worker_id())
        self.lease_s = float(lease_s)
        self.poll_interval_s = float(poll_interval_s)
        self.health_window_jobs = int(health_window_jobs)
        self.health_window_s = float(health_window_s)
        self.started_at = time.time()
        self._retry_rng = random.Random(retry_jitter_seed)

        # Reclaim tmp litter a previously killed service left behind.
        probe = ArtifactStore(self.cache_dir)
        self.stale_tmp_swept = probe.sweep_stale_tmp()

        # The durable journal lives beside the artifact cache so the
        # two move (and get backed up / mounted) together; caches
        # without a local root (object stores) fall back to a
        # manager-lifetime temp dir unless a path is given explicitly.
        if store_path is None:
            root = probe.cache_dir
            if root is not None:
                store_path = str(Path(root) / "service-jobs.sqlite3")
            else:
                if self._tempdir is None:
                    self._tempdir = tempfile.TemporaryDirectory(
                        prefix="repro-service-store-")
                store_path = str(Path(self._tempdir.name)
                                 / "service-jobs.sqlite3")
        self.store = JobStore(store_path)

        #: Guards the counters and the health window, and carries both
        #: wake-ups: ``_wake`` tells the drain thread a job may be
        #: claimable, ``_last_finished`` tells waiters which job this
        #: manager just journaled as terminal.
        self._cond = threading.Condition()
        self._last_finished: Optional[str] = None
        #: Job id this manager's drain thread is currently running.
        self._active: Optional[str] = None
        #: Leases the heartbeat failed to renew (stolen after expiry).
        self._lost_leases: set = set()
        self._recent_outcomes: Deque[Tuple[float, str]] = deque(
            maxlen=max(1, self.health_window_jobs))
        self._stats = self.store.lifetime_counters()
        self._closed = False
        self._stop = threading.Event()

        # Crash recovery: terminal jobs are served from the journal
        # exactly as before the restart; interrupted ones stay
        # claimable (their dead owner's lease expires) and resume from
        # the journal.
        records = self.store.load_jobs()
        self.resumed_jobs: List[str] = [
            record["job_id"] for record in records
            if record["state"] not in JobState.TERMINAL]
        self.recovered_jobs = len(records)
        self._wake = bool(self.resumed_jobs)  # drain them promptly

        self._worker = threading.Thread(target=self._worker_loop,
                                        name="repro-service-worker",
                                        daemon=True)
        self._worker.start()
        self._heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            name="repro-service-heartbeat", daemon=True)
        self._heartbeat.start()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit_mapping(self, data: Mapping[str, Any]) -> Dict[str, Any]:
        """Submit a job from a request body / spec-file mapping.

        Job-level knobs (:data:`JOB_ONLY_KEYS`) are split off; the
        rest must be a valid sweep spec — unknown keys raise
        ``ValueError`` exactly like :func:`load_sweep_file`.
        """
        if not isinstance(data, Mapping):
            raise ValueError("request body must be a JSON/TOML object")
        knobs = {key: data[key] for key in JOB_ONLY_KEYS if key in data}
        spec_keys = {key: value for key, value in data.items()
                     if key not in knobs}
        spec = sweep_spec_from_mapping(spec_keys,
                                       source="submitted sweep spec")
        if knobs.get("timeout_s") is not None:
            knobs["timeout_s"] = float(knobs["timeout_s"])
            if knobs["timeout_s"] <= 0:
                raise ValueError("timeout_s must be positive")
        for key in ("jobs", "char_jobs", "max_retries", "lease_drop"):
            if key in knobs:
                knobs[key] = int(knobs[key])
        if knobs.get("max_retries", 0) < 0:
            raise ValueError("max_retries must be >= 0")
        if knobs.get("lease_drop", 0) < 0:
            raise ValueError("lease_drop must be >= 0")
        if knobs.get("crash_after_points") is not None:
            knobs["crash_after_points"] = int(
                knobs["crash_after_points"])
            if knobs["crash_after_points"] < 1:
                raise ValueError("crash_after_points must be >= 1")
        poison = knobs.get("poison")
        if poison is not None and not isinstance(poison, str):
            raise ValueError("poison must be a string (substring of a "
                             "point description)")
        return self.submit_spec(spec, **knobs)

    def submit_spec(self, spec: SweepSpec,
                    jobs: Optional[int] = None,
                    char_jobs: Optional[int] = None,
                    max_retries: Optional[int] = None,
                    timeout_s: Optional[float] = None,
                    poison: Optional[str] = None,
                    crash_after_points: Optional[int] = None,
                    lease_drop: int = 0) -> Dict[str, Any]:
        """Journal + queue a normalized sweep; returns the status."""
        if self._closed:
            raise RuntimeError("job manager is shut down")
        points = expand(spec)
        job = ExperimentJob(
            job_id=uuid.uuid4().hex[:12],
            spec=spec,
            points=points,
            jobs=self.default_jobs if jobs is None else jobs,
            char_jobs=(self.default_char_jobs if char_jobs is None
                       else char_jobs),
            max_retries=(self.default_max_retries if max_retries is None
                         else max_retries),
            timeout_s=(self.default_timeout_s if timeout_s is None
                       else timeout_s),
            poison=poison,
            crash_after_points=crash_after_points,
            lease_drop=lease_drop,
        )
        # Journal the submission *before* acknowledging it: a crash
        # between here and the wake-up loses nothing — recovery (or any
        # fleet worker polling the store) picks the job up.
        self.store.create_job(
            job.job_id, job.created_at,
            pickle.dumps((spec, tuple(points)),
                         protocol=pickle.HIGHEST_PROTOCOL),
            job.knobs())
        with self._cond:
            self._stats["jobs_submitted"] += 1
            self._wake = True
            self._cond.notify_all()
        return job.status()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[ExperimentJob]:
        """A snapshot of job ``job_id`` rebuilt from the journal, rows
        included, finished or not; ``None`` if there is no such job."""
        record = self.store.load_job(job_id)
        return None if record is None else self._rebuild_job(record)

    def _journal_status(self, record: Dict[str, Any],
                        counts: Dict[str, Tuple[int, int]]
                        ) -> Dict[str, Any]:
        """A job's status from its record, its row counts and its
        failures; no row is unpickled."""
        job = self._rebuild_job(record, with_rows=False)
        done, job.cached = counts.get(job.job_id, (0, 0))
        return job.status(done=done)

    def status(self, job_id: str) -> Optional[Dict[str, Any]]:
        """A job's status, summarized from the journal without loading
        its rows."""
        record = self.store.load_job(job_id)
        if record is None:
            return None
        return self._journal_status(record, self.store.row_counts(job_id))

    def list_jobs(self) -> List[Dict[str, Any]]:
        """Newest-first summaries of every journaled job, with one
        row-count query for the whole listing."""
        records = self.store.load_jobs()
        counts = self.store.row_counts()
        return [self._journal_status(record, counts)
                for record in reversed(records)]

    def result(self, job_id: str,
               aggregated: bool = False) -> Optional[Dict[str, Any]]:
        """Tidy rows of a *terminal* job (plus seed aggregates).

        ``None`` for an unknown id; a job still queued/running returns
        a dict whose only keys are ``state`` and ``job_id`` — the HTTP
        layer maps that to 409.

        The rows are read from the journal under the store's lock only;
        the (potentially large) tidy/aggregate serialization holds no
        lock, so a client downloading a big terminal grid never blocks
        concurrent submits and status polls.
        """
        record = self.store.load_job(job_id)
        if record is None:
            return None
        if record["state"] not in JobState.TERMINAL:
            return {"job_id": job_id, "state": record["state"]}
        job = self._rebuild_job(record)
        rows = [row for row in job.rows if row is not None]
        failures = [job.failures[index] for index in sorted(job.failures)]
        result = SweepResult(sweep=job.spec, rows=rows)
        payload: Dict[str, Any] = {
            "job_id": job.job_id,
            "state": job.state,
            "n_rows": len(rows),
            "n_failed": len(failures),
            "rows": result.tidy(),
        }
        if aggregated:
            payload["aggregated"] = result.tidy_aggregated()
        if failures:
            payload["failures"] = failures
        return payload

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> Optional[bool]:
        """Block until ``job_id`` reaches a terminal state.

        Returns ``True`` once terminal, ``False`` on timeout and —
        matching :meth:`status` / :meth:`result` — ``None`` for an
        unknown id (it never raises).  The journal is re-read every
        ``_WAIT_REREAD_S`` seconds, so a job a sibling worker runs is
        observed too; a job this manager finishes returns at once.
        """
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while True:
            record = self.store.load_job(job_id)
            if record is None:
                return None
            if record["state"] in JobState.TERMINAL:
                return True
            with self._cond:
                step = _WAIT_REREAD_S
                if deadline is not None:
                    step = min(step, deadline - time.monotonic())
                    if step <= 0:
                        return False
                if self._cond.wait_for(
                        lambda: self._last_finished == job_id, step):
                    return True

    def stats(self) -> Dict[str, Any]:
        """Service-level counters for ``GET /healthz``.

        ``jobs`` counts every journaled job by state.
        """
        by_state = self.store.count_states()
        with self._cond:
            return {
                "uptime_s": round(time.time() - self.started_at, 3),
                "cache_dir": self.cache_dir,
                "stale_tmp_swept": self.stale_tmp_swept,
                "jobs": by_state,
                "counters": dict(self._stats),
                "store": {
                    "path": str(self.store.path),
                    "worker_id": self.worker_id,
                    "lease_s": self.lease_s,
                    "recovered_jobs": self.recovered_jobs,
                    "resumed_jobs": len(self.resumed_jobs),
                },
            }

    def health(self) -> Dict[str, Any]:
        """Liveness verdict scoped to a sliding failure window.

        Only ``failed`` jobs among the last ``health_window_jobs``
        finished jobs *and* within ``health_window_s`` seconds count —
        one bad spec submitted last week must not mark the service
        degraded forever.  Lifetime totals stay in :meth:`stats`.
        """
        now = time.time()
        with self._cond:
            recent = [state for ts, state in self._recent_outcomes
                      if now - ts <= self.health_window_s]
        recent_failed = sum(1 for state in recent
                            if state == JobState.FAILED)
        return {
            "status": "degraded" if recent_failed else "ok",
            "window": {
                "jobs": self.health_window_jobs,
                "seconds": self.health_window_s,
                "recent_jobs": len(recent),
                "recent_failed": recent_failed,
            },
        }

    # ------------------------------------------------------------------
    # recovery plumbing
    # ------------------------------------------------------------------
    def _rebuild_job(self, record: Dict[str, Any],
                     with_rows: bool = True) -> ExperimentJob:
        """An :class:`ExperimentJob` replayed from its journal
        (``with_rows=False`` leaves every row slot empty)."""
        spec, points = pickle.loads(record["spec"])
        knobs = record["knobs"]
        job = ExperimentJob(
            job_id=record["job_id"],
            spec=spec,
            points=list(points),
            jobs=knobs.get("jobs", self.default_jobs),
            char_jobs=knobs.get("char_jobs", self.default_char_jobs),
            max_retries=knobs.get("max_retries",
                                  self.default_max_retries),
            timeout_s=knobs.get("timeout_s"),
            poison=knobs.get("poison"),
            crash_after_points=knobs.get("crash_after_points"),
            lease_drop=knobs.get("lease_drop", 0) or 0,
        )
        job.state = record["state"]
        job.created_at = record["created_at"]
        job.started_at = record["started_at"]
        job.finished_at = record["finished_at"]
        job.worker = record["worker"]
        job.error = record["error"]
        job.precached = record["precached"]
        job.retries = record["retries"]
        job.rows = [None] * len(job.points)
        if with_rows:
            cached = 0
            for index, (blob, was_cached) in \
                    self.store.load_rows(job.job_id).items():
                job.rows[index] = pickle.loads(blob)
                cached += 1 if was_cached else 0
            job.cached = cached
        job.failures = self.store.load_failures(job.job_id)
        return job

    # ------------------------------------------------------------------
    # the drain thread
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                self._cond.wait_for(lambda: self._wake,
                                    self.poll_interval_s)
                self._wake = False
            if self._closed:
                return
            self._drain()

    def _drain(self) -> None:
        """Claim and run store jobs until nothing is claimable."""
        while not self._closed:
            try:
                claim = self.store.claim_next(self.worker_id,
                                              self.lease_s)
            except Exception:  # pragma: no cover - store closed/racy
                return
            if claim is None:
                return
            self._lost_leases.discard(claim.job_id)
            record = self.store.load_job(claim.job_id)
            if record is None or record["state"] in JobState.TERMINAL:
                # A sibling finished it between our SELECT and now.
                self.store.release_lease(claim.job_id, self.worker_id)
                continue
            # The claimed job is rebuilt from the journal and lives
            # only in this thread until its terminal state is journaled.
            job = self._rebuild_job(record)
            self._active = claim.job_id
            try:
                self._run_job(job, resumed=claim.reclaimed)
            except _LeaseAbandoned:
                # Not ours anymore (stolen or deliberately dropped);
                # whoever claims next resumes from the journal.
                pass
            except Exception as error:
                # A job-level crash must never kill the drain thread;
                # the job reports it and the queue moves on.
                job.error = f"{type(error).__name__}: {error}"
                self._finalize(job)
            finally:
                self._active = None

    def _heartbeat_loop(self) -> None:
        interval = max(0.05, self.lease_s / 4.0)
        while not self._stop.wait(interval):
            active = self._active
            if active is None or self._closed:
                continue
            try:
                renewed = self.store.renew_lease(active, self.worker_id,
                                                 self.lease_s)
            except Exception:  # pragma: no cover - store closed/racy
                continue
            if not renewed:
                self._lost_leases.add(active)

    def _check_job_chaos(self, job: ExperimentJob) -> None:
        """Abandon the job if its lease is gone (stolen or dropped)."""
        if job.job_id in self._lost_leases:
            raise _LeaseAbandoned(f"lease on {job.job_id} lost")
        if job.lease_drop and job.n_done > 0:
            drops = self.store.count_events(job.job_id,
                                            "lease_dropped")
            if drops < job.lease_drop:
                self.store.drop_lease(job.job_id, self.worker_id)
                raise _LeaseAbandoned(
                    f"lease on {job.job_id} deliberately dropped "
                    f"(chaos knob, drop {drops + 1}/{job.lease_drop})")

    def _record_row(self, job: ExperimentJob, index: int,
                    row: SweepRow) -> None:
        if job.rows[index] is not None:
            return
        job.rows[index] = row
        job.failures.pop(index, None)
        with self._cond:
            self._stats["points_done"] += 1
            if row.cached:
                self._stats["points_cached"] += 1
        # Journal strictly *before* the chaos crash: a journaled row is
        # durable even against the SIGKILL below.
        self.store.record_row(
            job.job_id, index,
            pickle.dumps(row, protocol=pickle.HIGHEST_PROTOCOL),
            row.cached)
        if job.crash_after_points is not None \
                and job.n_done == job.crash_after_points:
            os.kill(os.getpid(), signal.SIGKILL)
        self._check_job_chaos(job)

    def _record_failure(self, job: ExperimentJob, index: int,
                        failure: TaskFailure, attempts: int) -> None:
        if job.rows[index] is not None:
            return
        record = {
            "point": job.points[index].describe(),
            "kind": failure.kind,
            "attempts": attempts,
            "error": (f"{type(failure.error).__name__}: {failure.error}"
                      if failure.error is not None
                      else failure.summary()),
        }
        job.failures[index] = record
        with self._cond:
            self._stats["points_failed"] += 1
        self.store.record_failure(job.job_id, index, record)

    def _run_job(self, job: ExperimentJob, resumed: bool = False
                 ) -> None:
        if job.started_at is None:
            job.started_at = time.time()
        self.store.mark_running(job.job_id, job.started_at,
                                self.worker_id, resumed=resumed)

        # How much of the grid the warm cache can already serve — the
        # number that makes "re-submission is instant" observable.
        probe = ArtifactStore(self.cache_dir)
        precached = sum(
            1 for point in job.points
            if point_cache_key(point,
                               point_config(point, job.char_jobs))
            in probe)
        self.store.set_precached(job.job_id, precached)

        deadline = (None if job.timeout_s is None
                    else time.monotonic() + job.timeout_s)
        # Resume from the journal: recorded rows and terminal failures
        # are replayed, only the remainder is (re)computed — and those
        # mostly land on warm artifact-cache entries.
        pending = [index for index in _scheduled_order(job.points)
                   if job.rows[index] is None
                   and index not in job.failures]
        attempt = 0
        while pending:
            self._check_job_chaos(job)
            wave = list(pending)
            tasks = [
                _ServiceTask(
                    PointTask(job.points[index], self.cache_dir,
                              job.char_jobs, False),
                    poison=job.poison)
                for index in wave
            ]
            timeout = (None if deadline is None
                       else max(0.0, deadline - time.monotonic()))
            outcomes = parallel_map_outcomes(
                _run_service_point, tasks, jobs=job.jobs,
                on_result=lambda slot, row, wave=wave:
                    self._record_row(job, wave[slot], row),
                timeout=timeout)
            retriable: List[int] = []
            for slot, outcome in enumerate(outcomes):
                index = wave[slot]
                if outcome.ok:
                    self._record_row(job, index, outcome.value)
                    continue
                failure = outcome.failure
                out_of_time = (deadline is not None
                               and time.monotonic() >= deadline)
                if failure.retriable and attempt < job.max_retries \
                        and not out_of_time:
                    retriable.append(index)
                else:
                    self._record_failure(job, index, failure,
                                         attempts=attempt + 1)
            if not retriable:
                break
            attempt += 1
            job.retries += len(retriable)
            with self._cond:
                self._stats["point_retries"] += len(retriable)
            self.store.record_retry_wave(job.job_id, job.retries,
                                         len(retriable), attempt)
            delay = retry_backoff_delay(self.retry_backoff_s, attempt,
                                        self._retry_rng)
            if delay > 0:
                time.sleep(delay)
            pending = retriable

        self._finalize(job)

    def _finalize(self, job: ExperimentJob) -> None:
        """Journal the job's terminal state, then wake its waiters."""
        if job.error is not None or job.n_done == 0:
            job.state = JobState.FAILED
        elif job.failures:
            job.state = JobState.PARTIAL
        else:
            job.state = JobState.DONE
        job.finished_at = time.time()
        with self._cond:
            self._stats[f"jobs_{job.state}"] += 1
            self._recent_outcomes.append((job.finished_at, job.state))
        try:
            self.store.finish_job(job.job_id, job.state,
                                  job.finished_at, job.error,
                                  job.retries, self.worker_id)
        except Exception:  # pragma: no cover - store closed mid-stop
            return
        with self._cond:
            self._last_finished = job.job_id
            self._cond.notify_all()

    def shutdown(self, wait: bool = True,
                 timeout: Optional[float] = 30.0) -> None:
        """Stop the drain thread (after the current job), release any
        held lease, and clean up."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        with self._cond:
            self._wake = True
            self._cond.notify_all()
        if wait:
            self._worker.join(timeout)
        active = self._active
        if active is not None and not self._worker.is_alive():
            # The drain thread is gone but a claim is still on the
            # books (abandoned mid-job) — free it for other workers.
            try:
                self.store.release_lease(active, self.worker_id)
            except Exception:  # pragma: no cover - defensive
                pass
        if wait and not self._worker.is_alive():
            self.store.close()
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None
