"""Durable job journal + lease table behind the experiment service.

:class:`JobStore` is the crash-safety layer under
:class:`~repro.service.jobs.JobManager`: a single SQLite file (stdlib
``sqlite3``, WAL mode, living beside the artifact cache) that journals

* every submission (the pickled spec + expanded points travel with the
  job, so a restarted service, or a query for a finished job, can
  rebuild it exactly),
* every per-point completion and terminal failure (write-ahead
  ``journal`` records plus normalized ``rows``/``failures`` tables),
* every state transition and lease event (claimed / reclaimed /
  renewed via heartbeat / released / deliberately dropped).

A service that is ``kill -9``-ed mid-job therefore loses nothing that
was committed: on the next startup the manager reloads terminal jobs
(served as before) and re-queues interrupted ones, which resume from
the journal — already-recorded rows are replayed, never recomputed.

The ``leases`` table is what lets a *fleet* of workers drain one
queue: :meth:`claim_next` atomically (``BEGIN IMMEDIATE``) hands the
oldest claimable job to exactly one worker, heartbeat renewals push
the lease deadline forward while the job runs, and a worker that dies
simply stops renewing — its expired lease makes the job claimable
again, exactly like a broken process pool makes a point retriable.

Everything in here is stdlib-only and fastapi-free on purpose: the
durability layer must work for ``repro serve --worker`` processes that
never import the HTTP stack.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = ["JobStore", "JobClaim"]


_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id      TEXT PRIMARY KEY,
    created_at  REAL NOT NULL,
    state       TEXT NOT NULL,
    spec        BLOB NOT NULL,
    knobs       TEXT NOT NULL,
    worker      TEXT,
    started_at  REAL,
    finished_at REAL,
    error       TEXT,
    precached   INTEGER NOT NULL DEFAULT 0,
    retries     INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS rows (
    job_id      TEXT NOT NULL,
    point_index INTEGER NOT NULL,
    row         BLOB NOT NULL,
    cached      INTEGER NOT NULL,
    recorded_at REAL NOT NULL,
    PRIMARY KEY (job_id, point_index)
);
CREATE TABLE IF NOT EXISTS failures (
    job_id      TEXT NOT NULL,
    point_index INTEGER NOT NULL,
    failure     TEXT NOT NULL,
    recorded_at REAL NOT NULL,
    PRIMARY KEY (job_id, point_index)
);
CREATE TABLE IF NOT EXISTS leases (
    job_id      TEXT PRIMARY KEY,
    worker      TEXT NOT NULL,
    acquired_at REAL NOT NULL,
    deadline    REAL NOT NULL,
    renewals    INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS journal (
    seq    INTEGER PRIMARY KEY AUTOINCREMENT,
    ts     REAL NOT NULL,
    job_id TEXT,
    event  TEXT NOT NULL,
    detail TEXT
);
"""


class JobClaim:
    """One successful :meth:`JobStore.claim_next` (slots, not a dict)."""

    __slots__ = ("job_id", "reclaimed")

    def __init__(self, job_id: str, reclaimed: bool) -> None:
        self.job_id = job_id
        self.reclaimed = reclaimed


class JobStore:
    """SQLite-backed job journal + lease table (thread/process safe).

    One connection per store instance, serialized by an internal lock
    within the process; WAL mode + a busy timeout make concurrent
    stores in *other* processes (an API node plus ``--worker``
    drainers) safe against each other.  All mutators commit before
    returning — a ``kill -9`` immediately after any call loses nothing
    that call journaled.

    Args:
        path: The SQLite file (parent directories are created).
        busy_timeout_s: How long a writer waits on a cross-process
            lock before erroring.
    """

    def __init__(self, path: Union[str, Path],
                 busy_timeout_s: float = 30.0) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            str(self.path), timeout=busy_timeout_s,
            isolation_level=None, check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(
            f"PRAGMA busy_timeout={int(busy_timeout_s * 1000)}")
        with self._lock:
            self._conn.executescript(_SCHEMA)
        self._closed = False

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @contextmanager
    def _txn(self):
        """One atomic write: BEGIN IMMEDIATE ... COMMIT (or rollback)."""
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                yield self._conn
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")

    @staticmethod
    def _journal(conn: sqlite3.Connection, event: str,
                 job_id: Optional[str],
                 detail: Optional[Dict[str, Any]] = None) -> None:
        conn.execute(
            "INSERT INTO journal (ts, job_id, event, detail) "
            "VALUES (?, ?, ?, ?)",
            (time.time(), job_id, event,
             None if detail is None else json.dumps(detail)))

    # ------------------------------------------------------------------
    # job lifecycle
    # ------------------------------------------------------------------
    def create_job(self, job_id: str, created_at: float,
                   spec_blob: bytes,
                   knobs: Dict[str, Any]) -> None:
        """Journal a submission (state ``queued``)."""
        with self._txn() as conn:
            conn.execute(
                "INSERT INTO jobs (job_id, created_at, state, spec, "
                "knobs) VALUES (?, ?, 'queued', ?, ?)",
                (job_id, created_at, sqlite3.Binary(spec_blob),
                 json.dumps(knobs)))
            self._journal(conn, "submitted", job_id)

    def mark_running(self, job_id: str, started_at: float,
                     worker: str, resumed: bool) -> None:
        with self._txn() as conn:
            conn.execute(
                "UPDATE jobs SET state='running', started_at=?, "
                "worker=? WHERE job_id=?",
                (started_at, worker, job_id))
            self._journal(conn, "resumed" if resumed else "started",
                          job_id, {"worker": worker})

    def finish_job(self, job_id: str, state: str, finished_at: float,
                   error: Optional[str], retries: int,
                   worker: str) -> None:
        """Terminal transition + lease release, atomically."""
        with self._txn() as conn:
            conn.execute(
                "UPDATE jobs SET state=?, finished_at=?, error=?, "
                "retries=? WHERE job_id=?",
                (state, finished_at, error, retries, job_id))
            conn.execute(
                "DELETE FROM leases WHERE job_id=? AND worker=?",
                (job_id, worker))
            self._journal(conn, state, job_id, {"worker": worker})

    def set_precached(self, job_id: str, precached: int) -> None:
        with self._txn() as conn:
            conn.execute("UPDATE jobs SET precached=? WHERE job_id=?",
                         (precached, job_id))

    def record_retry_wave(self, job_id: str, retries_total: int,
                          points: int, attempt: int) -> None:
        with self._txn() as conn:
            conn.execute("UPDATE jobs SET retries=? WHERE job_id=?",
                         (retries_total, job_id))
            self._journal(conn, "retry_wave", job_id,
                          {"points": points, "attempt": attempt})

    # ------------------------------------------------------------------
    # per-point journal
    # ------------------------------------------------------------------
    def record_row(self, job_id: str, index: int, row_blob: bytes,
                   cached: bool) -> bool:
        """Journal one finished point; idempotent (first write wins).

        Returns whether the row was newly recorded — a replay of an
        already-journaled point (a resumed job, a racing stale worker)
        is a no-op and adds no second ``point_done`` journal record,
        which is exactly what the no-double-run tests count.
        """
        with self._txn() as conn:
            cursor = conn.execute(
                "INSERT OR IGNORE INTO rows (job_id, point_index, row, "
                "cached, recorded_at) VALUES (?, ?, ?, ?, ?)",
                (job_id, index, sqlite3.Binary(row_blob), int(cached),
                 time.time()))
            if cursor.rowcount == 0:
                return False
            conn.execute(
                "DELETE FROM failures WHERE job_id=? AND point_index=?",
                (job_id, index))
            self._journal(conn, "point_done", job_id,
                          {"index": index, "cached": bool(cached)})
            return True

    def record_failure(self, job_id: str, index: int,
                       failure: Dict[str, Any]) -> bool:
        """Journal one terminal point failure; idempotent like rows."""
        with self._txn() as conn:
            cursor = conn.execute(
                "INSERT OR IGNORE INTO failures (job_id, point_index, "
                "failure, recorded_at) VALUES (?, ?, ?, ?)",
                (job_id, index, json.dumps(failure), time.time()))
            if cursor.rowcount == 0:
                return False
            self._journal(conn, "point_failed", job_id,
                          {"index": index,
                           "kind": failure.get("kind")})
            return True

    # ------------------------------------------------------------------
    # leases
    # ------------------------------------------------------------------
    def claim_next(self, worker: str, lease_s: float,
                   now: Optional[float] = None) -> Optional[JobClaim]:
        """Atomically claim the oldest claimable job for ``worker``.

        Claimable: ``queued`` or ``running`` with no lease or an
        expired one.  A ``running`` claim (or one stealing an expired
        lease) is a *reclaim* — the previous owner crashed or stalled,
        and the new owner resumes from the journal.
        """
        now = time.time() if now is None else now
        with self._txn() as conn:
            row = conn.execute(
                "SELECT j.job_id, j.state, l.worker "
                "FROM jobs j LEFT JOIN leases l ON l.job_id = j.job_id "
                "WHERE j.state IN ('queued', 'running') "
                "AND (l.job_id IS NULL OR l.deadline < ?) "
                "ORDER BY j.created_at, j.job_id LIMIT 1",
                (now,)).fetchone()
            if row is None:
                return None
            job_id, state, previous = row
            reclaimed = state == "running" or previous is not None
            conn.execute(
                "INSERT OR REPLACE INTO leases (job_id, worker, "
                "acquired_at, deadline, renewals) "
                "VALUES (?, ?, ?, ?, 0)",
                (job_id, worker, now, now + lease_s))
            self._journal(conn,
                          "reclaimed" if reclaimed else "claimed",
                          job_id,
                          {"worker": worker, "previous": previous})
            return JobClaim(job_id, reclaimed)

    def renew_lease(self, job_id: str, worker: str,
                    lease_s: float) -> bool:
        """Heartbeat: push the deadline forward; ``False`` = lost it."""
        with self._txn() as conn:
            cursor = conn.execute(
                "UPDATE leases SET deadline=?, renewals=renewals+1 "
                "WHERE job_id=? AND worker=?",
                (time.time() + lease_s, job_id, worker))
            return cursor.rowcount == 1

    def release_lease(self, job_id: str, worker: str) -> None:
        with self._txn() as conn:
            conn.execute(
                "DELETE FROM leases WHERE job_id=? AND worker=?",
                (job_id, worker))

    def drop_lease(self, job_id: str, worker: str) -> None:
        """Deliberately abandon a lease (the ``lease_drop`` chaos
        knob): journaled distinctly so tests can count drops."""
        with self._txn() as conn:
            conn.execute(
                "DELETE FROM leases WHERE job_id=? AND worker=?",
                (job_id, worker))
            self._journal(conn, "lease_dropped", job_id,
                          {"worker": worker})

    def lease_of(self, job_id: str
                 ) -> Optional[Tuple[str, float, int]]:
        """``(worker, deadline, renewals)`` of a live lease row."""
        with self._lock:
            row = self._conn.execute(
                "SELECT worker, deadline, renewals FROM leases "
                "WHERE job_id=?", (job_id,)).fetchone()
        return None if row is None else (row[0], row[1], row[2])

    # ------------------------------------------------------------------
    # loading (startup recovery + cross-worker status refresh)
    # ------------------------------------------------------------------
    _JOB_COLUMNS = ("job_id", "created_at", "state", "spec", "knobs",
                    "worker", "started_at", "finished_at", "error",
                    "precached", "retries")

    def _job_record(self, row: Tuple) -> Dict[str, Any]:
        record = dict(zip(self._JOB_COLUMNS, row))
        record["spec"] = bytes(record["spec"])
        record["knobs"] = json.loads(record["knobs"])
        return record

    def load_jobs(self) -> List[Dict[str, Any]]:
        """Every journaled job, oldest first (startup recovery)."""
        with self._lock:
            rows = self._conn.execute(
                f"SELECT {', '.join(self._JOB_COLUMNS)} FROM jobs "
                f"ORDER BY created_at, job_id").fetchall()
        return [self._job_record(row) for row in rows]

    def load_job(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            row = self._conn.execute(
                f"SELECT {', '.join(self._JOB_COLUMNS)} FROM jobs "
                f"WHERE job_id=?", (job_id,)).fetchone()
        return None if row is None else self._job_record(row)

    def load_rows(self, job_id: str) -> Dict[int, Tuple[bytes, bool]]:
        """``{point_index: (pickled row, cached flag)}``."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT point_index, row, cached FROM rows "
                "WHERE job_id=?", (job_id,)).fetchall()
        return {index: (bytes(blob), bool(cached))
                for index, blob, cached in rows}

    def row_counts(self, job_id: Optional[str] = None
                   ) -> Dict[str, Tuple[int, int]]:
        """``{job_id: (rows journaled, rows served from cache)}``.

        One grouped query over every job (or over ``job_id`` alone),
        unpickling no row: enough for a status summary.
        """
        where, params = (("WHERE job_id=? ", (job_id,))
                         if job_id is not None else ("", ()))
        with self._lock:
            rows = self._conn.execute(
                f"SELECT job_id, COUNT(*), COALESCE(SUM(cached), 0) "
                f"FROM rows {where}GROUP BY job_id", params).fetchall()
        return {jid: (int(done), int(cached))
                for jid, done, cached in rows}

    def load_failures(self, job_id: str) -> Dict[int, Dict[str, Any]]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT point_index, failure FROM failures "
                "WHERE job_id=?", (job_id,)).fetchall()
        return {index: json.loads(text) for index, text in rows}

    def count_states(self) -> Dict[str, int]:
        """``{state: number of jobs}`` over every journaled job."""
        with self._lock:
            return dict(self._conn.execute(
                "SELECT state, COUNT(*) FROM jobs "
                "GROUP BY state").fetchall())

    def lifetime_counters(self) -> Dict[str, int]:
        """Service counters reconstructed from the journal tables, so
        ``stats()`` survives restarts (the sliding health window does
        not — a fresh process starts healthy by design)."""
        by_state = self.count_states()
        with self._lock:
            points_done, points_cached = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(cached), 0) "
                "FROM rows").fetchone()
            points_failed = self._conn.execute(
                "SELECT COUNT(*) FROM failures").fetchone()[0]
            retries = self._conn.execute(
                "SELECT COALESCE(SUM(retries), 0) "
                "FROM jobs").fetchone()[0]
        return {
            "jobs_submitted": sum(by_state.values()),
            "jobs_done": by_state.get("done", 0),
            "jobs_partial": by_state.get("partial", 0),
            "jobs_failed": by_state.get("failed", 0),
            "points_done": int(points_done),
            "points_cached": int(points_cached),
            "points_failed": int(points_failed),
            "point_retries": int(retries),
        }

    # ------------------------------------------------------------------
    # journal queries (tests, smoke scripts, debugging)
    # ------------------------------------------------------------------
    def journal_events(self, job_id: Optional[str] = None,
                       event: Optional[str] = None
                       ) -> List[Dict[str, Any]]:
        """Write-ahead records, oldest first, optionally filtered."""
        clauses, params = [], []
        if job_id is not None:
            clauses.append("job_id=?")
            params.append(job_id)
        if event is not None:
            clauses.append("event=?")
            params.append(event)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        with self._lock:
            rows = self._conn.execute(
                f"SELECT seq, ts, job_id, event, detail FROM journal"
                f"{where} ORDER BY seq", params).fetchall()
        return [{"seq": seq, "ts": ts, "job_id": jid, "event": evt,
                 "detail": None if detail is None
                 else json.loads(detail)}
                for seq, ts, jid, evt, detail in rows]

    def count_events(self, job_id: str, event: str) -> int:
        with self._lock:
            return self._conn.execute(
                "SELECT COUNT(*) FROM journal WHERE job_id=? AND "
                "event=?", (job_id, event)).fetchone()[0]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with self._lock:
            try:
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover - defensive
                pass

    def describe(self) -> str:
        return f"sqlite job store {str(self.path)!r}"
