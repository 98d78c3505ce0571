"""FastAPI app over the :class:`~repro.service.jobs.JobManager`.

``fastapi`` is an optional extra (``pip install '.[service]'``): this
module keeps every fastapi import inside :func:`create_app`, so
``import repro`` — and the whole tier-1 test suite — stays
dependency-free.  The endpoints:

* ``POST /sweeps`` — submit a sweep; the body is the same JSON (or
  TOML, via ``Content-Type: application/toml``) mapping that
  ``load_sweep_file`` parses, plus optional job knobs (``jobs``,
  ``timeout_s``, ``max_retries``) and chaos knobs (``poison``,
  ``crash_after_points``, ``lease_drop``).
* ``GET /sweeps`` — newest-first job summaries.
* ``GET /sweeps/{job_id}`` — live status: per-point
  done/cached/failed/remaining counts, retry counters, failures.
* ``GET /sweeps/{job_id}/result`` — tidy rows of a finished job
  (``?aggregated=1`` adds the seed-aggregated view, ``?format=csv``
  returns CSV); 409 while the job is still queued/running.
* ``GET /healthz`` — liveness plus structured service counters;
  ``degraded`` is scoped to a sliding window of recent job failures,
  lifetime totals live under ``counters``.

Jobs are journaled into a durable store shared with any
``repro serve --worker`` drainers — see :mod:`repro.service.jobs`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.service.jobs import JobManager, records_to_csv

__all__ = ["create_app", "fastapi_available"]


def fastapi_available() -> bool:
    """Whether the optional ``service`` extra is importable."""
    try:
        import fastapi  # noqa: F401
    except ImportError:
        return False
    return True


def create_app(manager: Optional[JobManager] = None,
               **manager_kwargs: Any):
    """Build the service app (imports fastapi on first call).

    Args:
        manager: An existing :class:`JobManager` to serve; by default
            one is created from ``manager_kwargs`` (``cache_dir``,
            ``jobs``, ``max_retries``, ...) and shut down with the
            app.
    """
    try:
        from contextlib import asynccontextmanager

        from fastapi import FastAPI, HTTPException, Request
        from fastapi.responses import PlainTextResponse
    except ImportError as error:  # pragma: no cover - env dependent
        raise RuntimeError(
            "the experiment service needs the optional 'service' "
            "extra: pip install '.[service]'") from error

    owns_manager = manager is None
    if manager is None:
        manager = JobManager(**manager_kwargs)

    @asynccontextmanager
    async def lifespan(app):
        yield
        if owns_manager:
            manager.shutdown(wait=False)

    app = FastAPI(title="repro experiment service",
                  description="Async sweep jobs over the "
                              "content-addressed experiment pipeline",
                  lifespan=lifespan)
    app.state.manager = manager

    def _job_status_or_404(job_id: str) -> Dict[str, Any]:
        status = manager.status(job_id)
        if status is None:
            raise HTTPException(status_code=404,
                                detail=f"unknown job {job_id!r}")
        return status

    @app.post("/sweeps", status_code=202)
    async def submit_sweep(request: Request) -> Dict[str, Any]:
        raw = await request.body()
        content_type = request.headers.get("content-type", "")
        try:
            if "toml" in content_type.lower():
                import tomllib

                data = tomllib.loads(raw.decode("utf-8"))
            else:
                data = json.loads(raw.decode("utf-8") or "{}")
        except (UnicodeDecodeError, ValueError) as error:
            raise HTTPException(status_code=422,
                                detail=f"unparseable sweep spec body: "
                                       f"{error}")
        try:
            status = manager.submit_mapping(data)
        except ValueError as error:
            raise HTTPException(status_code=422, detail=str(error))
        status["status_url"] = f"/sweeps/{status['job_id']}"
        status["result_url"] = f"/sweeps/{status['job_id']}/result"
        return status

    @app.get("/sweeps")
    def list_sweeps() -> Dict[str, Any]:
        jobs = manager.list_jobs()
        return {"n_jobs": len(jobs), "jobs": jobs}

    @app.get("/sweeps/{job_id}")
    def sweep_status(job_id: str) -> Dict[str, Any]:
        return _job_status_or_404(job_id)

    @app.get("/sweeps/{job_id}/result")
    def sweep_result(job_id: str, aggregated: bool = False,
                     format: str = "json"):
        _job_status_or_404(job_id)
        payload = manager.result(job_id, aggregated=aggregated)
        if payload is not None and "rows" not in payload:
            # Known job, not terminal yet: the client should keep
            # polling the status endpoint.
            raise HTTPException(
                status_code=409,
                detail=f"job {job_id!r} is {payload['state']}; "
                       f"poll /sweeps/{job_id} until it finishes")
        if format == "csv":
            records = (payload["aggregated"] if aggregated
                       else payload["rows"])
            return PlainTextResponse(records_to_csv(records),
                                     media_type="text/csv")
        if format != "json":
            raise HTTPException(status_code=422,
                                detail="format must be json or csv")
        return payload

    @app.get("/healthz")
    def healthz() -> Dict[str, Any]:
        # Degradation is scoped to a sliding window of recently
        # finished jobs (manager.health()); stats() keeps the
        # lifetime counters.
        return {**manager.health(), **manager.stats()}

    return app
