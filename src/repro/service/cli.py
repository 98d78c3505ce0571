"""``python -m repro serve`` — run the experiment service or a worker.

Two modes share one durable job store (``service-jobs.sqlite3`` beside
the artifact cache, or ``--store``):

* **API node** (default): binds the FastAPI app (optional ``service``
  extra) to a host/port via uvicorn.  Its manager both accepts
  submissions and drains the queue.
* **Worker** (``--worker``): no HTTP, no fastapi — a stdlib-only drain
  loop that claims jobs from the shared store under a heartbeat lease
  and runs them.  Point any number of workers (on any machine that
  sees the store and cache paths) at the same ``--store`` and they
  drain one queue without double-running a point.

Example::

    pip install '.[service]'
    python -m repro serve --port 8000 --cache-dir .service-cache \
        --jobs 2
    # on each extra machine / terminal (no service extra needed):
    python -m repro serve --worker --cache-dir .service-cache

    curl -X POST localhost:8000/sweeps -H 'content-type: application/json' \
        -d '{"experiment": "fig8", "scale": "smoke", \
             "thresholds": [null, 900.0]}'
    curl localhost:8000/sweeps/<job_id>
    curl localhost:8000/sweeps/<job_id>/result
"""

from __future__ import annotations

import argparse
import signal
import threading
from typing import Optional, Sequence

__all__ = ["serve_main"]


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve sweep experiments over HTTP: a durable job "
                    "queue over the sweep engine with one shared warm "
                    "artifact cache; --worker drains the same queue "
                    "without the HTTP layer",
        epilog="The HTTP mode requires the optional service extra "
               "(pip install '.[service]'); --worker mode is "
               "stdlib-only",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8000,
                        help="bind port (default: 8000)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="artifact cache every job shares — a "
                             "directory or a registered scheme:// URL, "
                             "e.g. chaos://dir?read=0.1 for fault "
                             "injection (default: a service-lifetime "
                             "temp dir)")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="durable job store (SQLite); share it "
                             "between API nodes and --worker processes "
                             "to drain one queue (default: "
                             "service-jobs.sqlite3 beside the cache)")
    parser.add_argument("--worker", action="store_true",
                        help="run a headless lease-draining worker "
                             "instead of the HTTP API (stdlib-only)")
    parser.add_argument("--worker-id", default=None, metavar="ID",
                        help="lease identity of this process (default: "
                             "host-pid-random; must be unique)")
    parser.add_argument("--lease", type=float, default=30.0,
                        metavar="S",
                        help="lease heartbeat deadline in seconds; a "
                             "worker silent this long forfeits its job "
                             "(default: 30)")
    parser.add_argument("--poll", type=float, default=1.0, metavar="S",
                        help="how often to poll the store for jobs "
                             "submitted elsewhere (default: 1)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="default processes per job's grid points "
                             "(0 = all cores; default: 1)")
    parser.add_argument("--max-retries", type=int, default=2,
                        metavar="N",
                        help="retries for points lost to pool "
                             "breakage, with jittered exponential "
                             "backoff (default: 2)")
    parser.add_argument("--retry-backoff", type=float, default=0.5,
                        metavar="S",
                        help="retry backoff scale; wave n sleeps "
                             "uniform(0, scale * 2**(n-1)) seconds "
                             "(default: 0.5)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="S",
                        help="default per-job wall-clock budget; "
                             "unfinished points fail, finished rows "
                             "survive (default: unlimited)")
    parser.add_argument("--log-level", default="info",
                        help="uvicorn log level (default: info)")
    args = parser.parse_args(argv)

    manager_kwargs = dict(
        cache_dir=args.cache_dir, jobs=args.jobs,
        max_retries=args.max_retries,
        retry_backoff_s=args.retry_backoff, timeout_s=args.timeout,
        store_path=args.store, worker_id=args.worker_id,
        lease_s=args.lease, poll_interval_s=args.poll)

    if args.worker:
        return _worker_main(manager_kwargs)

    try:
        import uvicorn

        from repro.service.app import create_app
        app = create_app(**manager_kwargs)
    except (ImportError, RuntimeError) as error:
        parser.error(
            f"{error}\nthe experiment service needs fastapi + uvicorn; "
            f"install the optional extra (pip install '.[service]') "
            f"or run a headless drainer with --worker")

    uvicorn.run(app, host=args.host, port=args.port,
                log_level=args.log_level)
    return 0


def _worker_main(manager_kwargs: dict) -> int:
    """Headless lease-draining worker over the shared job store.

    Stdlib-only on purpose: a fleet machine needs the repo and its
    base deps, never fastapi/uvicorn.  The manager's own drain thread
    does all the work; this loop just keeps the process alive and
    shuts down cleanly on SIGINT/SIGTERM (releasing any held lease so
    siblings reclaim the job immediately instead of after expiry).
    """
    from repro.service.jobs import JobManager

    manager = JobManager(**manager_kwargs)
    stats = manager.stats()["store"]
    print(f"repro worker {stats['worker_id']} draining "
          f"{stats['path']} (lease {stats['lease_s']}s, cache "
          f"{manager.cache_dir})", flush=True)

    stop = threading.Event()

    def _handle(signum, frame):  # noqa: ARG001 - signal signature
        stop.set()

    signal.signal(signal.SIGINT, _handle)
    signal.signal(signal.SIGTERM, _handle)
    try:
        while not stop.wait(0.5):
            pass
    finally:
        manager.shutdown(wait=True)
        print(f"repro worker {stats['worker_id']} stopped", flush=True)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(serve_main())
