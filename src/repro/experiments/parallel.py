"""Process-parallel execution of independent experiment units.

Table I rows, figure panels and sweep grid points are independent of
each other, so they can run in separate processes.  Each worker rebuilds
its own :class:`~repro.experiments.runner.ExperimentContext`; pointing
every worker at the same ``cache_dir`` makes them share the
content-addressed artifact cache on disk, so a re-run (or a figure
riding on a Table I run) pays only for stages nobody computed yet.

Failure semantics come in two flavours:

* :func:`parallel_map` raises :class:`ParallelTaskError` on the first
  failure, *fail-fast*: not-yet-started siblings are cancelled instead
  of draining the whole grid behind a doomed run.  The message names
  the exact task (grid point, row) that crashed plus the worker-side
  traceback — including when the OS kills a worker outright and the
  pool breaks, which would otherwise surface as a bare
  ``BrokenProcessPool`` with no hint of which point died.
* :func:`parallel_map_outcomes` never raises per-task: every item
  resolves to a :class:`TaskOutcome` carrying either the result or a
  :class:`TaskFailure`, with pool-breakage failures flagged
  ``retriable`` and an optional wall-clock ``timeout`` for the whole
  batch.  This is what the experiment service schedules jobs through —
  one poisoned grid point degrades a job to ``partial`` instead of
  discarding the surviving rows.
"""

from __future__ import annotations

import random
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import CancelledError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple, \
    TypeVar, Union

from repro.core.ladder import share_cores, shippable_exception
from repro.cpus import usable_cores

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["default_jobs", "parallel_map", "parallel_map_outcomes",
           "ParallelTaskError", "TaskFailure", "TaskOutcome",
           "retry_backoff_delay"]


class ParallelTaskError(RuntimeError):
    """A parallel task failed; the message names the failing task."""


def default_jobs() -> int:
    """Worker count when ``--jobs 0`` asks for "all cores"."""
    return usable_cores()


def retry_backoff_delay(base_s: float, attempt: int,
                        rng: Optional[random.Random] = None,
                        cap_s: float = 30.0) -> float:
    """Full-jitter exponential backoff for retry wave ``attempt``.

    Returns a delay drawn uniformly from ``[0, min(base_s *
    2**(attempt-1), cap_s)]`` — full jitter, so a fleet of workers
    retrying the same broken resource decorrelates instead of
    thundering in lockstep at the deterministic schedule.  Pass a
    seeded ``rng`` for reproducible tests/chaos drills.
    """
    if base_s <= 0 or attempt <= 0:
        return 0.0
    upper = min(base_s * (2 ** (attempt - 1)), cap_s)
    draw = rng.uniform if rng is not None else random.uniform
    return draw(0.0, upper)


def describe_task(item: Any) -> str:
    """Human-readable one-liner identifying a work item.

    Tasks that implement ``describe()`` (grid points, row tasks) name
    themselves; anything else falls back to a truncated ``repr``.
    """
    describe = getattr(item, "describe", None)
    if callable(describe):
        try:
            return str(describe())
        except Exception:
            pass
    text = repr(item)
    return text if len(text) <= 200 else text[:197] + "..."


@dataclass(frozen=True)
class TaskFailure:
    """Why one work item produced no result.

    ``kind`` is one of ``"error"`` (the task itself raised),
    ``"pool"`` (the process pool broke underneath it — worker
    OOM-killed, ``os._exit``), ``"timeout"`` (the batch deadline
    expired first) or ``"cancelled"`` (fail-fast cancelled it before
    it started).  Only ``"pool"`` failures are ``retriable``: the task
    never got to misbehave, a fresh pool may well complete it.
    """

    index: int
    description: str
    kind: str = "error"
    retriable: bool = False
    worker_traceback: Optional[str] = None
    error: Optional[BaseException] = field(default=None, compare=False)

    def summary(self) -> str:
        reasons = {
            "error": "raised",
            "pool": "was in flight when the process pool broke "
                    "(worker killed?)",
            "timeout": "did not finish before the deadline",
            "cancelled": "was cancelled after an earlier failure",
        }
        return f"{self.description} {reasons[self.kind]}"


@dataclass(frozen=True)
class TaskOutcome:
    """One item's terminal state under :func:`parallel_map_outcomes`."""

    index: int
    value: Any = None
    failure: Optional[TaskFailure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def _call_guarded(packed: Tuple[Callable[[T], R], int, T]
                  ) -> Tuple[bool, Any]:
    """Worker wrapper: ``(True, result)`` or ``(False, failure info)``."""
    fn, index, item = packed
    try:
        return True, fn(item)
    except Exception as error:
        return False, (index, describe_task(item),
                       traceback.format_exc(),
                       shippable_exception(error))


def _pool_outcomes(fn: Callable[[T], R], items: Sequence[T], jobs: int,
                   on_result: Optional[Callable[[int, R], None]],
                   fail_fast: bool,
                   timeout: Optional[float]
                   ) -> List[Union[None, Tuple[bool, Any],
                                   TaskFailure]]:
    """Shared pool loop: one slot per item, completion-streamed.

    Slots hold ``(True, result)`` for successes, a :class:`TaskFailure`
    otherwise; ``None`` only for tasks fail-fast-cancelled before any
    outcome existed (raise-mode surfaces the recorded failure anyway).
    """
    outcomes: List[Union[None, Tuple[bool, Any], TaskFailure]] = \
        [None] * len(items)
    deadline = None if timeout is None else time.monotonic() + timeout
    # Workers record their share of the cores for threshold ladders.
    pool = ProcessPoolExecutor(max_workers=jobs, initializer=share_cores,
                               initargs=(jobs,))
    try:
        futures = {
            pool.submit(_call_guarded, (fn, index, item)): index
            for index, item in enumerate(items)
        }
        pending = set(futures)
        cancelling = False
        while pending:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            done, pending = wait(pending, timeout=remaining,
                                 return_when=FIRST_COMPLETED)
            if not done:
                # Batch deadline expired: whatever has not finished is
                # abandoned (queued tasks cancel; running ones keep
                # the dying pool busy but their results are dropped).
                for future in pending:
                    future.cancel()
                for future in pending:
                    index = futures[future]
                    outcomes[index] = TaskFailure(
                        index=index,
                        description=describe_task(items[index]),
                        kind="timeout")
                pending = set()
                break
            for future in done:
                index = futures[future]
                if future.cancelled():
                    outcomes[index] = TaskFailure(
                        index=index,
                        description=describe_task(items[index]),
                        kind="cancelled")
                    continue
                try:
                    ok, payload = future.result()
                except CancelledError:
                    outcomes[index] = TaskFailure(
                        index=index,
                        description=describe_task(items[index]),
                        kind="cancelled")
                    continue
                except BrokenProcessPool as error:
                    # The pool is gone; every sibling future completes
                    # with the same exception and drains through here.
                    outcomes[index] = TaskFailure(
                        index=index,
                        description=describe_task(items[index]),
                        kind="pool", retriable=True, error=error)
                    continue
                except Exception as error:
                    # Transport failure (e.g. unpicklable result).
                    outcomes[index] = TaskFailure(
                        index=index,
                        description=describe_task(items[index]),
                        kind="error", error=error)
                    if fail_fast and not cancelling:
                        cancelling = True
                        for sibling in futures:
                            if not sibling.done():
                                sibling.cancel()
                    continue
                if ok:
                    outcomes[index] = (True, payload)
                    if on_result is not None:
                        on_result(index, payload)
                else:
                    __, described, worker_tb, error = payload
                    outcomes[index] = TaskFailure(
                        index=index, description=described,
                        kind="error", worker_traceback=worker_tb,
                        error=error)
                    if fail_fast and not cancelling:
                        # Cancel everything not yet started: a doomed
                        # run must not drain the rest of the grid
                        # before surfacing its first failure.
                        cancelling = True
                        for sibling in futures:
                            if not sibling.done():
                                sibling.cancel()
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return outcomes


def _first_failure(outcomes: Sequence[Union[None, Tuple[bool, Any],
                                            TaskFailure]]
                   ) -> Optional[TaskFailure]:
    """The failure to surface in raise mode, deterministically.

    First-submission-first among task errors (they carry a real
    traceback), then timeouts, then pool-breakage losses; fail-fast
    cancellations are consequences, never causes, and are skipped.
    """
    failures = [o for o in outcomes if isinstance(o, TaskFailure)]
    for kinds in (("error",), ("timeout",), ("pool",)):
        chosen = [f for f in failures if f.kind in kinds]
        if chosen:
            return min(chosen, key=lambda f: f.index)
    return None


def _raise_task_error(failure: TaskFailure,
                      outcomes: Sequence[Union[None, Tuple[bool, Any],
                                               TaskFailure]],
                      total: int) -> None:
    if failure.kind == "pool":
        lost = [o for o in outcomes
                if isinstance(o, TaskFailure) and o.kind == "pool"]
        lines = [f"process pool broke (a worker died — OOM-killed or "
                 f"os._exit?) with {len(lost)} task(s) in flight:"]
        lines += [f"  - task {f.index}/{total}: {f.description}"
                  for f in lost]
        raise ParallelTaskError("\n".join(lines)) from failure.error
    message = (f"task {failure.index}/{total} failed: "
               f"{failure.description}")
    if failure.kind == "timeout":
        message = (f"task {failure.index}/{total} timed out: "
                   f"{failure.description}")
    if failure.worker_traceback is not None:
        message += (f"\n--- worker traceback ---\n"
                    f"{failure.worker_traceback}")
    raise ParallelTaskError(message) from failure.error


def parallel_map(fn: Callable[[T], R], items: Sequence[T],
                 jobs: Optional[int] = None,
                 on_result: Optional[Callable[[int, R], None]] = None
                 ) -> List[R]:
    """``[fn(item) for item in items]`` across processes, order kept.

    Args:
        fn: A module-level (picklable) callable.
        items: Picklable work items.
        jobs: Process count; ``None``/``0`` uses every core, ``1`` (or a
            single item) runs inline without spawning workers.
        on_result: Progress hook called as ``on_result(index, result)``
            each time a task *finishes* (completion order, which for
            pool runs is not submission order).  This is what lets the
            sweep engine stream a live done/cached/remaining report
            while a grid runs.

    Raises:
        ParallelTaskError: A task raised; the message names the task
            (``item.describe()`` when available) and, for pool runs,
            includes the worker-side traceback.  The original exception
            is chained as ``__cause__`` whenever it can be shipped
            across the process boundary.  Once a task has failed,
            not-yet-started siblings are cancelled (fail-fast); among
            tasks that did complete, the first-submitted failure wins
            deterministically.  A worker killed outright (pool
            breakage) raises with every in-flight task named and the
            ``BrokenProcessPool`` chained as the cause.
    """
    items = list(items)
    if jobs is None or jobs == 0:
        jobs = default_jobs()
    jobs = max(1, min(jobs, len(items)))
    if jobs == 1 or len(items) <= 1:
        results: List[R] = []
        for index, item in enumerate(items):
            try:
                result = fn(item)
            except ParallelTaskError:
                raise
            except Exception as error:
                raise ParallelTaskError(
                    f"task {index}/{len(items)} failed: "
                    f"{describe_task(item)}") from error
            results.append(result)
            if on_result is not None:
                on_result(index, result)
        return results
    outcomes = _pool_outcomes(fn, items, jobs, on_result,
                              fail_fast=True, timeout=None)
    failure = _first_failure(outcomes)
    if failure is not None:
        _raise_task_error(failure, outcomes, len(items))
    return [payload for __, payload in outcomes]  # type: ignore[misc]


def parallel_map_outcomes(fn: Callable[[T], R], items: Sequence[T],
                          jobs: Optional[int] = None,
                          on_result: Optional[
                              Callable[[int, R], None]] = None,
                          timeout: Optional[float] = None
                          ) -> List[TaskOutcome]:
    """Per-item outcomes instead of an all-or-nothing result list.

    The tolerant sibling of :func:`parallel_map`: every item resolves
    to a :class:`TaskOutcome`, failures included, so callers (the
    experiment service's job worker) can keep surviving results, retry
    ``retriable`` losses and degrade gracefully.  ``timeout`` bounds
    the *batch* wall clock; items still unfinished when it expires
    resolve to ``kind="timeout"`` failures.  Nothing is fail-fast
    cancelled — one bad item must not take the grid down with it.

    Only ``jobs=1`` runs inline in the calling thread.  Any higher
    value keeps process isolation even for a single item: a retry wave
    that shrank to one worker-killing task must break a pool, not take
    the calling service down with an ``os._exit``/OOM kill.
    """
    items = list(items)
    if jobs is None or jobs == 0:
        jobs = default_jobs()
    inline = jobs == 1 or not items
    jobs = max(1, min(jobs, len(items))) if items else 1
    deadline = None if timeout is None else time.monotonic() + timeout
    if inline:
        outcomes: List[TaskOutcome] = []
        for index, item in enumerate(items):
            if deadline is not None and time.monotonic() >= deadline:
                outcomes.append(TaskOutcome(index=index, failure=(
                    TaskFailure(index=index,
                                description=describe_task(item),
                                kind="timeout"))))
                continue
            try:
                result = fn(item)
            except Exception as error:
                outcomes.append(TaskOutcome(index=index, failure=(
                    TaskFailure(index=index,
                                description=describe_task(item),
                                kind="error",
                                worker_traceback=traceback.format_exc(),
                                error=error))))
                continue
            outcomes.append(TaskOutcome(index=index, value=result))
            if on_result is not None:
                on_result(index, result)
        return outcomes
    raw = _pool_outcomes(fn, items, jobs, on_result,
                         fail_fast=False, timeout=timeout)
    wrapped: List[TaskOutcome] = []
    for index, outcome in enumerate(raw):
        if isinstance(outcome, TaskFailure):
            wrapped.append(TaskOutcome(index=index, failure=outcome))
        else:
            assert outcome is not None  # tolerant mode fills all slots
            wrapped.append(TaskOutcome(index=index, value=outcome[1]))
    return wrapped

