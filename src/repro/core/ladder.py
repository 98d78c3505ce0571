"""Speculative threshold ladders (paper Sec. III-C).

The power and delay searches lower a threshold step by step and retrain
at every step from the same start state, so the steps are independent
except for where the stop rule ends the ladder.  :func:`run_ladder`
runs them in waves as wide as this process's core share allows beside
its BLAS threads: the first trial of a wave runs inline, the others in
forked children that pipe back their result.  The results are replayed
in ladder order under the serial stop rule, so the outcome equals the
serial loop's bit for bit; a speculative trial past the stop point is
discarded, exception and all.  Children are forked, not spawned: a
trial closes over the model and the dataset, which a fork shares
instead of pickling.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import traceback
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.cpus import usable_cores

S = TypeVar("S")
T = TypeVar("T")

#: How many ``parallel_map`` pool workers share this process's cores.
_pool_jobs = 1


def share_cores(jobs: int) -> None:
    """Pool-worker initializer: this process is one of ``jobs`` workers."""
    global _pool_jobs
    _pool_jobs = jobs


def _blas_threads() -> int:
    """Threads one BLAS call may run, by OpenBLAS's rule.

    ``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``, else one per
    usable core.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return int(value)
    return usable_cores()


def ladder_width(steps: int) -> int:
    """Trials per wave: how many BLAS thread pools fit in this
    process's share of the usable cores.

    Every trial trains with the process's BLAS threads, so with BLAS at
    its default of one thread per core the width is 1: a second trial
    would oversubscribe the cores.  One (the serial path, no child
    processes) also where ``fork`` is not available.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    share = usable_cores() // (_pool_jobs * _blas_threads())
    return max(1, min(steps, share))


def shippable_exception(error: BaseException) -> Optional[BaseException]:
    """``error`` if it survives a pickle round-trip, else ``None``.

    Exceptions raised in another process travel back inside the result
    payload; an unpicklable one (custom ``__init__`` signatures, open
    handles in args) must not crash the transport a second time.
    """
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return None


class _ChildTraceback(Exception):
    """Cause attached to a re-raised child exception: its traceback."""

    def __str__(self) -> str:
        return self.args[0]


def _child_main(trial, step, conn) -> None:
    # Ctrl-C reaches the whole process group; the parent handles it
    # and terminates its children.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        message = (True, trial(step))
    except Exception as error:
        message = (False, (shippable_exception(error),
                           traceback.format_exc()))
    conn.send(message)


class _Child:
    """One speculative trial in a forked process."""

    def __init__(self, trial, step) -> None:
        context = multiprocessing.get_context("fork")
        self.step = step
        self.conn, sender = context.Pipe(duplex=False)
        # Daemonic: a parent that exits normally terminates it.
        self.process = context.Process(target=_child_main,
                                       args=(trial, step, sender),
                                       daemon=True)
        self.process.start()
        sender.close()  # EOF on ``conn`` once the child is gone

    def result(self):
        try:
            ok, payload = self.conn.recv()
        except EOFError:
            self.process.join()
            raise RuntimeError(
                f"ladder trial at threshold {self.step!r} died with exit "
                f"code {self.process.exitcode} (killed?)") from None
        if ok:
            return payload
        error, text = payload
        if error is None:
            raise RuntimeError(
                f"ladder trial at threshold {self.step!r} raised:\n{text}")
        raise error from _ChildTraceback(text)

    def close(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join()
        self.conn.close()


def run_ladder(trial: Callable[[S], T], steps: Sequence[S],
               passed: Callable[[T], bool]) -> List[T]:
    """``trial`` results in step order, up to the first that fails.

    Returns exactly what the serial loop returns::

        results = []
        for step in steps:
            results.append(trial(step))
            if not passed(results[-1]):
                break

    and raises the exception of the first trial it reaches that
    raises, with its original type (a child's traceback is chained as
    the cause).  All trials of a wave but the first run in children
    forked at the start of the wave, so ``trial(step)`` must return
    the same whichever trials ran before it in its process, or none.
    Children only compute: they exit without running the parent's
    cleanup.  On every exit path that unwinds ``run_ladder``,
    ``KeyboardInterrupt`` included, they are terminated and joined.  A
    parent that exits normally mid-wave (a search on a daemon thread)
    terminates them too.  If the parent process is killed outright,
    each child runs to the end of its own trial and exits when it
    cannot send the result.
    """
    width = ladder_width(len(steps))
    results: List[T] = []
    for start in range(0, len(steps), width):
        wave = steps[start:start + width]
        children: List[_Child] = []
        try:
            for step in wave[1:]:
                children.append(_Child(trial, step))
            results.append(trial(wave[0]))
            for child in children:
                if not passed(results[-1]):
                    break
                results.append(child.result())
        finally:
            for child in children:
                child.close()
        if not passed(results[-1]):
            break
    return results
