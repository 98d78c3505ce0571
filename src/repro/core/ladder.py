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

import os
from typing import Callable, List, Sequence, TypeVar

from repro import cpus

S = TypeVar("S")
T = TypeVar("T")


def _blas_threads() -> int:
    """Threads one BLAS call may run, by OpenBLAS's rule.

    ``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``, else one per
    usable core.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return int(value)
    return cpus.usable_cores()


def ladder_width(steps: int) -> int:
    """Trials per wave: how many BLAS thread pools fit in this
    process's share of the usable cores.

    Every trial trains with the process's BLAS threads, so with BLAS at
    its default of one thread per core the width is 1: a second trial
    would oversubscribe the cores.  One (the serial path, no child
    processes) also where ``fork`` is not available.
    """
    return max(1, min(steps, cpus.core_share() // _blas_threads()))


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
        children: List[cpus.ForkedCall] = []
        try:
            for step in wave[1:]:
                children.append(cpus.ForkedCall(
                    trial, step, f"ladder trial at threshold {step!r}"))
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
