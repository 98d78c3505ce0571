"""How many CPUs this process may use, and forked children to use them.

Imports only the standard library, so every layer can ask without an
import cycle.  A ``parallel_map`` pool worker is one of several
processes on the usable cores; :func:`core_share` is its part of them,
which the threshold ladders and the per-weight characterization spend.
No option sets it: it comes from what the process can observe.

Both spend it on :class:`ForkedCall` children, not on a process pool:
a fork shares the caller's model, dataset or netlist instead of
pickling them, and the result comes back through a pipe read on the
calling thread.
"""

import multiprocessing
import os
import pickle
import signal
import traceback
from typing import Callable, List, Optional, Sequence, TypeVar

S = TypeVar("S")
T = TypeVar("T")

#: How many ``parallel_map`` pool workers share this process's cores.
_pool_jobs = 1


def usable_cores() -> int:
    """CPUs this process may run on: its affinity mask, not the host's."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # no affinity API (macOS, Windows)
        return max(1, os.cpu_count() or 1)


def share_cores(jobs: int) -> None:
    """Pool-worker initializer: this process is one of ``jobs`` workers."""
    global _pool_jobs
    _pool_jobs = jobs


def core_share() -> int:
    """This process's share of the usable cores (at least one).

    One where ``fork`` is not available: there is no :class:`ForkedCall`
    to spend the rest on.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return max(1, usable_cores() // _pool_jobs)


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


def _child_main(fn, item, conn) -> None:
    # Ctrl-C reaches the whole process group; the parent handles it
    # and terminates its children.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        message = (True, fn(item))
    except Exception as error:
        message = (False, (shippable_exception(error),
                           traceback.format_exc()))
    conn.send(message)


class ForkedCall:
    """``fn(item)`` in a forked process that pipes back its result.

    ``label`` names the call in the errors :meth:`result` raises.
    """

    def __init__(self, fn: Callable[[S], T], item: S, label: str) -> None:
        context = multiprocessing.get_context("fork")
        self.label = label
        self.conn, sender = context.Pipe(duplex=False)
        # Daemonic: a parent that exits normally terminates it.
        self.process = context.Process(target=_child_main,
                                       args=(fn, item, sender),
                                       daemon=True)
        self.process.start()
        sender.close()  # EOF on ``conn`` once the child is gone

    def result(self):
        """``fn(item)``, or its exception re-raised with its type."""
        try:
            ok, payload = self.conn.recv()
        except EOFError:
            self.process.join()
            raise RuntimeError(
                f"{self.label} died with exit code "
                f"{self.process.exitcode} (killed?)") from None
        if ok:
            return payload
        error, text = payload
        if error is None:
            raise RuntimeError(f"{self.label} raised:\n{text}")
        raise error from _ChildTraceback(text)

    def close(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join()
        self.conn.close()


def fork_map(fn: Callable[[S], T], items: Sequence[S]) -> List[T]:
    """``[fn(item) for item in items]``, the items computed at once.

    The first item runs inline, each other one in a :class:`ForkedCall`
    forked before it, so ``fn`` must not depend on what ran before it
    in its process.  One item forks nothing.  The first exception, in
    item order, is raised with its original type, and every child is
    terminated and joined on every exit path.
    """
    children: List[ForkedCall] = []
    try:
        for index, item in enumerate(items[1:], start=1):
            children.append(ForkedCall(fn, item,
                                       f"{fn.__name__} on item {index}"))
        results = [fn(item) for item in items[:1]]
        return results + [child.result() for child in children]
    finally:
        for child in children:
            child.close()
