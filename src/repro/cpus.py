"""How many CPUs this process may use.

Imports only :mod:`os`, so every layer can ask without an import cycle.
"""

import os


def usable_cores() -> int:
    """CPUs this process may run on: its affinity mask, not the host's."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # no affinity API (macOS, Windows)
        return max(1, os.cpu_count() or 1)
