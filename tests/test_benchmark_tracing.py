"""The traced benchmark run patches entry points of ``src/`` by name.

``perfbench/tracing.py`` wraps functions and methods through
``owner.__dict__[attr]``, so moving, renaming or inheriting one of them
breaks only the traced run of the benchmark.  This test installs the
tracer the way that run does, from the unchanged file, and checks that
every patch is undone.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_every_patch():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        # Every timed entry point plus the store and stage wrappers.
        assert len(patches) == len(tracing._SPANS) + 2
        for owner, attr, original in patches:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, \
            f"{owner.__name__}.{attr} was not restored"
