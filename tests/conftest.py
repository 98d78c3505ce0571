"""Shared fixtures for the test suite."""

import pytest

from repro import cpus


@pytest.fixture(scope="session")
def smoke_cache_dir(tmp_path_factory):
    """One on-disk artifact cache shared by every smoke-scale test.

    The golden-regression and sweep-engine suites all run the same
    LeNet-5 smoke pipeline; pointing them at a session-wide cache
    directory makes the expensive training/characterization prefix run
    once for the whole session instead of once per test module.
    """
    return tmp_path_factory.mktemp("smoke-artifact-cache")


@pytest.fixture
def cores(monkeypatch):
    """``cores(n)``: this process may use ``n`` CPUs from then on.

    Characterization shards over the process's core share
    (:func:`repro.cpus.core_share`), so ``cores(1)`` runs it inline and
    ``cores(3)`` in three worker processes.
    """
    def use(n):
        monkeypatch.setattr(cpus, "usable_cores", lambda: n)
    return use
