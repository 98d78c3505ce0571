"""Benchmark the artifact cache: cold vs warm pipeline wall-time,
plus serial-vs-sharded per-weight characterization.

One Table I row (LeNet-5) runs twice against the same on-disk cache
directory: the cold run computes and stores every stage, the warm run
resumes all of them.  The warm/cold ratio anchors the perf trajectory
of the stage-graph engine — a regression here means stage keys started
churning or an expensive step escaped the graph.

The characterization-shard benchmark runs the same per-weight power
characterization serially and split across 4 worker processes; the
per-weight RNG seeding must keep the results bit-for-bit identical
while the wall-time drops by at least 2x.
"""

import time

import numpy as np
import pytest
from conftest import run_once

from repro.cells import default_library
from repro.core.pipeline import PowerPruner
from repro.cpus import usable_cores
from repro.experiments.config import NETWORK_SPECS, pipeline_config
from repro.netlist import build_mac_unit
from repro.power import (
    PartialSumBinner,
    TransitionDistribution,
    WeightPowerCharacterizer,
)
from repro.power.binning import BinnedTransitions


def _run_row(scale: str, cache_dir) -> "object":
    config = pipeline_config(NETWORK_SPECS[0], scale)
    return PowerPruner(config, cache_dir=cache_dir).run()


def test_pipeline_cache_cold_vs_warm(benchmark, scale, tmp_path):
    cache_dir = tmp_path / "artifact-cache"

    start = time.perf_counter()
    cold_report = _run_row(scale, cache_dir)
    cold_s = time.perf_counter() - start

    warm_report = run_once(benchmark, _run_row, scale, cache_dir)
    warm_s = benchmark.stats["mean"]

    speedup = cold_s / max(warm_s, 1e-9)
    print(f"\ncold {cold_s:.2f} s -> warm {warm_s:.3f} s "
          f"({speedup:.0f}x)")

    assert warm_report.as_dict() == cold_report.as_dict()
    # Acceptance floor: a warm rerun must be at least 5x faster.
    assert speedup >= 5.0


def _build_characterizer(n_samples: int) -> WeightPowerCharacterizer:
    rng = np.random.default_rng(0)
    stream = rng.integers(-(1 << 18), 1 << 18, 6000)
    binner = PartialSumBinner(n_bins=25).fit(stream, rng=rng)
    return WeightPowerCharacterizer(
        build_mac_unit(), default_library(),
        TransitionDistribution.diagonal(256),
        BinnedTransitions.from_stream(binner, stream),
        n_samples=n_samples,
    )


def test_characterization_shard_speedup(benchmark, scale):
    """Sharding the per-weight stage across 4 processes: >= 2x, and
    bit-for-bit identical to the serial run."""
    cores = usable_cores()
    if cores < 4:
        pytest.skip(f"4-way shard speedup needs >= 4 cores, have "
                    f"{cores} (bitwise equality is covered by "
                    f"tests/test_hw.py on any machine)")
    n_samples = {"smoke": 2500, "ci": 5000}.get(scale, 10000)
    characterizer = _build_characterizer(n_samples)
    weights = list(range(-127, 128))

    start = time.perf_counter()
    serial = characterizer.characterize(weights, seed=0, jobs=1)
    serial_s = time.perf_counter() - start

    sharded = run_once(benchmark, characterizer.characterize, weights,
                       seed=0, jobs=4)
    sharded_s = benchmark.stats["mean"]

    speedup = serial_s / max(sharded_s, 1e-9)
    print(f"\nserial {serial_s:.2f} s -> 4-way sharded "
          f"{sharded_s:.2f} s ({speedup:.1f}x)")

    np.testing.assert_array_equal(serial.power_uw, sharded.power_uw)
    assert serial.energy_scale == sharded.energy_scale
    # Acceptance floor: 4 shards must buy at least a 2x speedup.
    assert speedup >= 2.0
