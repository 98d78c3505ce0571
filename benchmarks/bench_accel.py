"""Benchmark the vectorized accelerator power model.

:meth:`~repro.systolic.energy.ArrayPowerModel.layer_power` reduces a
whole tile schedule with one ``np.bincount`` over the stationary weight
values; the original implementation (kept as an oracle in
``tests/oracles/array_power.py``) loops over tiles and fancy-indexes
the per-PE dynamic LUT per tile.  This benchmark pits the two against
each other on realistic pruned layer shapes across several array
geometries.  The reference's tile objects are built once, outside the
timed region, so it pays for its loop and not for listing the grid.
Before timing anything it asserts that

* the one-shot bincount and the oracle's per-tile counting loop produce
  **bit-equal** :class:`~repro.systolic.energy.ScheduleCounts` (the
  counts are exact integers in float64), and so bit-identical power,
  and
* the vectorized result agrees with the reference oracle to float
  round-off (the oracle sums per-tile in a different association
  order).

The characterization table is synthetic — no gate-level simulation —
so the benchmark isolates the array-model reduction itself.  Results
go to ``BENCH_accel.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_accel.py
    PYTHONPATH=src python benchmarks/bench_accel.py --quick

Each repeat times one pass of each implementation over the workload,
back to back (alternating which goes first), so a drift in the
machine's speed hits both sides of a pair alike.  The floor applies to
the median of the per-pair speedups: the full run requires the
vectorized path to be >= 2x the reference loop; ``--quick`` runs fewer
pairs for CI smoke and only asserts the vectorized path is not slower.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from oracles import array_power as oracle  # noqa: E402
from repro.power.characterization import WeightPowerTable  # noqa: E402
from repro.systolic import (  # noqa: E402
    OPTIMIZED_HW,
    STANDARD_HW,
    ArrayPowerModel,
    MacPowerParams,
    SystolicConfig,
    schedule_matmul,
    schedule_value_counts,
)

#: A small CNN's layer mix: (K, N, M) matmul shapes.
WORKLOADS = (
    (75, 16, 1024),    # stem conv
    (144, 32, 256),    # mid conv
    (288, 64, 64),     # late conv
    (256, 10, 1),      # classifier
)

GEOMETRIES = (16, 32, 64)


def synthetic_table(rng: np.random.Generator) -> WeightPowerTable:
    """A full-range characterization table with plausible magnitudes."""
    weights = np.arange(-127, 128)
    dynamic = 300.0 + 2.5 * np.abs(weights) + 40.0 * rng.random(
        weights.size)
    return WeightPowerTable(weights=weights,
                            power_uw=dynamic + 12.0,
                            dynamic_uw=dynamic,
                            leakage_uw=12.0,
                            clock_period_ps=450.0)


def build_cases(rng: np.random.Generator):
    """(model, schedule, weights, tiles) per geometry x layer shape."""
    table = synthetic_table(rng)
    cases = []
    for size in GEOMETRIES:
        config = SystolicConfig(rows=size, cols=size)
        model = ArrayPowerModel(config, MacPowerParams(table=table))
        for k, n, m in WORKLOADS:
            weights = rng.integers(-127, 128, (k, n))
            weights[rng.random(weights.shape) < 0.5] = 0  # pruned net
            schedule = schedule_matmul(k, n, m, config)
            cases.append((model, schedule, weights,
                          oracle.tiles_of(schedule)))
    return cases


def verify(cases) -> float:
    """Bit-equality and oracle agreement; returns the worst relative
    deviation against the reference."""
    worst = 0.0
    for model, schedule, weights, tiles in cases:
        fast = schedule_value_counts(schedule, weights)
        slow = oracle.schedule_value_counts_loop(schedule, weights)
        assert np.array_equal(fast.weight_counts, slow.weight_counts)
        assert fast.tile_pe_cycles == slow.tile_pe_cycles
        assert fast.idle_row_pe_cycles == slow.idle_row_pe_cycles
        assert fast.unused_col_pe_cycles == slow.unused_col_pe_cycles
        assert fast.total_cycles == slow.total_cycles
        for variant in (STANDARD_HW, OPTIMIZED_HW):
            vec = model.layer_power(schedule, weights, variant)
            loop = oracle.layer_power_loop(model, schedule, weights,
                                           variant)
            assert vec == loop, "vectorized != per-tile counting loop"
            ref = oracle.layer_power_reference(model, schedule, weights,
                                               variant, tiles=tiles)
            for got, want in ((vec.dynamic_uw, ref.dynamic_uw),
                              (vec.leakage_uw, ref.leakage_uw)):
                assert np.isclose(got, want, rtol=1e-9), \
                    f"vectorized {got} vs reference {want}"
                if want:
                    worst = max(worst, abs(got - want) / abs(want))
    return worst


def bench(cases, repeats: int):
    """Per-pair wall times of each implementation over the workload."""
    def vectorized(model, schedule, weights, tiles):
        return model.layer_power(schedule, weights, OPTIMIZED_HW)

    def reference(model, schedule, weights, tiles):
        return oracle.layer_power_reference(model, schedule, weights,
                                            OPTIMIZED_HW, tiles=tiles)

    def run_once(fn):
        start = time.perf_counter()
        for case in cases:
            fn(*case)
        return time.perf_counter() - start

    # Warm-up, then one interleaved pair per repeat.
    run_once(vectorized)
    run_once(reference)
    pairs = []
    for repeat in range(repeats):
        if repeat % 2:
            ref_s = run_once(reference)
            vec_s = run_once(vectorized)
        else:
            vec_s = run_once(vectorized)
            ref_s = run_once(reference)
        pairs.append((vec_s, ref_s))
    ratios = [ref_s / vec_s for vec_s, ref_s in pairs]
    quartiles = statistics.quantiles(ratios, n=4)
    return {
        "vectorized_s": statistics.median(vec for vec, __ in pairs),
        "reference_s": statistics.median(ref for __, ref in pairs),
        "speedup_median": statistics.median(ratios),
        "speedup_q1": quartiles[0],
        "speedup_q3": quartiles[2],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: fewer repeats, floor relaxed "
                             "to 'not slower'")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="result file (default: BENCH_accel.json "
                             "next to this script)")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(0)
    cases = build_cases(rng)
    worst = verify(cases)
    print(f"verified: counts bit-equal, vectorized == loop, "
          f"oracle agreement worst rel dev {worst:.2e}")

    repeats = 11 if args.quick else 51
    times = bench(cases, repeats)
    speedup = times["speedup_median"]
    print(f"layer_power (bincount):   {times['vectorized_s'] * 1e3:8.2f}"
          f" ms/workload (median)")
    print(f"layer_power_reference:    {times['reference_s'] * 1e3:8.2f}"
          f" ms/workload (median)")
    print(f"speedup: median {speedup:.2f}x (quartiles "
          f"{times['speedup_q1']:.2f}-{times['speedup_q3']:.2f}x) over "
          f"{repeats} interleaved pairs of {len(cases)} (geometry x "
          f"layer) cases")

    floor = 1.0 if args.quick else 2.0
    payload = {
        "benchmark": "accel_layer_power",
        "quick": args.quick,
        "repeats": repeats,
        "cases": len(cases),
        "geometries": list(GEOMETRIES),
        "workloads": [list(w) for w in WORKLOADS],
        "times": times,
        "speedup": speedup,
        "floor": floor,
        "floor_met": speedup >= floor,
        "worst_rel_dev_vs_reference": worst,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__,
        },
    }
    out = Path(args.json) if args.json else \
        Path(__file__).resolve().parent / "BENCH_accel.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"results written to {out}")
    # Recorded first, so a run that misses the floor still leaves its
    # numbers behind.
    assert speedup >= floor, (
        f"vectorized layer power must be >= {floor}x the reference "
        f"loop, measured a median of {speedup:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
