"""Benchmark the gate-simulation kernels against their reference walks.

Times the two workload shapes every experiment bottoms out in, on the
default MAC unit, under production and under the walk production
replaced (``tests/oracles/sim_kernels.py``):

* **power-shaped** — one stacked before/after evaluation of the full
  MAC plus per-net toggle-rate extraction (the Sec. III-A per-weight
  power characterization inner loop): the per-gate boolean walk vs the
  level program over packed words;
* **DTA-shaped** — per-transition arrival-time propagation through the
  multiplier with a frozen weight, read at the product bus (the
  Sec. III-B per-weight dynamic timing analysis inner loop): the
  two-pass per-net walk vs the streaming ``dynamic_bus_arrivals`` with
  the profiler's reused scratch buffers;
* **characterization-table-shaped** — the full 255-weight power table,
  the pre-megabatch per-weight loop (the frozen oracle) vs the
  one-launch weight-batched path, plus the analogous per-weight vs
  flat-batched timing table.

Every shape asserts bit-for-bit equality before timing anything.
Results (wall times, throughputs, speedups, netlist and program stats)
go to ``BENCH_sim_kernel.json``; the characterization-table section
goes to its own ``BENCH_char_batch.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_sim_kernel.py
    PYTHONPATH=src python benchmarks/bench_sim_kernel.py --quick

The full run enforces the acceptance floors (production >= 5x the
reference walk on the power shape, >= 3x on the DTA shape);
``--quick`` shrinks the batches for CI smoke and only asserts
production is not slower.  The one-launch characterization floor
(>= 3x over the per-weight-loop baseline, serial) holds in *both*
modes.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from oracles import sim_kernels as oracle  # noqa: E402
from repro.cells import default_library  # noqa: E402
from repro.netlist import build_mac_unit  # noqa: E402
from repro.power.binning import (  # noqa: E402
    BinnedTransitions,
    PartialSumBinner,
)
from repro.power.characterization import (  # noqa: E402
    WeightPowerCharacterizer,
)
from repro.power.transitions import TransitionDistribution  # noqa: E402
from repro.sim.dynamic_timing import (  # noqa: E402
    STREAM_WINDOW_SAMPLES,
    dynamic_arrival_times,
    dynamic_bus_arrivals,
)
from repro.sim.logic import (  # noqa: E402
    WORD_DTYPE,
    bus_inputs,
    evaluate_words,
)
from repro.sim.switching import (  # noqa: E402
    paired_toggle_rates,
    paired_toggle_rates_words,
)
from repro.timing.profile import (  # noqa: E402
    WeightDelayProfiler,
    WeightTimingTable,
)

#: Acceptance floors of the full benchmark.
POWER_SPEEDUP_FLOOR = 5.0
DTA_SPEEDUP_FLOOR = 3.0
#: ``--quick`` floor: production must not be slower than the reference.
QUICK_SPEEDUP_FLOOR = 1.0
#: One-launch characterization floor — asserted in both modes: the
#: full-table megabatch path must beat the frozen per-weight-loop
#: baseline by at least this much, serially.
CHAR_SPEEDUP_FLOOR = 3.0


def _best_of(fn, repeats: int) -> float:
    """Best wall time of ``repeats`` runs (least-noise estimator)."""
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _power_feed(n_samples: int, seed: int = 0):
    """A stacked before/after stimulus batch for the full MAC."""
    rng = np.random.default_rng(seed)
    feed = bus_inputs("act", rng.integers(-128, 128, 2 * n_samples), 8)
    feed.update(bus_inputs("w", np.full(2 * n_samples, -105), 8))
    feed.update(bus_inputs(
        "psum", rng.integers(-(1 << 21), 1 << 21, 2 * n_samples), 22))
    return feed


def bench_power_shape(mac, n_samples: int, repeats: int) -> dict:
    """Stacked evaluation + toggle rates, reference vs production."""
    packed = mac.full.packed()
    packed.program  # built outside the timed region, like the pipeline
    feed = _power_feed(n_samples)

    def reference():
        return paired_toggle_rates(oracle.evaluate_reference(packed, feed))

    def production():
        return paired_toggle_rates_words(
            evaluate_words(packed, feed, pair_halves=True))

    np.testing.assert_array_equal(reference(), production())
    reference_s = _best_of(reference, repeats)
    production_s = _best_of(production, repeats)
    return {
        "n_samples": n_samples,
        "reference_s": reference_s,
        "production_s": production_s,
        "reference_samples_per_s": 2 * n_samples / reference_s,
        "production_samples_per_s": 2 * n_samples / production_s,
        "speedup": reference_s / production_s,
    }


def bench_dta_shape(mac, library, n_transitions: int,
                    repeats: int) -> dict:
    """Product-bus arrival times, reference walk vs streaming DTA.

    The production side reuses one word matrix and one arrival slab
    across calls, exactly as :class:`~repro.timing.profile.
    WeightDelayProfiler` does across its chunks and weights (the
    reference walk allocates fresh matrices per call, so the
    allocation cost is part of what production removed).  The dense
    ``dynamic_arrival_times`` is checked against the reference on every
    net before timing, too.
    """
    packed = mac.multiplier.packed()
    packed.program
    rng = np.random.default_rng(1)
    weight_bus = bus_inputs("w", np.full(n_transitions, -105), 8)
    before = bus_inputs("act", rng.integers(-128, 128, n_transitions), 8)
    before.update(weight_bus)
    after = bus_inputs("act", rng.integers(-128, 128, n_transitions), 8)
    after.update(weight_bus)
    nets = np.asarray(
        mac.multiplier.output_bus("product", mac.product_bits),
        dtype=np.int64)
    words_buf = np.zeros(
        (len(packed), 2 * ((n_transitions + 63) // 64)), dtype=WORD_DTYPE)
    slab_buf = np.zeros(
        (len(packed), min(STREAM_WINDOW_SAMPLES, n_transitions)))

    def reference():
        arrivals, __ = oracle.dynamic_arrival_times_reference(
            packed, library, before, after)
        return arrivals[nets]

    def production():
        return dynamic_bus_arrivals(packed, library, before, after, nets,
                                    words_out=words_buf,
                                    arrivals_out=slab_buf)

    ref_arrivals, ref_toggled = oracle.dynamic_arrival_times_reference(
        packed, library, before, after)
    dense_arrivals, dense_toggled = dynamic_arrival_times(
        packed, library, before, after)
    np.testing.assert_array_equal(ref_arrivals, dense_arrivals)
    np.testing.assert_array_equal(ref_toggled, dense_toggled)
    np.testing.assert_array_equal(ref_arrivals[nets], production())

    reference_s = _best_of(reference, repeats)
    production_s = _best_of(production, repeats)
    return {
        "n_transitions": n_transitions,
        "reference_s": reference_s,
        "production_s": production_s,
        "reference_transitions_per_s": n_transitions / reference_s,
        "production_transitions_per_s": n_transitions / production_s,
        "speedup": reference_s / production_s,
    }


def _build_characterizer(n_samples: int) -> WeightPowerCharacterizer:
    """Paper-shaped smoke characterization setup (50 psum bins)."""
    rng = np.random.default_rng(0)
    stream = rng.integers(-(1 << 18), 1 << 18, 6000)
    binner = PartialSumBinner(n_bins=50).fit(stream, rng=rng)
    return WeightPowerCharacterizer(
        build_mac_unit(), default_library(),
        TransitionDistribution.diagonal(256),
        BinnedTransitions.from_stream(binner, stream),
        n_samples=n_samples,
    )


def bench_char_table(n_samples: int, n_transitions: int,
                     repeats: int) -> dict:
    """Full characterization tables: per-weight loop vs one launch."""
    char = _build_characterizer(n_samples)
    weights = list(range(-127, 128))
    seed = 2023

    baseline = oracle.prebatch_reference_energies(char, weights, seed)
    per_weight = char.dynamic_energies_fj(weights, seed)
    batched = char.dynamic_energies_fj_batched(weights, seed)
    np.testing.assert_array_equal(per_weight, baseline)
    np.testing.assert_array_equal(batched, baseline)

    loop_s = _best_of(
        lambda: oracle.prebatch_reference_energies(char, weights, seed),
        repeats)
    per_weight_s = _best_of(
        lambda: char.dynamic_energies_fj(weights, seed), repeats)
    batched_s = _best_of(
        lambda: char.dynamic_energies_fj_batched(weights, seed),
        repeats)

    profiler = WeightDelayProfiler(char.mac, char.library)
    timing_weights = list(range(-127, 128, 4))

    def timing_loop():
        return WeightTimingTable.characterize(
            profiler, timing_weights, n_transitions=n_transitions,
            seed=seed, batch_weights=1)

    def timing_batched():
        return WeightTimingTable.characterize(
            profiler, timing_weights, n_transitions=n_transitions,
            seed=seed)

    loop_table = timing_loop()
    batched_table = timing_batched()
    np.testing.assert_array_equal(loop_table.max_delay_ps,
                                  batched_table.max_delay_ps)
    np.testing.assert_array_equal(loop_table.combo_weight,
                                  batched_table.combo_weight)
    np.testing.assert_array_equal(loop_table.combo_delay_ps,
                                  batched_table.combo_delay_ps)
    assert loop_table.time_scale == batched_table.time_scale

    timing_loop_s = _best_of(timing_loop, repeats)
    timing_batched_s = _best_of(timing_batched, repeats)

    return {
        "power": {
            "n_weights": len(weights),
            "n_samples": n_samples,
            "per_weight_loop_s": loop_s,
            "per_weight_oracle_s": per_weight_s,
            "one_launch_s": batched_s,
            "weights_per_s": len(weights) / batched_s,
            "speedup_one_launch": loop_s / batched_s,
            "bitwise_equal": True,
        },
        "timing": {
            "n_weights": len(timing_weights),
            "n_transitions": n_transitions,
            "per_weight_loop_s": timing_loop_s,
            "one_launch_s": timing_batched_s,
            "speedup_one_launch": timing_loop_s / timing_batched_s,
            "bitwise_equal": True,
        },
    }


def run(quick: bool, json_path: Path, repeats: int,
        char_json_path: Path = Path("BENCH_char_batch.json")) -> dict:
    mac = build_mac_unit()
    library = default_library()
    n_power = 2000 if quick else 10000
    n_dta = 1024 if quick else 8192
    n_char = 800 if quick else 1500
    n_char_transitions = 200 if quick else 400

    platform_block = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
    netlists = {"mac_full": mac.full.packed(),
                "multiplier": mac.multiplier.packed()}
    netlist_stats = {name: packed.schedule.stats()
                     for name, packed in netlists.items()}
    program_stats = {name: packed.program.stats()
                     for name, packed in netlists.items()}
    full_stats = netlist_stats["mac_full"]
    print(f"MAC netlist: {full_stats['n_gates']} gates / "
          f"{full_stats['n_nets']} nets, depth {full_stats['n_levels']} "
          f"levels, {full_stats['n_groups']} type-groups, "
          f"{program_stats['mac_full']['n_binop_runs']} binop runs")

    power = bench_power_shape(mac, n_power, repeats)
    print(f"power-shaped ({n_power} stacked pairs): "
          f"reference {power['reference_s'] * 1e3:8.1f} ms | "
          f"production {power['production_s'] * 1e3:7.1f} ms "
          f"({power['speedup']:.1f}x)")

    dta = bench_dta_shape(mac, library, n_dta, repeats)
    print(f"DTA-shaped   ({n_dta} transitions):   "
          f"reference {dta['reference_s'] * 1e3:8.1f} ms | "
          f"production {dta['production_s'] * 1e3:7.1f} ms "
          f"({dta['speedup']:.1f}x)")

    char = bench_char_table(n_char, n_char_transitions, repeats)
    char_power = char["power"]
    char_timing = char["timing"]
    print(f"char-table power  ({char_power['n_weights']} weights x "
          f"{n_char} samples): per-weight loop "
          f"{char_power['per_weight_loop_s'] * 1e3:8.1f} ms | "
          f"one-launch {char_power['one_launch_s'] * 1e3:7.1f} ms "
          f"({char_power['speedup_one_launch']:.1f}x)")
    print(f"char-table timing ({char_timing['n_weights']} weights x "
          f"{n_char_transitions} transitions): per-weight loop "
          f"{char_timing['per_weight_loop_s'] * 1e3:8.1f} ms | "
          f"one-launch {char_timing['one_launch_s'] * 1e3:7.1f} ms "
          f"({char_timing['speedup_one_launch']:.1f}x)")

    char_payload = {
        "benchmark": "char_batch",
        "quick": quick,
        "repeats": repeats,
        "platform": platform_block,
        "power_table": char_power,
        "timing_table": char_timing,
        "floors": {"power_speedup": CHAR_SPEEDUP_FLOOR},
    }
    char_json_path.write_text(json.dumps(char_payload, indent=2) + "\n")
    print(f"char-batch results written to {char_json_path}")

    power_floor = QUICK_SPEEDUP_FLOOR if quick else POWER_SPEEDUP_FLOOR
    dta_floor = QUICK_SPEEDUP_FLOOR if quick else DTA_SPEEDUP_FLOOR
    payload = {
        "benchmark": "sim_kernel",
        "quick": quick,
        "repeats": repeats,
        "platform": platform_block,
        "netlist": netlist_stats,
        "program": program_stats,
        "power_shape": power,
        "dta_shape": dta,
        "floors": {"power_speedup": power_floor,
                   "dta_speedup": dta_floor},
    }
    json_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"results written to {json_path}")

    failures = []
    if power["speedup"] < power_floor:
        failures.append(
            f"power-shape speedup {power['speedup']:.2f}x below the "
            f"{power_floor:g}x floor")
    if dta["speedup"] < dta_floor:
        failures.append(
            f"DTA-shape speedup {dta['speedup']:.2f}x below the "
            f"{dta_floor:g}x floor")
    if char_power["speedup_one_launch"] < CHAR_SPEEDUP_FLOOR:
        failures.append(
            f"one-launch characterization speedup "
            f"{char_power['speedup_one_launch']:.2f}x below the "
            f"{CHAR_SPEEDUP_FLOOR:g}x floor")
    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))
    print("OK: all speedup floors met")
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the gate-simulation kernels against "
                    "their reference walks on the default MAC")
    parser.add_argument("--quick", action="store_true",
                        help="small batches for CI smoke; only asserts "
                             "production is not slower than the "
                             "reference")
    parser.add_argument("--json", type=Path,
                        default=Path("BENCH_sim_kernel.json"),
                        metavar="FILE",
                        help="output path for the machine-readable "
                             "results (default: %(default)s)")
    parser.add_argument("--char-json", type=Path,
                        default=Path("BENCH_char_batch.json"),
                        metavar="FILE",
                        help="output path for the characterization-"
                             "table results (default: %(default)s)")
    parser.add_argument("--repeats", type=int, default=3, metavar="N",
                        help="timing repeats; best-of-N is reported "
                             "(default: %(default)s)")
    args = parser.parse_args(argv)
    run(args.quick, args.json, max(1, args.repeats),
        char_json_path=args.char_json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
