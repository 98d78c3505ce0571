"""Per-weight-value power characterization (paper Sec. III-A3, Fig. 2).

For every quantized weight value, the weight input of the MAC is frozen
and the unit is simulated under combined activation/partial-sum transition
stimuli sampled from the measured distributions (10 000 samples in the
paper).  The resulting switching activity priced with the cell library
gives the weight's average power.

A single global ``energy_scale`` is calibrated so the most expensive
weight matches the paper's Fig. 2 peak (the quantized weight -105 at
1066 µW); everything else — the shape of the curve, the zero-weight
minimum, the power ordering — is produced by the gate-level simulation.

Every weight value samples its stimulus from its own child RNG keyed on
``(seed, weight)``, which makes the table independent of the
characterization order and lets ``characterize`` shard the per-weight
simulations over the process's core share with bit-for-bit identical
results (calibration happens after the shards merge).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.cells.library import CellLibrary
from repro.cpus import core_share, fork_map
from repro.netlist.mac import MacUnit
from repro.power.binning import BinnedTransitions
from repro.power.estimator import PowerEstimator
from repro.power.transitions import (
    TransitionDistribution,
    code_to_value,
)
from repro.sim.logic import bus_inputs, evaluate_words, evaluate_words_batched
from repro.sim.switching import (
    paired_toggle_rates_words,
    paired_toggle_rates_words_batched,
)

#: Fig. 2 anchor: the most power-hungry weight value burns ~1066 µW.
ANCHOR_MAX_POWER_UW = 1066.0

#: Hard memory ceiling (bytes) for the packed word matrix of one
#: megabatch launch — ``nets x (weights_per_chunk x words_per_weight)``
#: uint64.  The automatic chunk size never exceeds this, so the paper
#: scale (10 000 samples x 255 weights, ~0.7 GB if launched whole)
#: chunks instead of exhausting RAM.
BATCH_MEMORY_BUDGET_BYTES = 128 << 20

#: Preferred launch footprint (bytes) for automatic chunk sizing.
#: Bigger launches amortize schedule-dispatch overhead, but once the
#: word matrix outgrows the last-level cache every level of the
#: schedule walk streams from DRAM and throughput *drops* — measured on
#: the smoke netlist, chunks around this size are ~2x faster end-to-end
#: than RAM-budget-sized ones.  Explicit ``batch_weights`` overrides
#: are clamped only by :data:`BATCH_MEMORY_BUDGET_BYTES`.
BATCH_TARGET_BYTES = 8 << 20


def resolve_batch_weights(batch_weights: Optional[int], n_weights: int,
                          bytes_per_weight: int,
                          budget_bytes: int = BATCH_MEMORY_BUDGET_BYTES,
                          target_bytes: int = BATCH_TARGET_BYTES
                          ) -> int:
    """Weights per megabatch launch under the memory budget.

    Args:
        batch_weights: The knob: ``None``/``0`` sizes automatically
            (cache-friendly launches of ~``target_bytes``), ``1``
            disables batching (per-weight loop), ``N`` forces N-weight
            chunks (capped by the memory budget).
        n_weights: Total weights to characterize.
        bytes_per_weight: Dominant per-weight footprint of one launch
            (the weight's share of the packed word matrix).
        budget_bytes: Hard memory ceiling for the dominant allocation.
        target_bytes: Preferred launch footprint for automatic sizing.
    """
    bytes_per_weight = max(1, bytes_per_weight)
    cap = max(1, budget_bytes // bytes_per_weight)
    if batch_weights is None or batch_weights == 0:
        batch_weights = max(1, target_bytes // bytes_per_weight)
    return max(1, min(int(batch_weights), cap, n_weights))


def weight_seed_sequence(seed: int, weight: int) -> np.random.SeedSequence:
    """One independent RNG seed per characterized weight value.

    The child entropy is keyed on the *weight value* (not its position
    in the characterization order), so the stimulus drawn for a weight
    is identical no matter which other weights are characterized, in
    what order, or how the weight set is chunked across processes —
    the property the sharded characterization relies on for bit-for-bit
    equality with a serial run.
    """
    return np.random.SeedSequence(
        [int(seed) & 0xFFFFFFFF, int(weight) & 0xFFFFFFFF])


def _chunk_energies(task: Tuple["WeightPowerCharacterizer",
                                np.ndarray, int, Optional[int]]
                    ) -> np.ndarray:
    """One shard of the characterization, inline or in a forked child.

    Process sharding composes on top of weight batching: each shard
    runs its own slice of the weight set through the one-launch megabatch
    path (or the per-weight loop when ``batch_weights == 1``).
    """
    characterizer, weights, seed, batch_weights = task
    if batch_weights == 1:
        return characterizer.dynamic_energies_fj(weights, seed)
    return characterizer.dynamic_energies_fj_batched(
        weights, seed, batch_weights=batch_weights)


@dataclass
class WeightPowerTable:
    """Average MAC power per quantized weight value, in microwatts.

    Attributes:
        weights: Sorted array of characterized weight values.
        power_uw: Total (dynamic + leakage) average power per weight.
        dynamic_uw: Dynamic component per weight.
        leakage_uw: Leakage of one MAC (weight independent).
        clock_period_ps: Clock period the powers refer to.
        energy_scale: Calibration factor that was applied.
    """

    weights: np.ndarray
    power_uw: np.ndarray
    dynamic_uw: np.ndarray
    leakage_uw: float
    clock_period_ps: float
    energy_scale: float = 1.0

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.int64)
        self.power_uw = np.asarray(self.power_uw, dtype=np.float64)
        self.dynamic_uw = np.asarray(self.dynamic_uw, dtype=np.float64)
        if self.weights.shape != self.power_uw.shape:
            raise ValueError("weights/power arrays must align")
        order = np.argsort(self.weights)
        self.weights = self.weights[order]
        self.power_uw = self.power_uw[order]
        self.dynamic_uw = self.dynamic_uw[order]

    def power_of(self, weight: int) -> float:
        """Average power of one weight value in µW."""
        idx = np.searchsorted(self.weights, weight)
        if idx >= self.weights.size or self.weights[idx] != weight:
            raise KeyError(f"weight {weight} not characterized")
        return float(self.power_uw[idx])

    def dynamic_of(self, weight: int, interpolate: bool = False) -> float:
        """Dynamic power of one weight value in µW.

        Args:
            weight: Weight value to look up.
            interpolate: When the exact value was not characterized
                (reduced-scale runs characterize a subset), linearly
                interpolate between the nearest characterized neighbours
                instead of raising.
        """
        idx = np.searchsorted(self.weights, weight)
        if (idx < self.weights.size and self.weights[idx] == weight):
            return float(self.dynamic_uw[idx])
        if not interpolate:
            raise KeyError(f"weight {weight} not characterized")
        return float(np.interp(weight, self.weights, self.dynamic_uw))

    def as_dict(self) -> Dict[int, float]:
        """Plain ``{weight: power_uw}`` mapping."""
        return {int(w): float(p)
                for w, p in zip(self.weights, self.power_uw)}

    def select_below(self, threshold_uw: float,
                     always_keep: Sequence[int] = (0,)) -> np.ndarray:
        """Weight values whose power is at most ``threshold_uw``.

        ``always_keep`` values are retained regardless (the paper always
        keeps zero: it is both the pruning target and the cheapest value).
        """
        mask = self.power_uw <= threshold_uw
        keep = np.isin(self.weights, np.asarray(always_keep, dtype=np.int64))
        return self.weights[mask | keep]

    def count_below(self, threshold_uw: float) -> int:
        """Number of weight values at or below a power threshold."""
        return int((self.power_uw <= threshold_uw).sum())

    # ------------------------------------------------------------------
    # persistence (characterization is expensive; cache it)
    # ------------------------------------------------------------------
    def save(self, path: Path) -> None:
        """Write the table as JSON."""
        payload = {
            "weights": self.weights.tolist(),
            "power_uw": self.power_uw.tolist(),
            "dynamic_uw": self.dynamic_uw.tolist(),
            "leakage_uw": self.leakage_uw,
            "clock_period_ps": self.clock_period_ps,
            "energy_scale": self.energy_scale,
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: Path) -> "WeightPowerTable":
        """Read a table written by :meth:`save`."""
        payload = json.loads(Path(path).read_text())
        return cls(
            weights=np.asarray(payload["weights"]),
            power_uw=np.asarray(payload["power_uw"]),
            dynamic_uw=np.asarray(payload["dynamic_uw"]),
            leakage_uw=payload["leakage_uw"],
            clock_period_ps=payload["clock_period_ps"],
            energy_scale=payload["energy_scale"],
        )


class WeightPowerCharacterizer:
    """Runs the Sec. III-A per-weight power characterization.

    Args:
        mac: MAC unit netlists.
        library: Cell library.
        act_transitions: Activation transition distribution (256 codes).
        psum_transitions: Binned partial-sum transition source.
        clock_period_ps: MAC clock period.
        n_samples: Combined transitions sampled per weight (paper: 10 000).
        calibrate_to_uw: Pin the maximum characterized power to this value
            (``None`` disables calibration).
    """

    def __init__(self, mac: MacUnit, library: CellLibrary,
                 act_transitions: TransitionDistribution,
                 psum_transitions: BinnedTransitions,
                 clock_period_ps: float = 180.0,
                 n_samples: int = 10000,
                 calibrate_to_uw: Optional[float] = ANCHOR_MAX_POWER_UW,
                 ) -> None:
        if act_transitions.n_codes != (1 << mac.act_bits):
            raise ValueError("activation distribution width mismatch")
        self.mac = mac
        self.library = library
        self.act_transitions = act_transitions
        self.psum_transitions = psum_transitions
        self.n_samples = n_samples
        self.calibrate_to_uw = calibrate_to_uw
        self.estimator = PowerEstimator(library, clock_period_ps)
        self._packed, self._energies = self.estimator.packed_energies(
            mac.full)

    def _sample_stimulus(self, rng: np.random.Generator
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """One weight's ``(acts, psums)`` stimulus, stacked before/after.

        Draw order (activations first, then partial sums) is part of
        the bit-for-bit contract: every path — per-weight, batched,
        sharded — consumes the weight's child generator identically.
        """
        n = self.n_samples
        code_from, code_to = self.act_transitions.sample(n, rng)
        acts = code_to_value(np.concatenate([code_from, code_to]),
                             self.mac.act_bits)
        psum_from, psum_to = self.psum_transitions.sample_values(n, rng)
        return acts, np.concatenate([psum_from, psum_to])

    def _dynamic_energy_fj(self, weight: int, rng: np.random.Generator
                           ) -> float:
        """Mean switching energy per cycle for one frozen weight value.

        The pre- and post-transition stimuli are evaluated as one
        stacked batch — a single pass over the netlist instead of two —
        through the bit-packed levelized kernel, and reduced straight
        from packed words to per-net toggle rates via popcount
        (bit-for-bit equal to the boolean-matrix path).  The frozen
        weight bus is spliced in as per-wire scalars (broadcast at
        input-matrix build), not re-expanded to ``2 n`` copies per
        weight.
        """
        acts, psums = self._sample_stimulus(rng)
        feed = bus_inputs("act", acts, self.mac.act_bits)
        feed.update(bus_inputs(
            "w", np.int64(weight), self.mac.weight_bits))
        feed.update(bus_inputs("psum", psums, self.mac.psum_bits))

        values = evaluate_words(self._packed, feed, pair_halves=True)
        rates = paired_toggle_rates_words(values)
        return float(np.dot(rates, self._energies))

    def dynamic_energies_fj(self, weights: Sequence[int],
                            seed: int) -> np.ndarray:
        """Raw (uncalibrated) per-weight switching energies.

        Each weight draws its stimulus from its own child RNG (see
        :func:`weight_seed_sequence`), so the result for a weight is a
        pure function of ``(seed, weight)`` — independent of ordering,
        chunking, and of which other weights are in the set.

        This is the per-weight oracle the one-launch megabatch path
        (:meth:`dynamic_energies_fj_batched`) is equivalence-tested
        against.
        """
        return np.array([
            self._dynamic_energy_fj(
                int(w),
                np.random.default_rng(weight_seed_sequence(seed, int(w))))
            for w in weights
        ])

    def dynamic_energies_fj_batched(self, weights: Sequence[int],
                                    seed: int,
                                    batch_weights: Optional[int] = None
                                    ) -> np.ndarray:
        """One-launch (megabatch) twin of :meth:`dynamic_energies_fj`.

        Per-weight stimuli still come from the same ``(seed, weight)``
        child RNGs — drawn per weight, bit-for-bit as before — but the
        packed evaluation stacks every weight's stimulus along the
        sample axis and runs the level program **once** per chunk,
        amortizing the schedule-dispatch and input-packing overhead the
        per-weight loop pays 2^16-scale times over.  Toggle energies
        reduce per weight segment through the segmented popcount
        without materializing any dense per-net matrix.

        Results are bit-for-bit identical to the per-weight path for
        any ``batch_weights`` chunking — word-wise gate ops never mix
        samples, each segment's packed layout matches its standalone
        evaluation, and the final per-weight dot products run over the
        same contiguous float vectors.

        Args:
            weights: Weight values, characterized in the given order.
            seed: Stimulus seed (same meaning as the per-weight path).
            batch_weights: Weights per kernel launch; ``None``/``0``
                sizes chunks automatically from
                :data:`BATCH_MEMORY_BUDGET_BYTES`.
        """
        weights = [int(w) for w in weights]
        n = self.n_samples
        act_bits = self.mac.act_bits
        psum_bits = self.mac.psum_bits
        # Dominant footprint: the (nets, weights x words-per-weight)
        # uint64 word matrix of one launch.
        words_per_weight = 2 * (-(-n // 64))
        bytes_per_weight = len(self._packed) * words_per_weight * 8
        chunk_size = resolve_batch_weights(batch_weights, len(weights),
                                           bytes_per_weight)

        energies = np.empty(len(weights), dtype=np.float64)
        for start in range(0, len(weights), chunk_size):
            chunk = weights[start:start + chunk_size]
            acts = np.empty((len(chunk), 2 * n), dtype=np.int64)
            psums = np.empty((len(chunk), 2 * n), dtype=np.int64)
            for k, weight in enumerate(chunk):
                rng = np.random.default_rng(
                    weight_seed_sequence(seed, weight))
                acts[k], psums[k] = self._sample_stimulus(rng)

            feed = bus_inputs("act", acts, act_bits)
            # Per-segment frozen weight bus: an (n_weights, 1) column
            # broadcasts each weight's bits across its whole segment.
            feed.update(bus_inputs(
                "w", np.asarray(chunk, dtype=np.int64)[:, None],
                self.mac.weight_bits))
            feed.update(bus_inputs("psum", psums, psum_bits))

            values = evaluate_words_batched(self._packed, feed,
                                            pair_halves=True)
            rates = paired_toggle_rates_words_batched(values)
            for k in range(len(chunk)):
                energies[start + k] = float(
                    np.dot(rates[k], self._energies))
        return energies

    def characterize(self, weights: Optional[Iterable[int]] = None,
                     seed: int = 2023,
                     batch_weights: Optional[int] = None
                     ) -> WeightPowerTable:
        """Build the per-weight power table.

        The weights split into one shard per core of this process's
        share (:func:`repro.cpus.core_share`), at most one per weight;
        the first shard runs inline, the others in forked children
        (:func:`repro.cpus.fork_map`).  Thanks to per-weight seeding the
        sharded table is bit-for-bit identical to a serial one.

        Args:
            weights: Weight values to characterize; defaults to the full
                symmetric 8-bit set -127..127 (255 values, matching the
                TensorFlow-style symmetric quantization of the paper).
            seed: RNG seed for stimulus sampling.
            batch_weights: Weights per megabatch kernel launch
                (``None``/``0`` = automatic memory-capped chunks, ``1``
                = the per-weight oracle loop).  Batching is bit-for-bit
                identical to the per-weight loop and composes with
                sharding (each shard batches its own slice), so this
                knob must never participate in cache keys.
        """
        if weights is None:
            half = 1 << (self.mac.weight_bits - 1)
            weights = range(-half + 1, half)
        weights = np.asarray(sorted(set(int(w) for w in weights)))

        chunks = np.array_split(weights, min(core_share(), weights.size))
        energies_fj = np.concatenate(fork_map(
            _chunk_energies,
            [(self, chunk, seed, batch_weights) for chunk in chunks]))
        dynamic_uw = energies_fj * self.estimator.frequency_ghz
        # Keyed on mac.full so it hits the __init__-time memo entry.
        leakage_uw = self.estimator.leakage_power_uw(self.mac.full)

        energy_scale = 1.0
        if self.calibrate_to_uw is not None and dynamic_uw.max() > 0:
            energy_scale = (
                (self.calibrate_to_uw - leakage_uw) / dynamic_uw.max()
            )
            dynamic_uw = dynamic_uw * energy_scale

        return WeightPowerTable(
            weights=weights,
            power_uw=dynamic_uw + leakage_uw,
            dynamic_uw=dynamic_uw,
            leakage_uw=leakage_uw,
            clock_period_ps=self.estimator.clock_period_ps,
            energy_scale=energy_scale,
        )
