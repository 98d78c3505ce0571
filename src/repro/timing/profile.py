"""Per-weight delay profiles (paper Sec. III-B, Figs. 3 and 5).

The paper splits MAC timing analysis to keep it tractable:

* the **multiplier** is analyzed *dynamically* per weight value — the
  weight input is frozen and all 2^16 activation transitions are applied,
  recording the switching-event arrival time at every product bit;
* the **adder** is analyzed *statically* — one longest-path number from
  each product bit (and from the partial-sum bus) to the result.

The MAC delay for one transition is then
``max(max_bit(mult_arrival[bit] + adder_delay[bit]), psum_path)`` —
exactly the Fig. 5 composition.  A global ``time_scale`` pins the largest
sensitized delay across all weights to the paper's 180 ps post-synthesis
clock.

At reduced scales only a subsample of the 2^16 activation transitions is
applied per weight.  Each weight draws its subsample from its own child
RNG keyed on ``(seed, weight)``, which makes the characterized table
independent of the characterization order and lets
``WeightTimingTable.characterize(..., jobs=N)`` shard the per-weight
dynamic timing analyses across processes with bit-for-bit identical
results (the global calibration happens after the shards merge) —
mirroring the sharded power characterization in
:mod:`repro.power.characterization`.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cells.library import CellLibrary
from repro.cpus import usable_cores
from repro.netlist.mac import MacUnit
from repro.sim.dynamic_timing import (
    STREAM_WINDOW_SAMPLES,
    dynamic_bus_arrivals,
)
from repro.sim.logic import WORD_DTYPE, bus_inputs
from repro.sim.static_timing import input_bus_delays

#: Post-synthesis critical path of the paper's MAC unit.
ANCHOR_MAX_DELAY_PS = 180.0

#: Domain tag separating the timing stimulus stream from the power one
#: (:func:`repro.power.characterization.weight_seed_sequence`), so the
#: two characterizations of a weight never correlate.
_TIMING_STREAM = 0x7119


def timing_seed_sequence(seed: int, weight: int
                         ) -> np.random.SeedSequence:
    """One independent RNG seed per (seed, weight) timing subsample.

    Keyed on the *weight value* rather than its position in the
    characterization order, so the transitions drawn for a weight are
    identical no matter which other weights are characterized, in what
    order, or how the weight set is chunked across processes — the
    property the sharded timing characterization relies on for
    bit-for-bit equality with a serial run.
    """
    return np.random.SeedSequence(
        [int(seed) & 0xFFFFFFFF, int(weight) & 0xFFFFFFFF,
         _TIMING_STREAM])


class MacTimingModel:
    """Static half of the Fig. 5 composition.

    Precomputes the adder's per-product-bit STA delays and the partial-sum
    path delay, then composes them with dynamically obtained product-bit
    arrival times.
    """

    def __init__(self, mac: MacUnit, library: CellLibrary) -> None:
        self.mac = mac
        self.library = library
        self.adder_bit_delays = input_bus_delays(
            mac.adder, library, "product", mac.product_bits
        )
        self.psum_path_ps = float(
            input_bus_delays(mac.adder, library, "psum", mac.psum_bits)
            .max()
        )

    def compose(self, product_arrivals: np.ndarray) -> np.ndarray:
        """MAC delay per transition from product-bit arrival times.

        Args:
            product_arrivals: ``(product_bits, batch)`` arrival times from
                multiplier DTA (0 where a bit did not switch).

        Returns:
            Per-transition MAC delay, floored at the static partial-sum
            path (which is sensitized by the accumulating loop anyway).
        """
        composed = product_arrivals + self.adder_bit_delays[:, None]
        # Bits that did not switch (arrival 0) still contribute the bare
        # adder delay via `composed`; that is conservative but harmless
        # because the psum path dominates any non-switching bit's path.
        switched = product_arrivals > 0
        composed = np.where(switched, composed, 0.0)
        return np.maximum(composed.max(axis=0), self.psum_path_ps)


@dataclass
class DelayProfile:
    """Delay of one weight value across activation transitions (Fig. 3).

    Attributes:
        weight: The frozen weight value.
        act_from / act_to: The applied activation transitions (values,
            not codes).
        delays_ps: Sensitized MAC delay of each transition.
    """

    weight: int
    act_from: np.ndarray
    act_to: np.ndarray
    delays_ps: np.ndarray

    @property
    def max_delay_ps(self) -> float:
        return float(self.delays_ps.max())

    def histogram(self, bin_width_ps: float = 5.0
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """Fig. 3-style histogram: (bin_edges, counts)."""
        top = np.ceil(self.delays_ps.max() / bin_width_ps) * bin_width_ps
        edges = np.arange(0.0, top + bin_width_ps, bin_width_ps)
        counts, __ = np.histogram(self.delays_ps, bins=edges)
        return edges, counts


class WeightDelayProfiler:
    """Runs the per-weight dynamic timing analysis of the multiplier."""

    def __init__(self, mac: MacUnit, library: CellLibrary,
                 chunk: int = 8192) -> None:
        self.mac = mac
        self.library = library
        self.model = MacTimingModel(mac, library)
        self.chunk = chunk
        self._packed = mac.multiplier.packed()
        # Build the levelized plan and its level program once,
        # outside the per-weight loop (and before any worker pickling
        # ships the packed view, so shards receive both warm).
        self._packed.schedule
        self._packed.program
        # Product-bus net indices the streaming DTA retains; constant
        # across the profiler's lifetime.
        self._product_nets = np.asarray(
            self._packed.netlist.output_bus("product", mac.product_bits),
            dtype=np.int64)
        # Scratch reused across chunks and weights: the packed word
        # matrix of the stacked value evaluation (previously
        # reallocated per ~chunk-sized window) and the fallback DTA
        # arrival slab.  One allocation each instead of one per DTA
        # call — page-faulting fresh buffers per chunk costs more than
        # the propagation itself.  Lazily allocated, never pickled
        # (see __getstate__).
        self._words_buf: Optional[np.ndarray] = None
        self._arrivals_buf: Optional[np.ndarray] = None

    def __getstate__(self) -> dict:
        """Drop the scratch buffers when shipping to worker processes."""
        state = self.__dict__.copy()
        state["_words_buf"] = None
        state["_arrivals_buf"] = None
        return state

    def delays(self, weight: int, act_from: np.ndarray,
               act_to: np.ndarray) -> np.ndarray:
        """MAC delays for explicit activation transitions (values)."""
        act_from = np.asarray(act_from, dtype=np.int64).ravel()
        act_to = np.asarray(act_to, dtype=np.int64).ravel()
        if act_from.shape != act_to.shape:
            raise ValueError("from/to activation arrays must align")
        out = np.empty(act_from.size, dtype=np.float64)
        # The weight bus is constant across the whole profile; build it
        # once at the widest chunk size and slice per chunk.
        weight_bus = bus_inputs(
            "w", np.full(min(self.chunk, max(act_from.size, 1)), weight),
            self.mac.weight_bits
        )
        for start in range(0, act_from.size, self.chunk):
            stop = min(start + self.chunk, act_from.size)
            sliced = {name: bits[:stop - start]
                      for name, bits in weight_bus.items()}
            out[start:stop] = self._delays_chunk(
                sliced, act_from[start:stop], act_to[start:stop]
            )
        return out

    def delays_batched(self, weight_values: np.ndarray,
                       act_from: np.ndarray,
                       act_to: np.ndarray) -> np.ndarray:
        """MAC delays where every transition carries its own weight.

        The one-launch twin of :meth:`delays`: several weights' stimuli
        concatenate into one flat stream with a per-sample weight bus,
        so the dynamic timing analysis walks its levelized plan once
        per ``chunk``-sized window instead of once per weight.  Arrival
        propagation is independent per sample column, so the flat
        batching (and its different chunk boundaries) is bit-for-bit
        equivalent to looping :meth:`delays` weight by weight —
        property-tested in the equivalence suite.

        Args:
            weight_values: Per-transition frozen weight value.
            act_from / act_to: Activation transition endpoints (values),
                aligned with ``weight_values``.
        """
        weight_values = np.asarray(weight_values, dtype=np.int64).ravel()
        act_from = np.asarray(act_from, dtype=np.int64).ravel()
        act_to = np.asarray(act_to, dtype=np.int64).ravel()
        if not (weight_values.shape == act_from.shape == act_to.shape):
            raise ValueError(
                "weight/from/to arrays must align, got "
                f"{weight_values.shape}/{act_from.shape}/{act_to.shape}")
        out = np.empty(act_from.size, dtype=np.float64)
        for start in range(0, act_from.size, self.chunk):
            stop = min(start + self.chunk, act_from.size)
            weight_bus = bus_inputs(
                "w", weight_values[start:stop], self.mac.weight_bits)
            out[start:stop] = self._delays_chunk(
                weight_bus, act_from[start:stop], act_to[start:stop]
            )
        return out

    def _delays_chunk(self, weight_bus, act_from: np.ndarray,
                      act_to: np.ndarray) -> np.ndarray:
        # Full-width chunks reuse the preallocated scratch; tail chunks
        # (different shapes) run bufferless rather than reallocating.
        words_out = None
        arrivals_out = None
        if act_from.size == self.chunk:
            if self._words_buf is None:
                n_words = 2 * ((self.chunk + 63) // 64)
                self._words_buf = np.zeros(
                    (len(self._packed), n_words), dtype=WORD_DTYPE)
            if self._arrivals_buf is None:
                self._arrivals_buf = np.zeros(
                    (len(self._packed),
                     min(STREAM_WINDOW_SAMPLES, self.chunk)),
                    dtype=np.float64)
            words_out = self._words_buf
            arrivals_out = self._arrivals_buf
        feed_before = bus_inputs("act", act_from, self.mac.act_bits)
        feed_before.update(weight_bus)
        feed_after = bus_inputs("act", act_to, self.mac.act_bits)
        feed_after.update(weight_bus)
        product_arrivals = dynamic_bus_arrivals(
            self._packed, self.library, feed_before, feed_after,
            self._product_nets, words_out=words_out,
            arrivals_out=arrivals_out,
        )
        return self.model.compose(product_arrivals)

    def all_transitions(self) -> Tuple[np.ndarray, np.ndarray]:
        """The full activation-transition enumeration (2^16 pairs)."""
        half = 1 << (self.mac.act_bits - 1)
        values = np.arange(-half, half)
        act_from, act_to = np.meshgrid(values, values, indexing="ij")
        return act_from.ravel(), act_to.ravel()

    def sampled_transitions(self, n: int, rng: np.random.Generator
                            ) -> Tuple[np.ndarray, np.ndarray]:
        """``n`` transitions drawn without replacement from the full set."""
        act_from, act_to = self.all_transitions()
        chosen = rng.choice(act_from.size, size=min(int(n), act_from.size),
                            replace=False)
        return act_from[chosen], act_to[chosen]

    def profile(self, weight: int,
                transitions: Optional[Tuple[np.ndarray, np.ndarray]] = None,
                ) -> DelayProfile:
        """Delay profile of one weight (all transitions by default)."""
        if transitions is None:
            transitions = self.all_transitions()
        act_from, act_to = transitions
        delays = self.delays(weight, act_from, act_to)
        return DelayProfile(weight=weight, act_from=act_from,
                            act_to=act_to, delays_ps=delays)


def _weight_transitions(profiler: WeightDelayProfiler, weight: int,
                        transitions: Optional[Tuple[np.ndarray,
                                                    np.ndarray]],
                        n_transitions: Optional[int],
                        seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """The activation transitions one weight is profiled under.

    An explicit ``transitions`` pair is shared by every weight (the
    legacy, fully caller-controlled path); otherwise ``n_transitions``
    selects a per-weight subsample from the weight's own child RNG, and
    ``None`` enumerates all 2^16 pairs as in the paper.
    """
    if transitions is not None:
        return transitions
    if n_transitions is None:
        return profiler.all_transitions()
    rng = np.random.default_rng(timing_seed_sequence(seed, weight))
    return profiler.sampled_transitions(n_transitions, rng)


#: Preferred flat-stream window (samples) for automatic timing-batch
#: sizing.  Bigger windows amortize the per-launch DTA dispatch, but
#: once the ``(nets, window)`` arrival matrix outgrows cache every
#: propagation level streams from DRAM — measured on the smoke
#: multiplier, windows around this size beat full ``chunk``-sized ones.
_BATCH_TARGET_SAMPLES = 4096


def _resolve_group_weights(profiler: WeightDelayProfiler,
                           batch_weights: Optional[int],
                           transitions: Optional[Tuple[np.ndarray,
                                                       np.ndarray]],
                           n_transitions: Optional[int]) -> int:
    """Weights whose transitions concatenate into one flat DTA stream.

    Automatic sizing packs roughly :data:`_BATCH_TARGET_SAMPLES`
    transitions per group; the flat stream is re-chunked at
    ``profiler.chunk`` inside
    :meth:`WeightDelayProfiler.delays_batched` regardless, so explicit
    larger groups stay memory-bounded.
    """
    if batch_weights is not None and batch_weights != 0:
        return max(1, int(batch_weights))
    if transitions is not None:
        per_weight = int(np.asarray(transitions[0]).size)
    elif n_transitions is not None:
        per_weight = int(n_transitions)
    else:
        per_weight = 1 << (2 * profiler.mac.act_bits)
    return max(1, _BATCH_TARGET_SAMPLES // max(1, per_weight))


def _profile_chunk(task: Tuple[WeightDelayProfiler, np.ndarray,
                               Optional[Tuple[np.ndarray, np.ndarray]],
                               Optional[int], int, Optional[int]]
                   ) -> List[Tuple[int, np.ndarray, np.ndarray,
                                   np.ndarray]]:
    """Worker entry point for sharded characterization (picklable).

    Returns raw (uncalibrated) ``(weight, act_from, act_to, delays)``
    records; each record is a pure function of ``(seed, weight)``, so
    chunk boundaries cannot influence the merged table.

    Process sharding composes on top of weight batching: each shard
    groups its own slice of the weight set into flat one-launch DTA
    streams (or falls back to the per-weight loop when
    ``batch_weights == 1``).
    """
    profiler, weights, transitions, n_transitions, seed, batch_weights \
        = task
    if batch_weights == 1:
        records = []
        for weight in weights:
            act_from, act_to = _weight_transitions(
                profiler, int(weight), transitions, n_transitions, seed)
            delays = profiler.delays(int(weight), act_from, act_to)
            records.append((int(weight), act_from, act_to, delays))
        return records

    group_size = _resolve_group_weights(
        profiler, batch_weights, transitions, n_transitions)
    records = []
    for start in range(0, len(weights), group_size):
        group = [int(w) for w in weights[start:start + group_size]]
        per_weight = [
            _weight_transitions(profiler, w, transitions, n_transitions,
                                seed)
            for w in group
        ]
        sizes = [af.size for af, __ in per_weight]
        w_values = np.repeat(np.asarray(group, dtype=np.int64), sizes)
        flat_from = np.concatenate([af for af, __ in per_weight])
        flat_to = np.concatenate([at for __, at in per_weight])
        flat_delays = profiler.delays_batched(w_values, flat_from,
                                              flat_to)
        offsets = np.cumsum([0] + sizes)
        for k, weight in enumerate(group):
            act_from, act_to = per_weight[k]
            records.append((weight, act_from, act_to,
                            flat_delays[offsets[k]:offsets[k + 1]]))
    return records


@dataclass
class WeightTimingTable:
    """Timing characterization of a set of weight values.

    Stores, per weight, the maximum sensitized delay plus a *sparse* list
    of slow combinations ``(weight, act_from, act_to, delay)`` above
    ``floor_ps`` — everything the iterative selection of Sec. III-B needs
    without materializing 255 x 2^16 dense matrices.

    All delays are in picoseconds, already multiplied by ``time_scale``
    (the calibration factor pinning the global maximum to the paper's
    180 ps).
    """

    weights: np.ndarray
    max_delay_ps: np.ndarray
    combo_weight: np.ndarray
    combo_act_from: np.ndarray
    combo_act_to: np.ndarray
    combo_delay_ps: np.ndarray
    floor_ps: float
    time_scale: float
    psum_path_ps: float

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.int64)
        self.max_delay_ps = np.asarray(self.max_delay_ps, dtype=np.float64)

    @property
    def global_max_delay_ps(self) -> float:
        """Largest sensitized delay over all characterized weights."""
        return float(self.max_delay_ps.max())

    def max_delay_of(self, weight: int) -> float:
        idx = np.where(self.weights == weight)[0]
        if not idx.size:
            raise KeyError(f"weight {weight} not characterized")
        return float(self.max_delay_ps[idx[0]])

    def combos_for(self, weights: Sequence[int]) -> Tuple[np.ndarray, ...]:
        """Slow combos restricted to a candidate weight subset."""
        mask = np.isin(self.combo_weight, np.asarray(weights))
        return (self.combo_weight[mask], self.combo_act_from[mask],
                self.combo_act_to[mask], self.combo_delay_ps[mask])

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: Path) -> None:
        """Write the table as compressed numpy archive."""
        np.savez_compressed(
            path,
            weights=self.weights,
            max_delay_ps=self.max_delay_ps,
            combo_weight=self.combo_weight,
            combo_act_from=self.combo_act_from,
            combo_act_to=self.combo_act_to,
            combo_delay_ps=self.combo_delay_ps,
            meta=np.array([self.floor_ps, self.time_scale,
                           self.psum_path_ps]),
        )

    @classmethod
    def load(cls, path: Path) -> "WeightTimingTable":
        data = np.load(path)
        floor_ps, time_scale, psum_path_ps = data["meta"]
        return cls(
            weights=data["weights"],
            max_delay_ps=data["max_delay_ps"],
            combo_weight=data["combo_weight"],
            combo_act_from=data["combo_act_from"],
            combo_act_to=data["combo_act_to"],
            combo_delay_ps=data["combo_delay_ps"],
            floor_ps=float(floor_ps),
            time_scale=float(time_scale),
            psum_path_ps=float(psum_path_ps),
        )

    @classmethod
    def characterize(cls, profiler: WeightDelayProfiler,
                     weights: Optional[Iterable[int]] = None,
                     transitions: Optional[
                         Tuple[np.ndarray, np.ndarray]] = None,
                     floor_ps: float = 100.0,
                     calibrate_to_ps: Optional[float] = ANCHOR_MAX_DELAY_PS,
                     n_transitions: Optional[int] = None,
                     seed: int = 0,
                     jobs: Optional[int] = 1,
                     batch_weights: Optional[int] = None
                     ) -> "WeightTimingTable":
        """Profile ``weights`` and build the sparse table.

        Args:
            profiler: The per-weight DTA engine.
            weights: Weight values to profile (default: all 255 symmetric
                8-bit values).
            transitions: Explicit activation transitions, shared by every
                weight (overrides ``n_transitions``).
            floor_ps: Keep only combos slower than this (after
                calibration); must be below the smallest delay threshold
                the selection will use.
            calibrate_to_ps: Pin the global maximum delay to this value
                (``None`` keeps raw library delays).
            n_transitions: Subsample this many of the 2^16 transitions
                *per weight*, each weight drawing from its own child RNG
                keyed on ``(seed, weight)`` — independent of ordering,
                chunking, and of which other weights are in the set.
                ``None`` (and no explicit ``transitions``) enumerates
                all 2^16 pairs, as in the paper.
            seed: Base seed for the per-weight transition subsampling.
            jobs: Shard the per-weight analyses over this many processes
                (``None``/``1`` = serial, ``0`` = all cores).  Per-weight
                profiles are pure functions of ``(seed, weight)`` and the
                calibration runs after the shards merge, so the sharded
                table is bit-for-bit identical to the serial one — which
                is why ``jobs`` must never participate in cache keys.
            batch_weights: Weights whose transitions concatenate into
                one flat one-launch DTA stream (``None``/``0`` =
                automatic, roughly one ``profiler.chunk`` window per
                group; ``1`` = the per-weight oracle loop).  Batching
                is bit-for-bit identical to the per-weight loop and
                composes with ``jobs``, so this knob must never
                participate in cache keys either.
        """
        mac = profiler.mac
        if weights is None:
            half = 1 << (mac.weight_bits - 1)
            weights = range(-half + 1, half)
        weights = np.asarray(sorted(set(int(w) for w in weights)))

        if jobs is None:
            jobs = 1
        elif jobs == 0:
            jobs = usable_cores()
        jobs = max(1, min(jobs, weights.size))
        if jobs == 1:
            slow = _profile_chunk(
                (profiler, weights, transitions, n_transitions, seed,
                 batch_weights))
        else:
            chunks = np.array_split(weights, jobs)
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                parts = list(pool.map(
                    _profile_chunk,
                    [(profiler, chunk, transitions, n_transitions, seed,
                      batch_weights)
                     for chunk in chunks]))
            slow = [record for part in parts for record in part]

        max_delays = np.array([delays.max()
                               for __, __, __, delays in slow])

        time_scale = 1.0
        if calibrate_to_ps is not None and max_delays.max() > 0:
            time_scale = calibrate_to_ps / max_delays.max()
        max_delays *= time_scale

        combo_w: List[np.ndarray] = []
        combo_f: List[np.ndarray] = []
        combo_t: List[np.ndarray] = []
        combo_d: List[np.ndarray] = []
        for weight, a_from, a_to, delays in slow:
            scaled = delays * time_scale
            mask = scaled > floor_ps
            combo_w.append(np.full(int(mask.sum()), weight, dtype=np.int64))
            combo_f.append(a_from[mask].astype(np.int64))
            combo_t.append(a_to[mask].astype(np.int64))
            combo_d.append(scaled[mask])

        return cls(
            weights=weights,
            max_delay_ps=max_delays,
            combo_weight=np.concatenate(combo_w),
            combo_act_from=np.concatenate(combo_f),
            combo_act_to=np.concatenate(combo_t),
            combo_delay_ps=np.concatenate(combo_d),
            floor_ps=floor_ps,
            time_scale=time_scale,
            psum_path_ps=profiler.model.psum_path_ps * time_scale,
        )
