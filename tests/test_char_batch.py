"""Equivalence suite for the one-launch (megabatch) characterization.

The weight-batched paths — ``evaluate_words_batched`` megabatch
evaluation, ``dynamic_energies_fj_batched`` power characterization and
``delays_batched`` timing profiling — must be *bit-for-bit* equal to
the per-weight loops they replace, which in turn must stay bit-for-bit
equal to the pre-batching (PR 4-era) reference implementations whose
RNG consumption defined the golden results.  That chain is what lets
the pipeline default to the batched paths with zero golden-file
regeneration and zero stage-version bumps.

Hypothesis drives random netlists, awkward non-multiple-of-64 sample
counts, and every chunking of the weight axis; process sharding is
checked to compose with batching on both tables.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.netlists import AWKWARD_BATCHES, random_netlists
from oracles.sim_kernels import prebatch_reference_energies
from repro.cells import default_library
from repro.netlist import build_mac_unit
from repro.power.binning import BinnedTransitions, PartialSumBinner
from repro.power.characterization import (
    WeightPowerCharacterizer,
    resolve_batch_weights,
)
from repro.power.transitions import TransitionDistribution
from repro.sim import logic as logic_mod
from repro.sim.logic import (
    BatchedPackedValues,
    bus_inputs,
    evaluate_words,
    evaluate_words_batched,
    pack_bits,
    popcount_words_segmented,
    unpack_bits,
)
from repro.sim.switching import (
    paired_toggle_rates_words,
    paired_toggle_rates_words_batched,
)
from repro.timing.profile import (
    WeightDelayProfiler,
    WeightTimingTable,
)


# ----------------------------------------------------------------------
# megabatch kernel
# ----------------------------------------------------------------------
class TestEvaluateWordsBatched:
    @settings(max_examples=40, deadline=None)
    @given(netlist=random_netlists(),
           n_segments=st.integers(1, 5),
           batch=st.sampled_from(AWKWARD_BATCHES),
           seed=st.integers(0, 2**32 - 1))
    def test_segments_equal_standalone_evaluations(self, netlist,
                                                   n_segments, batch,
                                                   seed):
        rng = np.random.default_rng(seed)
        feeds = [{name: rng.random(batch) < 0.5
                  for name in netlist.input_names}
                 for __ in range(n_segments)]
        stacked = {name: np.stack([feed[name] for feed in feeds])
                   for name in netlist.input_names}

        values = evaluate_words_batched(netlist, stacked)
        assert isinstance(values, BatchedPackedValues)
        assert values.n_segments == n_segments
        for k, feed in enumerate(feeds):
            solo = evaluate_words(netlist, feed)
            np.testing.assert_array_equal(values.segment(k).words,
                                          solo.words)

    @settings(max_examples=40, deadline=None)
    @given(netlist=random_netlists(),
           n_segments=st.integers(1, 4),
           half=st.sampled_from(AWKWARD_BATCHES),
           seed=st.integers(0, 2**32 - 1))
    def test_paired_toggle_counts_equal_per_segment(self, netlist,
                                                    n_segments, half,
                                                    seed):
        rng = np.random.default_rng(seed)
        batch = 2 * half
        feeds = [{name: rng.random(batch) < 0.5
                  for name in netlist.input_names}
                 for __ in range(n_segments)]
        stacked = {name: np.stack([feed[name] for feed in feeds])
                   for name in netlist.input_names}

        values = evaluate_words_batched(netlist, stacked,
                                        pair_halves=True)
        rates = paired_toggle_rates_words_batched(values)
        assert rates.shape == (n_segments, len(values.words))
        for k, feed in enumerate(feeds):
            solo = evaluate_words(netlist, feed, pair_halves=True)
            np.testing.assert_array_equal(
                rates[k], paired_toggle_rates_words(solo))

    def test_broadcast_input_forms(self):
        netlist = build_mac_unit().multiplier
        rng = np.random.default_rng(3)
        n_segments, batch = 3, 65
        acts = rng.integers(-128, 128, (n_segments, batch))
        weights = np.array([-7, 0, 99])[:, None]      # frozen column
        feed = bus_inputs("act", acts, 8)
        feed.update(bus_inputs("w", weights, 8))

        values = evaluate_words_batched(netlist, feed)
        for k in range(n_segments):
            solo_feed = bus_inputs("act", acts[k], 8)
            solo_feed.update(bus_inputs(
                "w", np.full(batch, weights[k, 0]), 8))
            solo = evaluate_words(netlist, solo_feed)
            np.testing.assert_array_equal(values.segment(k).words,
                                          solo.words)
            np.testing.assert_array_equal(
                unpack_bits(values.segment(k).words, batch),
                unpack_bits(solo.words, batch))

    def test_shape_inference_requires_a_matrix_input(self):
        netlist = build_mac_unit().multiplier
        feed = bus_inputs("act", np.int64(3), 8)
        feed.update(bus_inputs("w", np.int64(5), 8))
        with pytest.raises(ValueError, match="n_segments"):
            evaluate_words_batched(netlist, feed)


class TestSegmentedPopcount:
    @settings(max_examples=40, deadline=None)
    @given(n_words=st.integers(1, 40), n_segments=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_segment_popcounts(self, n_words, n_segments,
                                           seed):
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 1 << 64, (3, n_words),
                             dtype=np.uint64)
        n_segments = min(n_segments, n_words)
        starts = np.sort(rng.choice(n_words, size=n_segments,
                                    replace=False))
        starts[0] = 0
        counts = popcount_words_segmented(words, starts)
        bounds = list(starts) + [n_words]
        for k in range(n_segments):
            expected = logic_mod.popcount_words(
                words[:, bounds[k]:bounds[k + 1]])
            np.testing.assert_array_equal(counts[:, k], expected)

    def test_fallback_equals_native(self, monkeypatch):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 1 << 64, (4, 12), dtype=np.uint64)
        starts = np.array([0, 5, 6])
        native = popcount_words_segmented(words, starts)
        monkeypatch.setattr(logic_mod, "_popcount_per_word_impl",
                            logic_mod._popcount_per_word_lookup)
        np.testing.assert_array_equal(
            popcount_words_segmented(words, starts), native)


# ----------------------------------------------------------------------
# stimulus sampling vs the pre-batching reference implementations
# ----------------------------------------------------------------------
class TestSamplingReferenceEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(n_codes=st.sampled_from((3, 25, 70)),
           n_samples=st.integers(1, 400),
           seed=st.integers(0, 2**32 - 1))
    def test_distribution_sample_matches_rng_choice(self, n_codes,
                                                    n_samples, seed):
        rng = np.random.default_rng(seed)
        dist = TransitionDistribution(
            rng.random((n_codes, n_codes)) + 1e-9)
        r1 = np.random.default_rng(seed)
        code_from, code_to = dist.sample(n_samples, r1)
        r2 = np.random.default_rng(seed)
        drawn = r2.choice(dist.matrix.size, size=n_samples,
                          p=dist.matrix.ravel())
        np.testing.assert_array_equal(code_from, drawn // n_codes)
        np.testing.assert_array_equal(code_to, drawn % n_codes)
        assert r1.bit_generator.state == r2.bit_generator.state

    def test_large_cdf_sorted_path_matches_rng_choice(self):
        # 256 codes -> 65536-entry CDF, exercising the sorted-keys
        # searchsorted branch.
        dist = TransitionDistribution.diagonal(256)
        r1 = np.random.default_rng(11)
        code_from, code_to = dist.sample(999, r1)
        r2 = np.random.default_rng(11)
        drawn = r2.choice(dist.matrix.size, size=999,
                          p=dist.matrix.ravel())
        np.testing.assert_array_equal(code_from, drawn // 256)
        np.testing.assert_array_equal(code_to, drawn % 256)
        assert r1.bit_generator.state == r2.bit_generator.state

    @settings(max_examples=20, deadline=None)
    @given(n_bins=st.sampled_from((2, 8, 50)),
           n_samples=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1))
    def test_sample_members_matches_per_bin_choice(self, n_bins,
                                                   n_samples, seed):
        rng = np.random.default_rng(seed)
        stream = rng.integers(-(1 << 18), 1 << 18,
                              max(40 * n_bins, 400))
        binner = PartialSumBinner(n_bins=n_bins).fit(stream, rng=rng)
        bin_ids = rng.integers(0, n_bins, n_samples)

        r1 = np.random.default_rng(seed)
        fast = binner.sample_members(bin_ids, r1)
        r2 = np.random.default_rng(seed)
        out = np.empty(bin_ids.size, dtype=np.int64)
        for b in range(n_bins):
            mask = bin_ids == b
            count = int(mask.sum())
            if not count:
                continue
            out[mask] = r2.choice(binner._exemplars[b], size=count)
        np.testing.assert_array_equal(fast, out)
        assert r1.bit_generator.state == r2.bit_generator.state


# ----------------------------------------------------------------------
# power characterization
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def characterizer_factory():
    mac = build_mac_unit()
    lib = default_library()
    rng = np.random.default_rng(0)
    act_dist = TransitionDistribution.diagonal(256)
    stream = rng.integers(-(1 << 18), 1 << 18, 3000)
    binner = PartialSumBinner(n_bins=8).fit(stream, rng=rng)
    binned = BinnedTransitions.from_stream(binner, stream)

    def build(n_samples):
        return WeightPowerCharacterizer(mac, lib, act_dist, binned,
                                        n_samples=n_samples)
    return build


class TestPowerBatchedEquivalence:
    WEIGHTS = list(range(-127, 128, 24))

    @pytest.mark.parametrize("n_samples", [64, 65, 127, 150])
    def test_batched_equals_per_weight_equals_reference(
            self, characterizer_factory, n_samples):
        char = characterizer_factory(n_samples)
        per = char.dynamic_energies_fj(self.WEIGHTS, seed=5)
        reference = prebatch_reference_energies(char, self.WEIGHTS, seed=5)
        np.testing.assert_array_equal(per, reference)
        for batch_weights in (None, 1, 2, 3, len(self.WEIGHTS)):
            batched = char.dynamic_energies_fj_batched(
                self.WEIGHTS, seed=5, batch_weights=batch_weights)
            np.testing.assert_array_equal(batched, per)

    def test_characterize_batched_equals_per_weight_table(
            self, characterizer_factory):
        char = characterizer_factory(150)
        loop = char.characterize(self.WEIGHTS, seed=5, batch_weights=1)
        batched = char.characterize(self.WEIGHTS, seed=5)
        np.testing.assert_array_equal(loop.power_uw, batched.power_uw)
        np.testing.assert_array_equal(loop.dynamic_uw,
                                      batched.dynamic_uw)
        assert loop.energy_scale == batched.energy_scale

    def test_sharding_composes_with_batching(self,
                                             characterizer_factory):
        char = characterizer_factory(150)
        serial = char.characterize(self.WEIGHTS, seed=5,
                                   batch_weights=1)
        sharded = char.characterize(self.WEIGHTS, seed=5, jobs=3,
                                    batch_weights=2)
        np.testing.assert_array_equal(serial.power_uw,
                                      sharded.power_uw)
        assert serial.energy_scale == sharded.energy_scale

    def test_resolve_batch_weights_policy(self):
        # Explicit knob wins, clamped to the weight count and budget.
        assert resolve_batch_weights(7, 255, 1000) == 7
        assert resolve_batch_weights(500, 255, 1000) == 255
        assert resolve_batch_weights(500, 255, 1 << 20,
                                     budget_bytes=4 << 20) == 4
        # Auto targets cache-sized launches.
        assert resolve_batch_weights(0, 255, 1 << 20,
                                     target_bytes=8 << 20) == 8
        assert resolve_batch_weights(None, 255, 1 << 30) == 1
        # Degenerate inputs stay in range.
        assert resolve_batch_weights(0, 1, 0) == 1


# ----------------------------------------------------------------------
# timing characterization
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def profiler():
    return WeightDelayProfiler(build_mac_unit(), default_library())


class TestTimingBatchedEquivalence:
    WEIGHTS = list(range(-127, 128, 32))

    def test_delays_batched_equals_per_weight(self, profiler):
        rng = np.random.default_rng(9)
        sizes = (65, 1, 127)
        weights = (-3, 0, 91)
        per_weight = []
        for weight, size in zip(weights, sizes):
            act_from = rng.integers(-128, 128, size)
            act_to = rng.integers(-128, 128, size)
            per_weight.append((weight, act_from, act_to))
        flat_w = np.concatenate(
            [np.full(af.size, w) for w, af, __ in per_weight])
        flat_from = np.concatenate([af for __, af, __ in per_weight])
        flat_to = np.concatenate([at for __, __, at in per_weight])

        flat = profiler.delays_batched(flat_w, flat_from, flat_to)
        offset = 0
        for weight, act_from, act_to in per_weight:
            solo = profiler.delays(weight, act_from, act_to)
            np.testing.assert_array_equal(
                flat[offset:offset + act_from.size], solo)
            offset += act_from.size

    def test_delays_batched_chunking_is_neutral(self, profiler):
        rng = np.random.default_rng(2)
        n = 300
        flat_w = rng.integers(-128, 128, n)
        act_from = rng.integers(-128, 128, n)
        act_to = rng.integers(-128, 128, n)
        baseline = profiler.delays_batched(flat_w, act_from, act_to)
        small = WeightDelayProfiler(profiler.mac, profiler.library,
                                    chunk=64)
        np.testing.assert_array_equal(
            small.delays_batched(flat_w, act_from, act_to), baseline)

    @pytest.mark.parametrize("batch_weights", [None, 2, 1000])
    def test_characterize_batched_equals_per_weight(self, profiler,
                                                    batch_weights):
        loop = WeightTimingTable.characterize(
            profiler, self.WEIGHTS, n_transitions=60, seed=7,
            batch_weights=1)
        batched = WeightTimingTable.characterize(
            profiler, self.WEIGHTS, n_transitions=60, seed=7,
            batch_weights=batch_weights)
        np.testing.assert_array_equal(loop.max_delay_ps,
                                      batched.max_delay_ps)
        np.testing.assert_array_equal(loop.combo_weight,
                                      batched.combo_weight)
        np.testing.assert_array_equal(loop.combo_act_from,
                                      batched.combo_act_from)
        np.testing.assert_array_equal(loop.combo_act_to,
                                      batched.combo_act_to)
        np.testing.assert_array_equal(loop.combo_delay_ps,
                                      batched.combo_delay_ps)
        assert loop.time_scale == batched.time_scale

    def test_sharding_composes_with_batching(self, profiler):
        serial = WeightTimingTable.characterize(
            profiler, self.WEIGHTS, n_transitions=60, seed=7,
            batch_weights=1)
        sharded = WeightTimingTable.characterize(
            profiler, self.WEIGHTS, n_transitions=60, seed=7, jobs=3,
            batch_weights=2)
        np.testing.assert_array_equal(serial.max_delay_ps,
                                      sharded.max_delay_ps)
        np.testing.assert_array_equal(serial.combo_delay_ps,
                                      sharded.combo_delay_ps)
        assert serial.time_scale == sharded.time_scale

    def test_shared_explicit_transitions_batch(self, profiler):
        rng = np.random.default_rng(4)
        transitions = (rng.integers(-128, 128, 40),
                       rng.integers(-128, 128, 40))
        loop = WeightTimingTable.characterize(
            profiler, self.WEIGHTS, transitions=transitions,
            batch_weights=1)
        batched = WeightTimingTable.characterize(
            profiler, self.WEIGHTS, transitions=transitions)
        np.testing.assert_array_equal(loop.max_delay_ps,
                                      batched.max_delay_ps)
        np.testing.assert_array_equal(loop.combo_delay_ps,
                                      batched.combo_delay_ps)
