"""Tests for timing profiles and delay-threshold selection."""

import numpy as np
import pytest

from repro.cells import default_library
from repro.netlist import build_mac_unit
from repro.timing import (
    DelaySelector,
    MacTimingModel,
    WeightDelayProfiler,
    WeightTimingTable,
)


@pytest.fixture(scope="module")
def mac():
    return build_mac_unit()


@pytest.fixture(scope="module")
def lib():
    return default_library()


@pytest.fixture(scope="module")
def profiler(mac, lib):
    return WeightDelayProfiler(mac, lib)


@pytest.fixture(scope="module")
def sampled_transitions(profiler):
    act_from, act_to = profiler.all_transitions()
    rng = np.random.default_rng(0)
    chosen = rng.choice(act_from.size, 4000, replace=False)
    return act_from[chosen], act_to[chosen]


@pytest.fixture(scope="module")
def timing_table(profiler, sampled_transitions):
    return WeightTimingTable.characterize(
        profiler,
        weights=[-105, -64, -33, -2, 0, 2, 23, 64, 105, 127],
        transitions=sampled_transitions,
        floor_ps=90.0,
    )


class TestMacTimingModel:
    def test_psum_path_positive(self, mac, lib):
        model = MacTimingModel(mac, lib)
        assert model.psum_path_ps > 0

    def test_adder_bit_delays_positive(self, mac, lib):
        model = MacTimingModel(mac, lib)
        assert (model.adder_bit_delays > 0).all()

    def test_compose_floor_is_psum_path(self, mac, lib):
        model = MacTimingModel(mac, lib)
        quiet = np.zeros((mac.product_bits, 5))
        delays = model.compose(quiet)
        np.testing.assert_allclose(delays, model.psum_path_ps)

    def test_compose_adds_bit_delay(self, mac, lib):
        model = MacTimingModel(mac, lib)
        arrivals = np.zeros((mac.product_bits, 1))
        arrivals[3, 0] = 100.0
        delay = model.compose(arrivals)[0]
        assert delay == pytest.approx(100.0 + model.adder_bit_delays[3])


class TestWeightDelayProfiler:
    def test_zero_weight_is_fastest(self, profiler, sampled_transitions):
        zero = profiler.profile(0, sampled_transitions)
        heavy = profiler.profile(-105, sampled_transitions)
        assert zero.max_delay_ps < heavy.max_delay_ps
        # Weight 0 never switches the product: only the psum path remains.
        assert zero.max_delay_ps == pytest.approx(
            profiler.model.psum_path_ps)

    def test_fig3_anchor_ordering(self, profiler, sampled_transitions):
        """Fig. 3: weight 64 is much faster than weight -105."""
        fast = profiler.profile(64, sampled_transitions)
        slow = profiler.profile(-105, sampled_transitions)
        assert fast.max_delay_ps < slow.max_delay_ps

    def test_profile_histogram(self, profiler, sampled_transitions):
        profile = profiler.profile(-105, sampled_transitions)
        edges, counts = profile.histogram(bin_width_ps=10.0)
        assert counts.sum() == profile.delays_ps.size
        assert len(edges) == len(counts) + 1

    def test_all_transitions_enumeration(self, profiler):
        act_from, act_to = profiler.all_transitions()
        assert act_from.size == 1 << 16
        assert act_from.min() == -128 and act_from.max() == 127

    def test_misaligned_transitions_rejected(self, profiler):
        with pytest.raises(ValueError):
            profiler.delays(1, np.array([1, 2]), np.array([1]))


class TestWeightTimingTable:
    def test_calibrated_to_180ps(self, timing_table):
        assert timing_table.global_max_delay_ps == pytest.approx(180.0)

    def test_max_delay_lookup(self, timing_table):
        assert timing_table.max_delay_of(0) < timing_table.max_delay_of(
            -105)
        with pytest.raises(KeyError):
            timing_table.max_delay_of(42)

    def test_combos_above_floor_only(self, timing_table):
        assert (timing_table.combo_delay_ps > timing_table.floor_ps).all()

    def test_combos_for_subset(self, timing_table):
        cw, cf, ct, cd = timing_table.combos_for([0, -105])
        assert set(np.unique(cw)) <= {0, -105}

    def test_roundtrip_save_load(self, timing_table, tmp_path):
        path = tmp_path / "timing.npz"
        timing_table.save(path)
        loaded = WeightTimingTable.load(path)
        np.testing.assert_array_equal(loaded.weights, timing_table.weights)
        np.testing.assert_allclose(loaded.max_delay_ps,
                                   timing_table.max_delay_ps)
        assert loaded.time_scale == pytest.approx(timing_table.time_scale)


class TestDelaySelector:
    def test_selection_meets_threshold(self, timing_table):
        selector = DelaySelector(timing_table, n_restarts=5)
        result = selector.select(150.0)
        assert result.max_delay_ps <= 150.0
        assert result.n_weights >= 1
        assert 0 in result.weights
        assert 0 in result.activations

    def test_tighter_threshold_removes_more(self, timing_table):
        selector = DelaySelector(timing_table, n_restarts=5)
        loose = selector.select(170.0)
        tight = selector.select(130.0)
        assert (tight.n_weights + tight.n_activations
                <= loose.n_weights + loose.n_activations)

    def test_threshold_at_180_keeps_everything(self, timing_table):
        selector = DelaySelector(timing_table, n_restarts=2)
        result = selector.select(180.1)
        assert result.n_weights == timing_table.weights.size
        assert result.n_activations == 256

    def test_threshold_below_floor_rejected(self, timing_table):
        selector = DelaySelector(timing_table)
        with pytest.raises(ValueError, match="floor"):
            selector.select(timing_table.floor_ps - 1.0)

    def test_candidate_weights_restrict_search(self, timing_table):
        selector = DelaySelector(timing_table, n_restarts=3)
        result = selector.select(150.0, candidate_weights=[0, 2, -2])
        assert set(result.weights.tolist()) <= {0, 2, -2}

    def test_removed_plus_surviving_partition(self, timing_table):
        selector = DelaySelector(timing_table, n_restarts=3)
        result = selector.select(140.0)
        weights = set(result.weights.tolist())
        removed = set(result.removed_weights.tolist())
        assert weights.isdisjoint(removed)
        assert weights | removed == set(timing_table.weights.tolist())

    def test_restart_count_validated(self, timing_table):
        with pytest.raises(ValueError):
            DelaySelector(timing_table, n_restarts=0)

    def test_deterministic_given_seed(self, timing_table):
        selector = DelaySelector(timing_table, n_restarts=3)
        a = selector.select(145.0, seed=11)
        b = selector.select(145.0, seed=11)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.activations, b.activations)


class TestShardedTimingCharacterization:
    """Mirror of the sharded power characterization guarantees."""

    WEIGHTS = [-105, -33, 0, 64, 127]

    def test_seed_sequence_keyed_on_value_not_order(self):
        from repro.timing import timing_seed_sequence

        a = timing_seed_sequence(7, -105).generate_state(4)
        b = timing_seed_sequence(7, -105).generate_state(4)
        c = timing_seed_sequence(7, 64).generate_state(4)
        d = timing_seed_sequence(8, -105).generate_state(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_stream_domain_separated_from_power(self):
        from repro.power.characterization import weight_seed_sequence
        from repro.timing import timing_seed_sequence

        timing = timing_seed_sequence(7, -105).generate_state(4)
        power = weight_seed_sequence(7, -105).generate_state(4)
        assert not np.array_equal(timing, power)

    @staticmethod
    def _characterize(profiler, weights, calibrate_to_ps=180.0):
        return WeightTimingTable.characterize(
            profiler, weights=weights, n_transitions=120, seed=5,
            floor_ps=90.0, calibrate_to_ps=calibrate_to_ps)

    @staticmethod
    def _assert_tables_equal(a, b):
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.max_delay_ps, b.max_delay_ps)
        np.testing.assert_array_equal(a.combo_weight, b.combo_weight)
        np.testing.assert_array_equal(a.combo_act_from, b.combo_act_from)
        np.testing.assert_array_equal(a.combo_act_to, b.combo_act_to)
        np.testing.assert_array_equal(a.combo_delay_ps, b.combo_delay_ps)
        assert a.time_scale == b.time_scale
        assert a.psum_path_ps == b.psum_path_ps

    def test_sharded_bitwise_equal_to_serial(self, profiler, cores):
        cores(1)
        serial = self._characterize(profiler, self.WEIGHTS)
        cores(3)
        sharded = self._characterize(profiler, self.WEIGHTS)
        self._assert_tables_equal(serial, sharded)

    def test_independent_of_weight_order_and_chunking(self, profiler,
                                                      cores):
        cores(2)
        forward = self._characterize(profiler, self.WEIGHTS)
        cores(4)
        backward = self._characterize(profiler,
                                      list(reversed(self.WEIGHTS)))
        self._assert_tables_equal(forward, backward)

    def test_result_independent_of_weight_subset(self, profiler, cores):
        cores(1)
        full = self._characterize(profiler, self.WEIGHTS,
                                  calibrate_to_ps=None)
        solo = self._characterize(profiler, [64], calibrate_to_ps=None)
        assert full.max_delay_of(64) == solo.max_delay_of(64)
        full_combos = full.combos_for([64])
        solo_combos = solo.combos_for([64])
        for a, b in zip(full_combos, solo_combos):
            np.testing.assert_array_equal(a, b)

    def test_explicit_transitions_shared_and_shardable(
            self, profiler, sampled_transitions, cores):
        cores(1)
        serial = WeightTimingTable.characterize(
            profiler, weights=self.WEIGHTS,
            transitions=sampled_transitions, floor_ps=90.0)
        cores(2)
        sharded = WeightTimingTable.characterize(
            profiler, weights=self.WEIGHTS,
            transitions=sampled_transitions, floor_ps=90.0)
        self._assert_tables_equal(serial, sharded)
