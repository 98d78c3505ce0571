"""Tests for the systolic-array simulator, stats and power model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import array_power
from repro.power.characterization import WeightPowerTable
from repro.systolic import (
    OPTIMIZED_HW,
    STANDARD_HW,
    ArrayPowerModel,
    MacPowerParams,
    SystolicArray,
    SystolicConfig,
    TransitionStatsCollector,
    schedule_matmul,
)


class TestConfig:
    def test_defaults_match_paper(self):
        config = SystolicConfig()
        assert config.rows == config.cols == 64
        assert config.psum_bits == 22
        assert config.clock_period_ps == pytest.approx(180.0)
        assert config.n_pes == 4096

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SystolicConfig(rows=0)

    def test_narrow_psum_rejected(self):
        with pytest.raises(ValueError):
            SystolicConfig(psum_bits=10)

    def test_variants(self):
        assert not STANDARD_HW.clock_gate_zero_weight
        assert OPTIMIZED_HW.clock_gate_zero_weight
        assert OPTIMIZED_HW.power_gate_unused_columns


class TestMapping:
    def test_single_tile(self):
        schedule = schedule_matmul(32, 16, 100, SystolicConfig())
        assert len(schedule) == 1
        assert schedule.row_blocks == (32,)
        assert schedule.col_blocks == (16,)
        assert schedule.total_cycles == 32 + 100 + 32 + 16

    def test_multi_tile_grid(self):
        schedule = schedule_matmul(150, 70, 10, SystolicConfig())
        # ceil(150/64) x ceil(70/64) = 3 x 2 tiles
        assert len(schedule) == 6
        assert schedule.row_blocks == (64, 64, 22)
        assert schedule.col_blocks == (64, 6)

    def test_total_macs(self):
        schedule = schedule_matmul(10, 20, 30, SystolicConfig())
        assert schedule.total_macs == 6000

    def test_utilization_bounds(self):
        schedule = schedule_matmul(64, 64, 5000, SystolicConfig())
        assert 0.0 < schedule.utilization <= 1.0

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            schedule_matmul(0, 4, 4, SystolicConfig())


class TestSystolicArray:
    def test_exact_matmul(self):
        rng = np.random.default_rng(0)
        weights = rng.integers(-127, 128, (100, 30))
        acts = rng.integers(-128, 128, (100, 55))
        out = SystolicArray().run_layer(weights, acts)
        np.testing.assert_array_equal(out, weights.T @ acts)

    def test_multi_tile_matmul(self):
        rng = np.random.default_rng(1)
        weights = rng.integers(-127, 128, (200, 130))
        acts = rng.integers(-128, 128, (200, 40))
        out = SystolicArray().run_layer(weights, acts)
        np.testing.assert_array_equal(out, weights.T @ acts)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 80), st.integers(1, 80), st.integers(2, 40))
    def test_matmul_property(self, k, n, m):
        rng = np.random.default_rng(k * 1000 + n * 10 + m)
        weights = rng.integers(-127, 128, (k, n))
        acts = rng.integers(-128, 128, (k, m))
        out = SystolicArray().run_layer(weights, acts)
        np.testing.assert_array_equal(out, weights.T @ acts)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 80), st.integers(1, 80), st.integers(2, 40),
           st.integers(1, 24), st.integers(1, 24))
    def test_block_walk_feeds_stats_in_tile_order(self, k, n, m, rows,
                                                  cols):
        """On any geometry the block walk is exact and feeds the
        collector what a walk over the oracle's tiles feeds it."""
        array = SystolicArray(SystolicConfig(rows=rows, cols=cols))
        rng = np.random.default_rng(k * 1000 + n * 10 + m)
        weights = rng.integers(-127, 128, (k, n))
        acts = rng.integers(-128, 128, (k, m))
        stats = TransitionStatsCollector(max_psum_samples=500)
        out = array.run_layer(weights, acts, stats=stats)
        np.testing.assert_array_equal(out, weights.T @ acts)
        want = TransitionStatsCollector(max_psum_samples=500)
        schedule = schedule_matmul(k, n, m, array.config)
        for tile in array_power.tiles_of(schedule):
            rows_slice = slice(tile.row_start, tile.row_stop)
            array._collect_tile_stats(
                weights[rows_slice, tile.col_start:tile.col_stop],
                acts[rows_slice], want)
        np.testing.assert_array_equal(
            stats.activation_distribution().matrix,
            want.activation_distribution().matrix)
        for got, expected in zip(stats.psum_pairs(), want.psum_pairs()):
            np.testing.assert_array_equal(got, expected)

    def test_operand_range_checked(self):
        arr = SystolicArray()
        with pytest.raises(ValueError, match="weights"):
            arr.run_layer(np.array([[300]]), np.array([[1]]))
        with pytest.raises(ValueError, match="activations"):
            arr.run_layer(np.array([[1]]), np.array([[300]]))

    def test_fanin_mismatch(self):
        with pytest.raises(ValueError, match="fan-in"):
            SystolicArray().run_layer(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_stats_collection(self):
        rng = np.random.default_rng(2)
        weights = rng.integers(-127, 128, (64, 16))
        acts = rng.integers(-128, 128, (64, 200))
        stats = TransitionStatsCollector()
        SystolicArray().run_layer(weights, acts, stats=stats)
        assert stats.n_act_transitions > 0
        assert stats.n_psum_transitions > 0
        dist = stats.activation_distribution()
        assert dist.matrix.sum() == pytest.approx(1.0)


class TestStatsCollector:
    def test_diagonal_streams_give_diagonal_distribution(self):
        stats = TransitionStatsCollector()
        walk = np.cumsum(
            np.random.default_rng(3).integers(-3, 4, (5, 500)), axis=1)
        walk = np.clip(walk, -128, 127)
        stats.add_activation_streams(walk)
        dist = stats.activation_distribution()
        assert dist.diagonal_mass(8) > 0.9

    def test_empty_collector_raises(self):
        stats = TransitionStatsCollector()
        with pytest.raises(RuntimeError):
            stats.activation_distribution()
        with pytest.raises(RuntimeError):
            stats.psum_pairs()

    def test_psum_reservoir_cap(self):
        stats = TransitionStatsCollector(max_psum_samples=100)
        streams = np.random.default_rng(4).integers(
            -(1 << 20), 1 << 20, (10, 200))
        stats.add_psum_streams(streams)
        stats.add_psum_streams(streams)
        f, t = stats.psum_pairs()
        assert f.size == 100
        assert stats.n_psum_transitions == 2 * 10 * 199

    def test_binned_psum_transitions(self):
        stats = TransitionStatsCollector()
        streams = np.random.default_rng(5).integers(
            -(1 << 20), 1 << 20, (4, 800))
        stats.add_psum_streams(streams)
        binned = stats.binned_psum_transitions(n_bins=8)
        assert binned.distribution.n_codes == 8

    def test_short_streams_ignored(self):
        stats = TransitionStatsCollector()
        stats.add_activation_streams(np.zeros((3, 1)))
        assert stats.n_act_transitions == 0


def _table():
    weights = np.arange(-127, 128)
    dynamic = 300.0 + 5.0 * np.abs(weights)
    dynamic[127] = 50.0  # weight zero is by far the cheapest
    return WeightPowerTable(
        weights=weights,
        power_uw=dynamic + 10.0,
        dynamic_uw=dynamic,
        leakage_uw=10.0,
        clock_period_ps=180.0,
    )


@pytest.fixture(scope="module")
def power_model():
    return ArrayPowerModel(SystolicConfig(),
                           MacPowerParams(table=_table()))


class TestArrayPowerModel:
    def test_optimized_below_standard(self, power_model):
        rng = np.random.default_rng(6)
        weights = rng.integers(-127, 128, (64, 16))
        schedule = schedule_matmul(64, 16, 500, SystolicConfig())
        std = power_model.layer_power(schedule, weights, STANDARD_HW)
        opt = power_model.layer_power(schedule, weights, OPTIMIZED_HW)
        assert opt.total_uw < std.total_uw
        assert opt.leakage_uw < std.leakage_uw

    def test_zero_weights_save_power_on_optimized(self, power_model):
        schedule = schedule_matmul(64, 16, 500, SystolicConfig())
        rng = np.random.default_rng(7)
        dense = rng.integers(1, 128, (64, 16))
        sparse = dense.copy()
        sparse[::2, :] = 0
        dense_p = power_model.layer_power(schedule, dense, OPTIMIZED_HW)
        sparse_p = power_model.layer_power(schedule, sparse, OPTIMIZED_HW)
        assert sparse_p.dynamic_uw < dense_p.dynamic_uw

    def test_zero_weights_keep_clock_power_on_standard(self, power_model):
        schedule = schedule_matmul(64, 16, 500, SystolicConfig())
        zeros = np.zeros((64, 16), dtype=np.int64)
        std = power_model.layer_power(schedule, zeros, STANDARD_HW)
        clock = power_model.params.clock_power_uw
        # every PE is still clocked on Standard HW
        expected = SystolicConfig().n_pes * clock + \
            64 * 16 * power_model.params.table.dynamic_of(0)
        assert std.dynamic_uw == pytest.approx(expected)

    def test_voltage_scaling_reduces_power(self, power_model):
        schedule = schedule_matmul(64, 16, 500, SystolicConfig())
        rng = np.random.default_rng(8)
        weights = rng.integers(-127, 128, (64, 16))
        nominal = power_model.layer_power(schedule, weights, OPTIMIZED_HW)
        scaled = power_model.layer_power(schedule, weights, OPTIMIZED_HW,
                                         vdd=0.71)
        assert scaled.total_uw < nominal.total_uw

    def test_weight_shape_validated(self, power_model):
        schedule = schedule_matmul(64, 16, 500, SystolicConfig())
        with pytest.raises(ValueError):
            power_model.layer_power(schedule, np.zeros((10, 10)),
                                    STANDARD_HW)

    def test_network_power_cycle_weighted(self, power_model):
        config = SystolicConfig()
        rng = np.random.default_rng(9)
        layers = []
        for k, n, m in ((64, 16, 300), (128, 32, 100)):
            weights = rng.integers(-127, 128, (k, n))
            layers.append((schedule_matmul(k, n, m, config), weights))
        total = power_model.network_power(layers, OPTIMIZED_HW)
        singles = [
            power_model.layer_power(s, w, OPTIMIZED_HW)
            for s, w in layers
        ]
        low = min(p.total_uw for p in singles)
        high = max(p.total_uw for p in singles)
        assert low <= total.total_uw <= high

    def test_network_power_empty_rejected(self, power_model):
        with pytest.raises(ValueError):
            power_model.network_power([], STANDARD_HW)
