"""Hypothesis property tests across the substrate.

Deeper randomized invariants than the per-module unit tests: arithmetic
generators at arbitrary widths, tiling partitions, distribution algebra
and restriction semantics.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import array_power
from oracles.netlists import read_output_bus
from repro.netlist import NetlistBuilder
from repro.netlist.adder import kogge_stone_adder, ripple_carry_adder
from repro.netlist.multiplier import booth_multiplier
from repro.power.transitions import TransitionDistribution
from repro.sim.logic import bus_inputs, evaluate
from repro.systolic import SystolicConfig, schedule_matmul
from repro.nn.restrict import ActivationFilter


class TestAdderWidthsProperty:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 2 ** 31 - 1),
           st.sampled_from([ripple_carry_adder, kogge_stone_adder]))
    def test_modular_addition_any_width(self, width, seed, generator):
        builder = NetlistBuilder()
        a = builder.input_bus("a", width)
        b = builder.input_bus("b", width)
        builder.mark_output_bus("sum", generator(builder, a, b))
        netlist = builder.build()
        rng = np.random.default_rng(seed)
        half = 1 << (width - 1)
        a_vals = rng.integers(-half, half, 100)
        b_vals = rng.integers(-half, half, 100)
        feed = bus_inputs("a", a_vals, width)
        feed.update(bus_inputs("b", b_vals, width))
        got = read_output_bus(netlist, evaluate(netlist, feed), "sum",
                              width)
        expected = ((a_vals + b_vals + half) % (2 * half)) - half
        np.testing.assert_array_equal(got, expected)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 2 ** 31 - 1))
    def test_adders_agree(self, width, seed):
        """Both adder topologies compute the identical function."""
        rng = np.random.default_rng(seed)
        half = 1 << (width - 1)
        a_vals = rng.integers(-half, half, 64)
        b_vals = rng.integers(-half, half, 64)
        results = []
        for generator in (ripple_carry_adder, kogge_stone_adder):
            builder = NetlistBuilder()
            a = builder.input_bus("a", width)
            b = builder.input_bus("b", width)
            builder.mark_output_bus("sum", generator(builder, a, b))
            netlist = builder.build()
            feed = bus_inputs("a", a_vals, width)
            feed.update(bus_inputs("b", b_vals, width))
            results.append(read_output_bus(
                netlist, evaluate(netlist, feed), "sum", width))
        np.testing.assert_array_equal(results[0], results[1])


class TestBoothWidthsProperty:
    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from([4, 6, 8]), st.integers(0, 2 ** 31 - 1))
    def test_booth_any_even_width(self, width, seed):
        builder = NetlistBuilder()
        act = builder.input_bus("act", width)
        weight = builder.input_bus("w", width)
        product = booth_multiplier(builder, act, weight,
                                   product_width=2 * width)
        builder.mark_output_bus("product", product)
        netlist = builder.build()
        rng = np.random.default_rng(seed)
        half = 1 << (width - 1)
        a_vals = rng.integers(-half, half, 200)
        w_vals = rng.integers(-half, half, 200)
        feed = bus_inputs("act", a_vals, width)
        feed.update(bus_inputs("w", w_vals, width))
        got = read_output_bus(netlist, evaluate(netlist, feed),
                              "product", 2 * width)
        np.testing.assert_array_equal(got, a_vals * w_vals)


class TestTilingProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 400), st.integers(1, 400), st.integers(1, 64),
           st.integers(2, 128), st.integers(2, 128))
    def test_tiles_partition_the_matrix(self, k, n, m, rows, cols):
        config = SystolicConfig(rows=rows, cols=cols)
        schedule = schedule_matmul(k, n, m, config)
        covered = np.zeros((k, n), dtype=int)
        for tile in array_power.tiles_of(schedule):
            assert 1 <= tile.rows_used <= rows
            assert 1 <= tile.cols_used <= cols
            covered[tile.row_start:tile.row_stop,
                    tile.col_start:tile.col_stop] += 1
        # exact partition: every weight sits in exactly one tile
        assert (covered == 1).all()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 400), st.integers(1, 400), st.integers(1, 64),
           st.integers(2, 128), st.integers(2, 128))
    def test_block_vectors_partition_each_axis(self, k, n, m, rows, cols):
        """Every block is full but the last one of its axis."""
        schedule = schedule_matmul(k, n, m,
                                   SystolicConfig(rows=rows, cols=cols))
        for blocks, size, block in ((schedule.row_blocks, k, rows),
                                    (schedule.col_blocks, n, cols)):
            assert sum(blocks) == size
            assert all(b == block for b in blocks[:-1])
            assert 1 <= blocks[-1] <= block
        assert len(schedule) == len(schedule.row_blocks) * len(
            schedule.col_blocks)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 300), st.integers(1, 64))
    def test_cycles_lower_bounded_by_streaming(self, k, n, m):
        config = SystolicConfig()
        schedule = schedule_matmul(k, n, m, config)
        assert schedule.total_cycles >= len(schedule) * m
        assert 0 < schedule.utilization <= 1.0


class TestDistributionProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 64), st.integers(0, 2 ** 31 - 1))
    def test_from_stream_mass_conservation(self, n_codes, seed):
        rng = np.random.default_rng(seed)
        stream = rng.integers(0, n_codes, 500)
        dist = TransitionDistribution.from_stream(stream, n_codes)
        assert dist.matrix.sum() == pytest.approx(1.0)
        assert dist.marginal_from().sum() == pytest.approx(1.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(4, 64), st.integers(0, 2 ** 31 - 1))
    def test_restriction_is_projection(self, n_codes, seed):
        rng = np.random.default_rng(seed)
        dist = TransitionDistribution(rng.random((n_codes, n_codes)))
        allowed = rng.choice(n_codes, size=max(2, n_codes // 2),
                             replace=False)
        once = dist.restricted(allowed)
        twice = once.restricted(allowed)
        np.testing.assert_allclose(once.matrix, twice.matrix, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(8, 64))
    def test_diagonal_mass_increases_with_band(self, n_codes):
        dist = TransitionDistribution.diagonal(n_codes)
        masses = [dist.diagonal_mass(b) for b in (1, 2, 4, 8)]
        assert masses == sorted(masses)
        assert masses[-1] <= 1.0 + 1e-9


class TestActivationFilterProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-128, 127), min_size=1, max_size=40),
           st.integers(0, 2 ** 31 - 1))
    def test_filtered_codes_always_allowed(self, allowed, seed):
        allowed = sorted(set(allowed + [0]))
        act_filter = ActivationFilter(allowed)
        rng = np.random.default_rng(seed)
        codes = rng.integers(-128, 128, 300)
        filtered = act_filter(codes)
        assert np.isin(filtered, np.asarray(allowed)).all()

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(-128, 127), min_size=2, max_size=40))
    def test_filter_preserves_order(self, allowed):
        """Projection onto a sorted set is monotone (non-decreasing)."""
        allowed = sorted(set(allowed + [0]))
        act_filter = ActivationFilter(allowed)
        codes = np.arange(-128, 128)
        filtered = act_filter(codes)
        assert (np.diff(filtered) >= 0).all()
