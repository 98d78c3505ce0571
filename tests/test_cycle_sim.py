"""Tests for the cycle-accurate systolic-array reference simulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.cycle_sim import CycleAccurateArray
from repro.systolic import SystolicArray, SystolicConfig


class TestCycleAccurateArray:
    def test_matches_matmul(self):
        rng = np.random.default_rng(0)
        weights = rng.integers(-127, 128, (8, 5))
        acts = rng.integers(-128, 128, (8, 12))
        outputs, __ = CycleAccurateArray().run_tile(weights, acts)
        np.testing.assert_array_equal(outputs, weights.T @ acts)

    def test_matches_fast_model(self):
        rng = np.random.default_rng(1)
        weights = rng.integers(-127, 128, (16, 10))
        acts = rng.integers(-128, 128, (16, 30))
        slow, __ = CycleAccurateArray().run_tile(weights, acts)
        fast = SystolicArray().run_layer(weights, acts)
        np.testing.assert_array_equal(slow, fast)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 12), st.integers(1, 25),
           st.integers(0, 2 ** 31 - 1))
    def test_matmul_property(self, rows, cols, m, seed):
        rng = np.random.default_rng(seed)
        weights = rng.integers(-127, 128, (rows, cols))
        acts = rng.integers(-128, 128, (rows, m))
        outputs, __ = CycleAccurateArray().run_tile(weights, acts)
        np.testing.assert_array_equal(outputs, weights.T @ acts)

    def test_tile_larger_than_array_rejected(self):
        array = CycleAccurateArray(SystolicConfig(rows=4, cols=4))
        with pytest.raises(ValueError, match="exceeds"):
            array.run_tile(np.zeros((8, 2)), np.zeros((8, 3)))

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            CycleAccurateArray().run_tile(np.zeros((4, 2)),
                                          np.zeros((5, 3)))

    def test_traced_activation_stream_is_skewed_input(self):
        rng = np.random.default_rng(2)
        weights = rng.integers(-127, 128, (4, 3))
        acts = rng.integers(-128, 128, (4, 6))
        __, traces = CycleAccurateArray().run_tile(
            weights, acts, trace_pes=((2, 1),))
        trace = traces[0]
        seen = [a for a in trace.activations if a != 0]
        # Row 2 sees exactly its activation stream (idle cycles are 0;
        # zero-valued operands inside the stream are legitimate, so only
        # verify the non-zero subsequence).
        expected = [a for a in acts[2].tolist() if a != 0]
        assert seen == expected

    def test_traced_psums_match_column_prefix_sums(self):
        rng = np.random.default_rng(3)
        weights = rng.integers(1, 50, (3, 2))      # nonzero operands
        acts = rng.integers(1, 50, (3, 5))
        __, traces = CycleAccurateArray().run_tile(
            weights, acts, trace_pes=((2, 0),))
        trace = traces[0]
        # PE (2, 0) receives, for each stream position t, the partial sum
        # of rows 0..1: w[0,0]*a[0,t] + w[1,0]*a[1,t].
        expected = (weights[0, 0] * acts[0] + weights[1, 0] * acts[1])
        nonzero = [p for p in trace.psums_in if p != 0]
        assert nonzero == expected.tolist()

    def test_fast_model_stats_streams_match_cycle_reference(self):
        """The tile-level stats collector feeds the same psum sequences a
        literal cycle simulation produces."""
        from repro.systolic.stats import TransitionStatsCollector

        rng = np.random.default_rng(4)
        weights = rng.integers(1, 30, (4, 1))
        acts = rng.integers(1, 30, (4, 8))

        # fast path: cumulative sums per column
        fast = np.cumsum(weights[:, 0:1] * acts, axis=0)
        # slow path: psum *inputs* of each PE in rows 1..n, plus the
        # bottom output row equal the same prefix sums
        __, traces = CycleAccurateArray().run_tile(
            weights, acts,
            trace_pes=tuple((i, 0) for i in range(1, 4)))
        for row, trace in zip(range(1, 4), traces):
            nonzero = [p for p in trace.psums_in if p != 0]
            assert nonzero == fast[row - 1].tolist()
