"""Functional simulation of the weight-stationary systolic array.

The simulation is *functionally exact* (it produces the same outputs a
cycle-accurate RTL run would) and exposes the operand streams every PE
observes, which is all the power/timing methodology consumes.  Cycle
counts come from the tile schedule.  This matches the paper's own
shortcut: they too simulate only representative layers because fully
cycle-accurate runs are prohibitively slow (Sec. IV).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.systolic.config import SystolicConfig
from repro.systolic.mapping import schedule_matmul
from repro.systolic.stats import TransitionStatsCollector


class SystolicArray:
    """Weight-stationary array executing matmul-shaped layer workloads.

    Args:
        config: Array geometry (defaults to the paper's 64x64).
        stats_columns: When collecting statistics, how many PE columns per
            tile to trace for partial-sum streams.  Tracing every PE of a
            big layer would allocate rows x cols x stream_length values;
            a column subsample keeps memory flat without biasing the
            transition statistics (columns are exchangeable).
        stats_stream_cap: Maximum stream length traced per tile.
    """

    def __init__(self, config: Optional[SystolicConfig] = None,
                 stats_columns: int = 8,
                 stats_stream_cap: int = 4096) -> None:
        self.config = config or SystolicConfig()
        if stats_columns < 1 or stats_stream_cap < 2:
            raise ValueError("stats sampling parameters too small")
        self.stats_columns = stats_columns
        self.stats_stream_cap = stats_stream_cap

    def _check_operands(self, weights: np.ndarray,
                        activations: np.ndarray) -> None:
        w_half = 1 << (self.config.weight_bits - 1)
        a_half = 1 << (self.config.act_bits - 1)
        if weights.size and (weights.min() < -w_half
                             or weights.max() >= w_half):
            raise ValueError(
                f"weights outside signed {self.config.weight_bits}-bit "
                f"range"
            )
        if activations.size and (activations.min() < -a_half
                                 or activations.max() >= a_half):
            raise ValueError(
                f"activations outside signed {self.config.act_bits}-bit "
                f"range"
            )

    def run_layer(self, weights: np.ndarray, activations: np.ndarray,
                  stats: Optional[TransitionStatsCollector] = None,
                  ) -> np.ndarray:
        """Execute ``out[N, M] = W[K, N]^T @ A[K, M]`` tile by tile.

        Args:
            weights: ``(K, N)`` signed integer weight matrix.
            activations: ``(K, M)`` signed integer activation matrix.
            stats: Optional collector; receives the activation stream of
                every used PE row and the partial-sum stream of every
                used PE.

        Returns:
            ``(N, M)`` int64 output matrix (exact).
        """
        weights = np.asarray(weights, dtype=np.int64)
        activations = np.asarray(activations, dtype=np.int64)
        if weights.ndim != 2 or activations.ndim != 2:
            raise ValueError("weights and activations must be 2-D")
        if weights.shape[0] != activations.shape[0]:
            raise ValueError(
                f"fan-in mismatch: W has K={weights.shape[0]}, "
                f"A has K={activations.shape[0]}"
            )
        self._check_operands(weights, activations)

        k, n = weights.shape
        m = activations.shape[1]
        schedule = schedule_matmul(k, n, m, self.config)
        out = np.zeros((n, m), dtype=np.int64)
        row_stop = 0
        for rows_used in schedule.row_blocks:
            row_start, row_stop = row_stop, row_stop + rows_used
            a_tile = activations[row_start:row_stop, :]
            col_stop = 0
            for cols_used in schedule.col_blocks:
                col_start, col_stop = col_stop, col_stop + cols_used
                w_tile = weights[row_start:row_stop, col_start:col_stop]
                out[col_start:col_stop, :] += w_tile.T @ a_tile
                if stats is not None:
                    self._collect_tile_stats(w_tile, a_tile, stats)
        return out

    def _collect_tile_stats(self, w_tile: np.ndarray, a_tile: np.ndarray,
                            stats: TransitionStatsCollector) -> None:
        """Feed the collector with per-PE operand streams of one tile.

        In a weight-stationary flow, PE row ``i`` sees the activation
        sequence ``a_tile[i, :]`` and the PE at ``(i, j)`` sees the
        partial-sum sequence ``cumsum_k<=i(w[k, j] * a[k, t])`` — the
        value arriving from the PE above, per streamed column.
        """
        a_traced = a_tile[:, :self.stats_stream_cap]
        stats.add_activation_streams(a_traced)
        # psums[i, t]: running sum down a column, exactly what the psum
        # input register of PE (i+1, j) carries over time.  A subsample
        # of columns bounds memory; columns are statistically
        # exchangeable for transition counting.
        cols = w_tile.shape[1]
        step = max(1, cols // self.stats_columns)
        for j in range(0, cols, step):
            products = w_tile[:, j:j + 1] * a_traced
            psums = np.cumsum(products, axis=0)
            stats.add_psum_streams(psums)
