"""Tiling of layer workloads onto the weight-stationary array.

A convolution or dense layer is lowered (via im2col) to the matmul
``out[N, M] = W[K, N]^T @ A[K, M]`` with ``K`` the fan-in, ``N`` the
output channels and ``M`` the output positions.  The array holds a
``rows x cols`` tile of ``W`` stationary while the ``M`` activation
columns stream through, so the workload becomes a row-major grid of
``ceil(K/rows) x ceil(N/cols)`` tiles.  Row block ``i`` holds ``r_i``
fan-in rows and column block ``j`` holds ``c_j`` output channels: every
block is full but the last of each axis.

Cycle accounting per tile: ``r_i`` cycles to preload weights, then
``M`` streaming cycles plus ``r_i + c_j`` pipeline fill/drain, so tile
``(i, j)`` takes ``2·r_i + M + c_j`` cycles.  The grid is determined by
``(K, N, M)`` and the geometry, which makes every aggregate a closed
form over the two block vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.systolic.config import SystolicConfig


def _blocks(size: int, block: int) -> Tuple[int, ...]:
    """Lengths of ``size`` split into ``block``-long pieces, last short."""
    full, rest = divmod(size, block)
    return (block,) * full + ((rest,) if rest else ())


@dataclass(frozen=True)
class TileSchedule:
    """The tile grid of one layer's matmul, with its cycle statistics."""

    config: SystolicConfig
    k: int
    n: int
    m: int

    @property
    def row_blocks(self) -> Tuple[int, ...]:
        """Array rows used by each row of tiles (fan-in slices)."""
        return _blocks(self.k, self.config.rows)

    @property
    def col_blocks(self) -> Tuple[int, ...]:
        """Array columns used by each column of tiles (output slices)."""
        return _blocks(self.n, self.config.cols)

    @property
    def total_cycles(self) -> int:
        """Sum over tiles of ``2·r_i + m + c_j``: the ``r_i`` sum to
        ``k`` and the ``c_j`` to ``n``."""
        n_row_blocks = len(self.row_blocks)
        n_col_blocks = len(self.col_blocks)
        return (n_col_blocks * (2 * self.k + n_row_blocks * self.m)
                + n_row_blocks * self.n)

    @property
    def total_macs(self) -> int:
        """Useful multiply-accumulates in the layer."""
        return self.k * self.n * self.m

    @property
    def utilization(self) -> float:
        """Useful MACs over PE-cycles spent (0..1)."""
        spent = self.total_cycles * self.config.n_pes
        return self.total_macs / spent if spent else 0.0

    def __len__(self) -> int:
        return len(self.row_blocks) * len(self.col_blocks)


def schedule_matmul(k: int, n: int, m: int,
                    config: SystolicConfig) -> TileSchedule:
    """Tile the matmul ``W[K, N]^T @ A[K, M]`` onto the array.

    Args:
        k: Fan-in (reduction) dimension, mapped to array rows.
        n: Output channels, mapped to array columns.
        m: Streamed activation vectors (output positions x batch).
        config: Array geometry.
    """
    if min(k, n, m) < 1:
        raise ValueError("matmul dimensions must be positive")
    return TileSchedule(config=config, k=k, n=n, m=m)
