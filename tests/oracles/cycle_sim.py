"""Cycle-by-cycle oracle of the weight-stationary systolic array.

The tile-level model in :mod:`repro.systolic.array` is fast and
functionally exact; this is the slow-but-literal reference it is
checked against (``tests/test_cycle_sim.py``), the role Modelsim plays
in the paper's flow.  Every processing element is stepped every cycle:
activations enter the left edge with the classic one-cycle skew per
row, partial sums flow down the columns, and results drain from the
bottom edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.systolic.config import SystolicConfig


@dataclass
class CycleTrace:
    """Per-cycle operand record of one traced PE.

    Attributes:
        row / col: PE coordinates.
        activations: Activation operand seen each cycle (0 when idle).
        psums_in: Partial-sum input seen each cycle.
    """

    row: int
    col: int
    activations: List[int] = field(default_factory=list)
    psums_in: List[int] = field(default_factory=list)


class CycleAccurateArray:
    """Literal weight-stationary array: one matmul tile per run.

    The array holds ``weights`` (rows x cols) stationary.  Activation
    column ``t`` of the ``(rows, M)`` input matrix enters row ``i`` at
    cycle ``t + i`` (input skew); the partial sum produced by PE ``(i, j)``
    reaches PE ``(i+1, j)`` one cycle later; column ``j``'s result for
    stream position ``t`` leaves the bottom at cycle ``t + rows + j``.

    This is O(rows x cols x cycles) in Python-level numpy ops — only use
    it for validation and trace extraction, not for full networks.
    """

    def __init__(self, config: Optional[SystolicConfig] = None) -> None:
        self.config = config or SystolicConfig()

    def run_tile(self, weights: np.ndarray, activations: np.ndarray,
                 trace_pes: Tuple[Tuple[int, int], ...] = (),
                 ) -> Tuple[np.ndarray, List[CycleTrace]]:
        """Stream one tile through the array, cycle by cycle.

        Args:
            weights: ``(rows_used, cols_used)`` stationary weights.
            activations: ``(rows_used, M)`` activation stream.
            trace_pes: PE coordinates whose operand streams to record.

        Returns:
            ``(outputs, traces)`` where ``outputs[j, t]`` is column ``j``'s
            accumulated result for stream position ``t`` and ``traces``
            align with ``trace_pes``.
        """
        weights = np.asarray(weights, dtype=np.int64)
        activations = np.asarray(activations, dtype=np.int64)
        if weights.ndim != 2 or activations.ndim != 2:
            raise ValueError("weights and activations must be 2-D")
        rows, cols = weights.shape
        if rows > self.config.rows or cols > self.config.cols:
            raise ValueError(
                f"tile {rows}x{cols} exceeds the "
                f"{self.config.rows}x{self.config.cols} array"
            )
        if activations.shape[0] != rows:
            raise ValueError("activation rows must match weight rows")
        m = activations.shape[1]

        traces = [CycleTrace(row=r, col=c) for r, c in trace_pes]
        # act_reg[i]: activation currently held by row i (broadcast along
        # the row in a real array; the column skew only affects arrival
        # of partial sums, which we model through psum_reg).
        act_reg = np.zeros(rows, dtype=np.int64)
        act_valid = np.zeros(rows, dtype=bool)
        # psum_reg[i, j]: partial sum entering PE (i, j) this cycle.
        psum_reg = np.zeros((rows + 1, cols), dtype=np.int64)
        psum_valid = np.zeros((rows + 1, cols), dtype=bool)

        outputs = np.zeros((cols, m), dtype=np.int64)
        total_cycles = m + rows + 2
        for cycle in range(total_cycles):
            # Record traces before the array steps (operands *seen*).
            for trace in traces:
                i, j = trace.row, trace.col
                trace.activations.append(
                    int(act_reg[i]) if act_valid[i] else 0)
                trace.psums_in.append(int(psum_reg[i, j]))

            # Results leaving the bottom edge: PE (rows-1, j) processes
            # stream position t during cycle t + rows; the registered
            # result sits in psum_reg[rows, j] one cycle later.
            t_out = cycle - rows - 1
            if 0 <= t_out < m:
                valid = psum_valid[rows, :]
                outputs[valid, t_out] = psum_reg[rows, valid]

            # Compute this cycle's MACs (combinational) into the next
            # pipeline stage, bottom row first so registers shift cleanly.
            new_psum = np.zeros_like(psum_reg)
            new_valid = np.zeros_like(psum_valid)
            for i in range(rows - 1, -1, -1):
                if act_valid[i]:
                    new_psum[i + 1, :] = (psum_reg[i, :]
                                          + weights[i, :] * act_reg[i])
                    new_valid[i + 1, :] = True
            psum_reg, psum_valid = new_psum, new_valid

            # Shift in the next skewed activation diagonal: row i gets
            # stream position cycle - i.
            for i in range(rows):
                t_in = cycle - i
                if 0 <= t_in < m:
                    act_reg[i] = activations[i, t_in]
                    act_valid[i] = True
                else:
                    act_valid[i] = False
        return outputs, traces
