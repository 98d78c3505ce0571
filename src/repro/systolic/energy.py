"""Per-layer power estimation of the systolic array.

Combines the per-weight MAC power table (Sec. III-A characterization)
with the tile schedule and the hardware variant's gating semantics:

* an **active** PE (inside the tile, streaming) burns the dynamic power
  of its stationary weight value plus un-gateable clock/register power;
* an **idle** PE (clocked but not streaming, or holding weight zero on
  Optimized HW where it is clock-gated) burns clock power on Standard HW
  and nothing dynamic on Optimized HW;
* a **power-gated** column (Optimized HW only) burns nothing at all;
* every non-power-gated PE leaks.

Supply-voltage scaling multiplies dynamic power by the V^2 law and
leakage by the super-linear FinFET law (see :mod:`repro.cells.voltage`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.cells.voltage import VoltageModel
from repro.power.characterization import WeightPowerTable
from repro.power.estimator import PowerBreakdown
from repro.systolic.config import HardwareVariant, SystolicConfig
from repro.systolic.mapping import TileSchedule

#: Size of the dense signed-8-bit weight-value lookup.
_LUT_SIZE = 1 << 8


@dataclass(frozen=True)
class ScheduleCounts:
    """Cycle-weighted occupancy statistics of one layer's schedule.

    Every quantity is an exact integer (stored in float64 for
    ``weight_counts``, far below 2**53), which is what makes the
    one-shot ``np.bincount`` reduction bit-identical to a per-tile
    accumulation loop: both sum the same integers.

    Attributes:
        weight_counts: ``(256,)`` — for each stationary weight value
            ``v``, the number of (PE, cycle) pairs where an in-tile PE
            holds ``v`` (tile occurrence count x tile cycles).
        tile_pe_cycles: Total in-tile (PE, cycle) pairs.
        idle_row_pe_cycles: (PE, cycle) pairs in rows below the tile.
        unused_col_pe_cycles: (PE, cycle) pairs in columns the tile
            does not occupy.
        total_cycles: Schedule cycles.
    """

    weight_counts: np.ndarray
    tile_pe_cycles: int
    idle_row_pe_cycles: int
    unused_col_pe_cycles: int
    total_cycles: int


def schedule_value_counts(schedule: TileSchedule,
                          weights: np.ndarray) -> ScheduleCounts:
    """Cycle-weighted stationary-value counts for a whole schedule.

    Tile ``(i, j)`` runs ``2·r_i + m + c_j`` cycles, a row term plus a
    column term, so each cell of ``W`` is weighted by its row's term
    plus its column's and the whole matrix reduces with one
    ``np.bincount``; the PE-cycle totals factor into sums over the two
    block vectors, in exact Python integers.  The counts are
    bit-identical to accumulating an integer bincount per tile, the
    loop the test suite keeps as its oracle.
    """
    weights = np.asarray(weights, dtype=np.int64)
    if weights.shape != (schedule.k, schedule.n):
        raise ValueError(
            f"weight matrix {weights.shape} does not match schedule "
            f"({schedule.k}, {schedule.n})"
        )
    index = weights - (-(1 << 7))
    if index.size and (index.min() < 0 or index.max() >= _LUT_SIZE):
        raise ValueError("weights outside the signed-8-bit range")

    config = schedule.config
    rows, cols = schedule.row_blocks, schedule.col_blocks
    row_terms = [2 * r + schedule.m for r in rows]
    cycle_map = np.add.outer(
        np.repeat(np.array(row_terms, dtype=np.float64), rows),
        np.repeat(np.array(cols, dtype=np.float64), cols))
    counts = np.bincount(index.ravel(), weights=cycle_map.ravel(),
                         minlength=_LUT_SIZE)

    return ScheduleCounts(
        weight_counts=counts,
        tile_pe_cycles=_tile_sum(row_terms, rows, cols, cols),
        idle_row_pe_cycles=_tile_sum(
            row_terms, [config.rows - r for r in rows], cols, cols),
        unused_col_pe_cycles=_tile_sum(
            row_terms, [config.rows] * len(rows), cols,
            [config.cols - c for c in cols]),
        total_cycles=schedule.total_cycles,
    )


def _tile_sum(row_terms: Sequence[int], row_pes: Sequence[int],
              col_terms: Sequence[int], col_pes: Sequence[int]) -> int:
    """``sum_ij (row_terms[i] + col_terms[j]) * row_pes[i] * col_pes[j]``:
    tile cycles times a PE count that factors by row and column block,
    summed over the grid as two products of per-axis sums."""
    return (sum(t * p for t, p in zip(row_terms, row_pes)) * sum(col_pes)
            + sum(row_pes) * sum(t * p for t, p in zip(col_terms, col_pes)))


@dataclass(frozen=True)
class MacPowerParams:
    """Per-MAC power figures consumed by the array model.

    Attributes:
        table: Per-weight-value power characterization.
        clock_power_uw: Clock-tree/register power one un-gated MAC burns
            every cycle regardless of data activity.  Roughly 15% of the
            mean MAC dynamic power, a typical clock-tree share.
    """

    table: WeightPowerTable
    clock_power_uw: float = 80.0

    @property
    def leakage_uw(self) -> float:
        """Leakage of a single MAC unit."""
        return self.table.leakage_uw


class ArrayPowerModel:
    """Estimates average array power for tiled layer workloads."""

    def __init__(self, config: SystolicConfig, params: MacPowerParams,
                 voltage_model: Optional[VoltageModel] = None) -> None:
        self.config = config
        self.params = params
        self.voltage_model = voltage_model or VoltageModel()
        table = params.table
        # Dense lookup over the full signed-8-bit range; values that were
        # not characterized (reduced-scale runs characterize a subset)
        # are linearly interpolated from their neighbours.  One
        # np.interp call has the bytes of the per-weight
        # ``table.dynamic_of(w, interpolate=True)`` loop the test suite
        # keeps as its oracle.
        self._weight_offset = -(1 << 7)
        self._dynamic_lut = np.interp(
            np.arange(self._weight_offset, 1 << 7), table.weights,
            table.dynamic_uw)

    def layer_power(self, schedule: TileSchedule, weights: np.ndarray,
                    variant: HardwareVariant,
                    vdd: Optional[float] = None) -> PowerBreakdown:
        """Cycle-weighted average power of a whole layer.

        One bincount over the whole schedule's stationary values
        (:func:`schedule_value_counts`) replaces the per-tile loop and
        per-PE fancy-index sum of the original implementation, which
        the test suite keeps as its oracle (equal to float rounding:
        it sums tile by tile).

        Args:
            schedule: Tile schedule of the layer.
            weights: Full ``(K, N)`` weight matrix the tiles slice.
            vdd: Optional scaled supply voltage.
        """
        counts = schedule_value_counts(schedule, weights)
        return self.power_from_counts(counts, variant, vdd)

    def power_from_counts(self, counts: ScheduleCounts,
                          variant: HardwareVariant,
                          vdd: Optional[float] = None) -> PowerBreakdown:
        """Gating semantics applied to cycle-weighted occupancy counts.

        The counts do not depend on the variant or the supply, so one
        :func:`schedule_value_counts` serves every variant at every
        voltage.
        """
        params = self.params
        weight_counts = counts.weight_counts
        zero_index = -self._weight_offset
        data_dynamic = float(weight_counts @ self._dynamic_lut)
        if variant.clock_gate_zero_weight:
            # Zero-weight PEs are gated: neither their (characterized)
            # data activity nor their clock power is burned.
            zero_pe_cycles = float(weight_counts[zero_index])
            data_dynamic -= zero_pe_cycles * float(
                self._dynamic_lut[zero_index])
            clocked_pe_cycles = counts.tile_pe_cycles - zero_pe_cycles
        else:
            clocked_pe_cycles = float(
                counts.tile_pe_cycles + counts.idle_row_pe_cycles)
            if not variant.power_gate_unused_columns:
                clocked_pe_cycles += counts.unused_col_pe_cycles
        total_pe_cycles = self.config.n_pes * counts.total_cycles
        if variant.power_gate_unused_columns:
            leaking_pe_cycles = total_pe_cycles - counts.unused_col_pe_cycles
        else:
            leaking_pe_cycles = total_pe_cycles

        total_cycles = counts.total_cycles
        return self._at_supply(PowerBreakdown(
            dynamic_uw=(data_dynamic
                        + clocked_pe_cycles * params.clock_power_uw
                        ) / total_cycles,
            leakage_uw=leaking_pe_cycles * params.leakage_uw / total_cycles,
        ), vdd)

    def combine(self, layers: Sequence[Tuple[PowerBreakdown, int]],
                vdd: Optional[float] = None) -> PowerBreakdown:
        """Cycle-weighted average of per-layer powers.

        Args:
            layers: ``(nominal-supply power, cycles)`` per layer.
            vdd: Optional scaled supply voltage for the average.
        """
        if not layers:
            raise ValueError("need at least one layer")
        energy_dyn = 0.0
        energy_leak = 0.0
        total_cycles = 0
        for power, cycles in layers:
            energy_dyn += power.dynamic_uw * cycles
            energy_leak += power.leakage_uw * cycles
            total_cycles += cycles
        return self._at_supply(PowerBreakdown(
            dynamic_uw=energy_dyn / total_cycles,
            leakage_uw=energy_leak / total_cycles,
        ), vdd)

    def network_power(self, layers: Sequence, variant: HardwareVariant,
                      vdd: Optional[float] = None) -> PowerBreakdown:
        """Cycle-weighted average power across layers.

        Args:
            layers: Sequence of ``(schedule, weights)`` pairs.
        """
        return self.combine(
            [(self.layer_power(schedule, weights, variant),
              schedule.total_cycles) for schedule, weights in layers],
            vdd)

    def _at_supply(self, breakdown: PowerBreakdown,
                   vdd: Optional[float]) -> PowerBreakdown:
        """``breakdown`` scaled from nominal supply to ``vdd``."""
        if vdd is None:
            return breakdown
        return breakdown.scaled(
            self.voltage_model.dynamic_power_scale(vdd),
            self.voltage_model.leakage_power_scale(vdd),
        )
