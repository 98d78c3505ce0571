"""Oracles of the accelerator power model in :mod:`repro.systolic.energy`.

:func:`tiles_of` lists a schedule's tiles one :class:`Tile` at a time,
walking the ``(k, n)`` grid in steps of the array's rows and columns;
it reads nothing of :class:`~repro.systolic.mapping.TileSchedule` but
its dimensions and geometry, so the loops below check production's
closed-form block sums against tiles built independently of them.

:func:`dynamic_lut_loop` is the per-weight loop that built
``ArrayPowerModel``'s 256-entry dynamic-power lookup before one
``np.interp`` call replaced it; the two must be byte-equal.

:func:`schedule_value_counts_loop` is the per-tile counting loop that
:func:`~repro.systolic.energy.schedule_value_counts` replaced with one
``np.bincount``.  Both count exact integers, so their counts, and the
power :func:`layer_power_loop` derives from them, must be bit-equal.

:func:`layer_power_reference` is the original per-tile power model:
:func:`tile_power` per tile, energies summed tile by tile.  It sums in
another order, so :meth:`~repro.systolic.energy.ArrayPowerModel.
layer_power` equals it to float rounding (``rtol`` 1e-9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.power.characterization import WeightPowerTable
from repro.power.estimator import PowerBreakdown
from repro.systolic.config import HardwareVariant
from repro.systolic.energy import ArrayPowerModel, ScheduleCounts
from repro.systolic.mapping import TileSchedule

#: Size of the dense signed-8-bit weight-value lookup.
_LUT_SIZE = 1 << 8


@dataclass(frozen=True)
class Tile:
    """One stationary weight tile of a layer's matmul.

    Attributes:
        row_start / row_stop: Fan-in slice held by the array rows.
        col_start / col_stop: Output-channel slice held by the columns.
        stream_length: Number of activation vectors streamed through.
    """

    row_start: int
    row_stop: int
    col_start: int
    col_stop: int
    stream_length: int

    @property
    def rows_used(self) -> int:
        return self.row_stop - self.row_start

    @property
    def cols_used(self) -> int:
        return self.col_stop - self.col_start

    def cycles(self) -> int:
        """Weight preload + streaming + pipeline fill/drain."""
        return (self.rows_used + self.stream_length
                + self.rows_used + self.cols_used)


def tiles_of(schedule: TileSchedule) -> List[Tile]:
    """The schedule's tiles in row-major order, one object each."""
    k, n, m = schedule.k, schedule.n, schedule.m
    rows, cols = schedule.config.rows, schedule.config.cols
    return [Tile(row_start, min(row_start + rows, k),
                 col_start, min(col_start + cols, n), stream_length=m)
            for row_start in range(0, k, rows)
            for col_start in range(0, n, cols)]


def dynamic_lut_loop(table: WeightPowerTable) -> np.ndarray:
    """Dynamic power of every signed 8-bit weight, one lookup each."""
    return np.array([table.dynamic_of(w, interpolate=True)
                     for w in range(-(1 << 7), 1 << 7)])


def schedule_value_counts_loop(schedule: TileSchedule,
                               weights: np.ndarray) -> ScheduleCounts:
    """Cycle-weighted stationary-value counts, accumulated per tile."""
    weights = np.asarray(weights, dtype=np.int64)
    config = schedule.config
    index = weights + (1 << 7)
    counts = np.zeros(_LUT_SIZE, dtype=np.int64)
    tile_pe_cycles = idle_row_pe_cycles = unused_col_pe_cycles = 0
    total_cycles = 0
    for tile in tiles_of(schedule):
        cycles = tile.cycles()
        tile_index = index[tile.row_start:tile.row_stop,
                           tile.col_start:tile.col_stop]
        counts += cycles * np.bincount(tile_index.ravel(),
                                       minlength=_LUT_SIZE)
        tile_pe_cycles += cycles * tile.rows_used * tile.cols_used
        idle_row_pe_cycles += (cycles * (config.rows - tile.rows_used)
                               * tile.cols_used)
        unused_col_pe_cycles += (cycles * (config.cols - tile.cols_used)
                                 * config.rows)
        total_cycles += cycles
    return ScheduleCounts(
        weight_counts=counts.astype(np.float64),
        tile_pe_cycles=tile_pe_cycles,
        idle_row_pe_cycles=idle_row_pe_cycles,
        unused_col_pe_cycles=unused_col_pe_cycles,
        total_cycles=total_cycles,
    )


def layer_power_loop(model: ArrayPowerModel, schedule: TileSchedule,
                     weights: np.ndarray, variant: HardwareVariant,
                     vdd: Optional[float] = None) -> PowerBreakdown:
    """``model.layer_power`` over the per-tile counts (bit-equal)."""
    return model.power_from_counts(
        schedule_value_counts_loop(schedule, weights), variant, vdd)


def tile_power(model: ArrayPowerModel, tile: Tile,
               tile_weights: np.ndarray,
               variant: HardwareVariant) -> PowerBreakdown:
    """Average power while one tile is streaming, at nominal voltage.

    Args:
        model: The array model (geometry, MAC power figures, LUT).
        tile: Tile geometry.
        tile_weights: ``(rows_used, cols_used)`` stationary weights.
        variant: Hardware gating features.
    """
    tile_weights = np.asarray(tile_weights, dtype=np.int64)
    if tile_weights.shape != (tile.rows_used, tile.cols_used):
        raise ValueError(
            f"tile weights shape {tile_weights.shape} does not match "
            f"tile {tile.rows_used}x{tile.cols_used}"
        )
    config, params = model.config, model.params

    flat = tile_weights.ravel()
    per_pe_dynamic = model._dynamic_lut[flat - model._weight_offset]
    if variant.clock_gate_zero_weight:
        ungated = flat != 0  # gated PEs burn neither data nor clock
        active_dynamic = float(per_pe_dynamic[ungated].sum())
        clocked_pes = int(ungated.sum())
    else:
        active_dynamic = float(per_pe_dynamic.sum())
        clocked_pes = flat.size

    used_cols = tile.cols_used
    idle_rows_pes = (config.rows - tile.rows_used) * used_cols
    unused_cols = config.cols - used_cols
    unused_col_pes = unused_cols * config.rows

    # Idle PEs (rows beyond the tile, or whole unused columns) carry
    # no data activity; whether they still burn clock power depends
    # on the gating features.
    if not variant.clock_gate_zero_weight:
        clocked_pes += idle_rows_pes
    if variant.power_gate_unused_columns:
        leaking_pes = config.n_pes - unused_col_pes
    else:
        if not variant.clock_gate_zero_weight:
            clocked_pes += unused_col_pes
        leaking_pes = config.n_pes

    dynamic = active_dynamic + clocked_pes * params.clock_power_uw
    leakage = leaking_pes * params.leakage_uw
    return PowerBreakdown(dynamic_uw=dynamic, leakage_uw=leakage)


def layer_power_reference(model: ArrayPowerModel, schedule: TileSchedule,
                          weights: np.ndarray, variant: HardwareVariant,
                          vdd: Optional[float] = None,
                          tiles: Optional[Sequence[Tile]] = None,
                          ) -> PowerBreakdown:
    """The original per-tile implementation of ``layer_power``.

    ``tiles`` are the schedule's :func:`tiles_of`, for a caller that
    built them already (``bench_accel.py`` builds them outside its
    timed region).
    """
    weights = np.asarray(weights, dtype=np.int64)
    if weights.shape != (schedule.k, schedule.n):
        raise ValueError(
            f"weight matrix {weights.shape} does not match schedule "
            f"({schedule.k}, {schedule.n})"
        )
    energy_dyn = 0.0
    energy_leak = 0.0
    total_cycles = 0
    for tile in tiles if tiles is not None else tiles_of(schedule):
        tile_w = weights[tile.row_start:tile.row_stop,
                         tile.col_start:tile.col_stop]
        power = tile_power(model, tile, tile_w, variant)
        cycles = tile.cycles()
        energy_dyn += power.dynamic_uw * cycles
        energy_leak += power.leakage_uw * cycles
        total_cycles += cycles
    breakdown = PowerBreakdown(
        dynamic_uw=energy_dyn / total_cycles,
        leakage_uw=energy_leak / total_cycles,
    )
    if vdd is not None:
        breakdown = breakdown.scaled(
            model.voltage_model.dynamic_power_scale(vdd),
            model.voltage_model.leakage_power_scale(vdd),
        )
    return breakdown
