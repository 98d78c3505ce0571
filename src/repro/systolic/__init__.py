"""Weight-stationary systolic-array simulator.

Substitute for the authors' synthesized 64x64 systolic array testbench:

* :mod:`repro.systolic.config` — array geometry and the two hardware
  variants of the paper (Standard HW / Optimized HW).
* :mod:`repro.systolic.spec` — :class:`AcceleratorSpec`, the cache-keyed
  design point (geometry x variant x mapping) the ``accel_*`` pipeline
  stages and the ``accel`` sweep axes evaluate.
* :mod:`repro.systolic.mapping` — the tile grid of a matmul-shaped
  layer workload on the array, with closed-form cycle accounting.
* :mod:`repro.systolic.array` — functional simulation producing exact
  outputs plus the operand streams each PE observes (its cycle-by-cycle
  reference lives with the test oracles).
* :mod:`repro.systolic.stats` — transition statistics collected from the
  streams (feeds the Fig. 4 distributions).
* :mod:`repro.systolic.energy` — per-layer power estimation from the
  per-weight power table, including clock/power gating and voltage
  scaling.
"""

from repro.systolic.config import (
    OPTIMIZED_HW,
    STANDARD_HW,
    HardwareVariant,
    SystolicConfig,
)
from repro.systolic.spec import (
    HW_VARIANTS,
    AcceleratorSpec,
    normalize_variant,
    parse_array_shape,
)
from repro.systolic.mapping import TileSchedule, schedule_matmul
from repro.systolic.array import SystolicArray
from repro.systolic.stats import TransitionStatsCollector
from repro.systolic.energy import (
    ArrayPowerModel,
    MacPowerParams,
    ScheduleCounts,
    schedule_value_counts,
)

__all__ = [
    "SystolicConfig",
    "HardwareVariant",
    "STANDARD_HW",
    "OPTIMIZED_HW",
    "AcceleratorSpec",
    "HW_VARIANTS",
    "normalize_variant",
    "parse_array_shape",
    "TileSchedule",
    "schedule_matmul",
    "SystolicArray",
    "TransitionStatsCollector",
    "ArrayPowerModel",
    "MacPowerParams",
    "ScheduleCounts",
    "schedule_value_counts",
]
