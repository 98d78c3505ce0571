"""Gate-level simulation engines.

Vectorized replacements for the commercial tooling the paper uses:

* :mod:`repro.sim.logic` — batched Boolean evaluation of a netlist
  (the role of Modelsim's functional simulation), executed by the
  level program of :mod:`repro.sim.program`.
* :mod:`repro.sim.switching` — toggle extraction between input patterns
  (the switching-activity files fed to Power Compiler).
* :mod:`repro.sim.dynamic_timing` — per-transition arrival-time
  propagation (dynamic timing analysis).
* :mod:`repro.sim.static_timing` — longest-path analysis (the role of
  Design Compiler's STA engine).
"""

from repro.sim.logic import (
    PackedValues,
    bits_to_int,
    evaluate,
    evaluate_words,
    int_to_bits,
    pack_bits,
    popcount_words,
    unpack_bits,
)
from repro.sim.program import LevelProgram
from repro.sim.switching import (
    paired_toggle_rates,
    paired_toggle_rates_words,
    toggle_matrix,
    toggle_rates,
)
from repro.sim.dynamic_timing import (
    dynamic_arrival_times,
    dynamic_bus_arrivals,
    dynamic_delays,
)
from repro.sim.static_timing import (
    static_arrival_times,
    static_max_delay,
    time_to_outputs,
)

__all__ = [
    "evaluate",
    "evaluate_words",
    "PackedValues",
    "pack_bits",
    "unpack_bits",
    "popcount_words",
    "int_to_bits",
    "bits_to_int",
    "toggle_matrix",
    "toggle_rates",
    "paired_toggle_rates",
    "paired_toggle_rates_words",
    "dynamic_arrival_times",
    "dynamic_bus_arrivals",
    "dynamic_delays",
    "LevelProgram",
    "static_arrival_times",
    "static_max_delay",
    "time_to_outputs",
]
