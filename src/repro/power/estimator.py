"""Switching activity to power, in the Power Compiler style.

Given per-net toggle rates from logic simulation and the per-cell energy
models of the library, dynamic power is the activity-weighted sum of cell
switching energies times the clock frequency; leakage is the sum of cell
leakage numbers.  Voltage scaling multiplies both components by the laws
in :mod:`repro.cells.voltage`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.cells.library import CellLibrary
from repro.cells.voltage import VoltageModel
from repro.netlist.gates import Netlist, PackedNetlist


@dataclass(frozen=True)
class PowerBreakdown:
    """Dynamic/leakage split of a power estimate, in microwatts."""

    dynamic_uw: float
    leakage_uw: float

    @property
    def total_uw(self) -> float:
        return self.dynamic_uw + self.leakage_uw

    def scaled(self, dynamic_factor: float,
               leakage_factor: float) -> "PowerBreakdown":
        """Component-wise scaling (e.g. for supply-voltage scaling)."""
        return PowerBreakdown(self.dynamic_uw * dynamic_factor,
                              self.leakage_uw * leakage_factor)

    def __add__(self, other: "PowerBreakdown") -> "PowerBreakdown":
        return PowerBreakdown(self.dynamic_uw + other.dynamic_uw,
                              self.leakage_uw + other.leakage_uw)


class PowerEstimator:
    """Computes netlist power from toggle statistics.

    Args:
        library: Cell library supplying energies and leakage.
        clock_period_ps: Clock period; the paper's array runs at ~180 ps
            ("around 5 GHz").
        energy_scale: Global calibration factor applied to dynamic energy
            (used to pin the Fig. 2 anchor points).
        voltage_model: Scaling laws used when estimating at a non-nominal
            supply voltage.
    """

    def __init__(self, library: CellLibrary, clock_period_ps: float = 180.0,
                 energy_scale: float = 1.0,
                 voltage_model: Optional[VoltageModel] = None) -> None:
        if clock_period_ps <= 0:
            raise ValueError("clock period must be positive")
        self.library = library
        self.clock_period_ps = clock_period_ps
        self.energy_scale = energy_scale
        self.voltage_model = voltage_model or VoltageModel(
            vdd_nom=library.nominal_voltage
        )
        # (packed view, per-net energies) memoized per *caller-supplied*
        # netlist object — the stable identity across repeated
        # estimates — so passing the same Netlist many times neither
        # re-packs it nor re-walks the library per gate.  Capped so a
        # caller streaming fresh netlists cannot grow it unboundedly.
        self._energy_cache: Dict[int, Tuple[object, PackedNetlist,
                                            np.ndarray]] = {}

    _ENERGY_CACHE_MAX = 16

    def packed_energies(self, netlist: Union[Netlist, PackedNetlist]
                        ) -> Tuple[PackedNetlist, np.ndarray]:
        """Packed view + per-net switching energies, memoized.

        Keyed on the identity of ``netlist`` itself, so callers that
        hold one circuit and estimate repeatedly (the characterization
        hot path) pay the per-type library lookup once.  The packed
        view's level schedule and its level program are built
        eagerly here, so the simulation kernels it feeds (and any
        workers the memoized view is shipped to) never pay the
        levelization or program flattening inside their inner loops.
        """
        entry = self._energy_cache.get(id(netlist))
        if entry is None or entry[0] is not netlist:
            packed = (netlist if isinstance(netlist, PackedNetlist)
                      else netlist.packed())
            packed.schedule  # build + cache the levelized plan
            packed.program   # ... and its level program
            if len(self._energy_cache) >= self._ENERGY_CACHE_MAX:
                self._energy_cache.clear()
            entry = (netlist, packed, packed.gate_energies(self.library))
            self._energy_cache[id(netlist)] = entry
        return entry[1], entry[2]

    @property
    def frequency_ghz(self) -> float:
        """Clock frequency in GHz."""
        return 1000.0 / self.clock_period_ps

    def dynamic_power_uw(self, netlist: Union[Netlist, PackedNetlist],
                         toggle_rates: np.ndarray,
                         vdd: Optional[float] = None) -> float:
        """Dynamic power in µW for per-net toggle probabilities per cycle.

        ``fJ/cycle x GHz = µW`` keeps the unit bookkeeping trivial.
        """
        __, energies = self.packed_energies(netlist)
        energy_fj = float(np.dot(toggle_rates, energies))
        power = energy_fj * self.frequency_ghz * self.energy_scale
        if vdd is not None:
            power *= self.voltage_model.dynamic_power_scale(vdd)
        return power

    def leakage_power_uw(self, netlist: Union[Netlist, PackedNetlist],
                         vdd: Optional[float] = None) -> float:
        """Leakage power in µW of all cells in the netlist."""
        packed, __ = self.packed_energies(netlist)
        power = packed.total_leakage_nw(self.library) / 1000.0
        if vdd is not None:
            power *= self.voltage_model.leakage_power_scale(vdd)
        return power

    def power(self, netlist: Union[Netlist, PackedNetlist],
              toggle_rates: np.ndarray,
              vdd: Optional[float] = None) -> PowerBreakdown:
        """Full dynamic + leakage estimate as a :class:`PowerBreakdown`."""
        return PowerBreakdown(
            dynamic_uw=self.dynamic_power_uw(netlist, toggle_rates, vdd),
            leakage_uw=self.leakage_power_uw(netlist, vdd),
        )
