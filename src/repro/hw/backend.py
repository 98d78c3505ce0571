"""Hardware-backend specification.

PowerPruning is implementation-agnostic: the method only consumes the
measured per-weight power/timing characteristics of *some* MAC
implementation in *some* cell library.  A :class:`HardwareBackend` is
the frozen record of one such implementation point — cell-library
variant and scaling factors, multiplier/adder styles, datapath widths,
array operating point, calibration anchors and the voltage-scaling
model — plus builders for the concrete hardware objects every pipeline
stage runs against.

The spec is deliberately a plain frozen dataclass of hashable scalars:
its :meth:`key_payload` feeds the content-addressed stage cache, so two
backends that differ in any field can never share a cached artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Tuple

#: Styles accepted by :func:`repro.netlist.mac.build_mac_unit`.
MULTIPLIER_STYLES: Tuple[str, ...] = ("booth", "array")
ADDER_STYLES: Tuple[str, ...] = ("kogge_stone", "ripple")


@dataclass(frozen=True)
class HardwareBackend:
    """One MAC implementation point the pipeline can characterize.

    Attributes:
        backend_id: Unique registry name (e.g. ``"nangate15-booth"``).
        description: One-line human-readable summary.
        library_name: Base cell-library name.
        delay_factor / energy_factor / leakage_factor: Uniform cell
            scaling applied to the base library (1.0 = unscaled).
        nominal_voltage: Supply voltage the cell characteristics refer
            to, in volts.
        multiplier_style: ``"booth"`` (radix-4) or ``"array"``.
        adder_style: Partial-sum adder, ``"kogge_stone"`` or
            ``"ripple"``.
        act_bits / weight_bits / product_bits / psum_bits: Datapath
            widths.
        rows / cols: Systolic-array geometry.
        clock_period_ps: Array cycle time.
        power_anchor_uw: Calibration pin for the most expensive weight's
            average power (``None`` keeps raw library energies).
        delay_anchor_ps: Calibration pin for the globally slowest
            sensitized MAC delay (``None`` keeps raw library delays).
        vth / alpha: Alpha-power delay-law parameters.
        leakage_exponent: Exponent of the leakage voltage-scaling law.
        vdd_step / vdd_min: Voltage-search granularity and floor.
    """

    backend_id: str
    description: str
    # cell library
    library_name: str = "synth15"
    delay_factor: float = 1.0
    energy_factor: float = 1.0
    leakage_factor: float = 1.0
    nominal_voltage: float = 0.8
    # MAC netlist
    multiplier_style: str = "booth"
    adder_style: str = "kogge_stone"
    act_bits: int = 8
    weight_bits: int = 8
    product_bits: int = 16
    psum_bits: int = 22
    # array operating point
    rows: int = 64
    cols: int = 64
    clock_period_ps: float = 180.0
    # calibration anchors
    power_anchor_uw: Optional[float] = 1066.0
    delay_anchor_ps: Optional[float] = 180.0
    # voltage model
    vth: float = 0.30
    alpha: float = 1.73
    leakage_exponent: float = 3.0
    vdd_step: float = 0.01
    vdd_min: float = 0.5

    def __post_init__(self) -> None:
        if not self.backend_id:
            raise ValueError("backend_id must be non-empty")
        if self.multiplier_style not in MULTIPLIER_STYLES:
            raise ValueError(
                f"unknown multiplier style {self.multiplier_style!r}; "
                f"choose from {MULTIPLIER_STYLES}")
        if self.adder_style not in ADDER_STYLES:
            raise ValueError(
                f"unknown adder style {self.adder_style!r}; "
                f"choose from {ADDER_STYLES}")
        if min(self.delay_factor, self.energy_factor,
               self.leakage_factor) <= 0:
            raise ValueError("library scaling factors must be positive")

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------
    def build_library(self):
        """The backend's (possibly scaled) cell library.

        ``library_name`` selects the base library; ``"synth15"`` (the
        NanGate-15nm-shaped synthetic set) is the only one shipped, and
        unknown names fail here rather than silently falling back.
        """
        from repro.cells import default_library

        base_libraries = {"synth15": default_library}
        if self.library_name not in base_libraries:
            raise ValueError(
                f"unknown base cell library {self.library_name!r}; "
                f"available: {sorted(base_libraries)}")
        library = base_libraries[self.library_name](self.nominal_voltage)
        if (self.delay_factor, self.energy_factor,
                self.leakage_factor) == (1.0, 1.0, 1.0):
            return library
        return library.scaled(self.delay_factor, self.energy_factor,
                              self.leakage_factor,
                              name_suffix=f"-{self.backend_id}")

    def build_mac(self):
        """The backend's MAC unit (three netlist views)."""
        from repro.netlist import build_mac_unit

        return build_mac_unit(
            act_bits=self.act_bits, weight_bits=self.weight_bits,
            product_bits=self.product_bits, psum_bits=self.psum_bits,
            style=self.multiplier_style, adder_style=self.adder_style,
        )

    def build_systolic_config(self):
        """Array geometry/operating point matching the MAC widths."""
        from repro.systolic import SystolicConfig

        return SystolicConfig(
            rows=self.rows, cols=self.cols,
            act_bits=self.act_bits, weight_bits=self.weight_bits,
            psum_bits=self.psum_bits,
            clock_period_ps=self.clock_period_ps,
        )

    def build_voltage_model(self):
        """Voltage-scaling laws at this backend's operating point."""
        from repro.cells.voltage import VoltageModel

        return VoltageModel(
            vdd_nom=self.nominal_voltage, vth=self.vth,
            alpha=self.alpha, leakage_exponent=self.leakage_exponent,
            step=self.vdd_step, vdd_min=self.vdd_min,
        )

    # ------------------------------------------------------------------
    # cache keying
    # ------------------------------------------------------------------
    def key_payload(self) -> Dict[str, Any]:
        """Hashable record for content-addressed stage keys.

        The full spec (not just the id) participates, so redefining a
        backend id with different parameters also invalidates every
        artifact produced under the old definition.  Every field is a
        scalar, so a shallow dict is what ``dataclasses.asdict`` would
        build, without its deep copy.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}
