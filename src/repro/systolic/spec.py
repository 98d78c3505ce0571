"""Accelerator evaluation point: geometry + gating + mapping knobs.

An :class:`AcceleratorSpec` names one point of the accelerator design
space the ``accel_*`` pipeline stages evaluate: the array geometry
(``rows x cols``, defaulting to the hardware backend's own
:meth:`~repro.hw.HardwareBackend.build_systolic_config` geometry), the
paper's hardware variant (Standard vs Optimized HW gating features) and
the mapping knobs that shape the tile schedule.

Like :class:`~repro.hw.HardwareBackend`, the spec is a frozen dataclass
of plain scalars whose :meth:`key_payload` feeds the content-addressed
stage cache — but deliberately *only* through the ``accel_schedule`` /
``accel_eval`` stage keys: changing the array geometry must never
invalidate the training/characterization prefix (``power_table``,
``timing_table``, ...) or the ``accel_layers`` trace of the pruned
model, which is what makes a design-space sweep over geometries share
one characterization run and one trace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple, Union

from repro.systolic.config import (
    OPTIMIZED_HW,
    STANDARD_HW,
    HardwareVariant,
    SystolicConfig,
)

__all__ = [
    "AcceleratorSpec",
    "HW_VARIANTS",
    "normalize_variant",
    "parse_array_shape",
]

#: The paper's two array implementations, by spec name.
HW_VARIANTS: Dict[str, HardwareVariant] = {
    "standard": STANDARD_HW,
    "optimized": OPTIMIZED_HW,
}


def normalize_variant(name: Union[str, HardwareVariant]) -> str:
    """Canonical variant name (``standard``/``optimized``)."""
    if isinstance(name, HardwareVariant):
        for key, variant in HW_VARIANTS.items():
            if variant == name:
                return key
        raise ValueError(f"unregistered hardware variant {name!r}")
    lowered = str(name).strip().lower().replace(" hw", "")
    if lowered not in HW_VARIANTS:
        raise ValueError(f"unknown hardware variant {name!r}; "
                         f"choose from {sorted(HW_VARIANTS)}")
    return lowered


def parse_array_shape(value: Any) -> Optional[Tuple[int, int]]:
    """``(rows, cols)`` from a shape in any accepted spelling.

    Accepts ``None``/``"hw"``/``"default"`` (= the backend's own
    geometry), ``"32x32"``/``"32"`` strings, bare ints (square array)
    and 2-sequences.
    """
    if value is None:
        return None
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("", "hw", "default", "none"):
            return None
        parts = text.split("x")
        if len(parts) == 1:
            parts = [parts[0], parts[0]]
        if len(parts) != 2:
            raise ValueError(f"array shape {value!r} must look like "
                             f"'ROWSxCOLS' (e.g. '32x32')")
        try:
            rows, cols = (int(p) for p in parts)
        except ValueError:
            raise ValueError(f"array shape {value!r} must be integer "
                             f"'ROWSxCOLS'") from None
        return rows, cols
    if isinstance(value, int):
        return int(value), int(value)
    shape = tuple(int(v) for v in value)
    if len(shape) != 2:
        raise ValueError(f"array shape {value!r} must have exactly "
                         f"two entries (rows, cols)")
    return shape


@dataclass(frozen=True)
class AcceleratorSpec:
    """One accelerator design point (geometry + gating + mapping).

    Attributes:
        rows / cols: PE grid size; ``None`` defers to the hardware
            backend's :meth:`build_systolic_config` geometry (the
            paper's 64x64 on the shipped backends).
        variant: ``"standard"`` (no power management) or
            ``"optimized"`` (zero-weight clock gating + unused-column
            power gating), per Sec. IV.
        stream_batch: Inferences streamed through each stationary
            weight tile before the next tile is loaded — the mapping
            knob trading weight-reload cycles against buffer pressure
            (1 = the paper's per-inference schedule).
    """

    rows: Optional[int] = None
    cols: Optional[int] = None
    variant: str = "standard"
    stream_batch: int = 1

    def __post_init__(self) -> None:
        for name in ("rows", "cols"):
            value = getattr(self, name)
            if value is not None and int(value) < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.variant not in HW_VARIANTS:
            raise ValueError(
                f"unknown hardware variant {self.variant!r}; "
                f"choose from {sorted(HW_VARIANTS)}")
        if int(self.stream_batch) < 1:
            raise ValueError("stream_batch must be >= 1")

    # ------------------------------------------------------------------
    # resolution against a backend's base geometry
    # ------------------------------------------------------------------
    def resolved(self, base: SystolicConfig) -> "AcceleratorSpec":
        """The same spec with ``None`` geometry filled from ``base``.

        Stage keys hash the *resolved* spec, so an explicit
        ``64x64`` request and the default geometry of a 64x64 backend
        share their ``accel_*`` artifacts.
        """
        return replace(self,
                       rows=int(self.rows if self.rows is not None
                                else base.rows),
                       cols=int(self.cols if self.cols is not None
                                else base.cols))

    def resolve_config(self, base: SystolicConfig) -> SystolicConfig:
        """Array geometry of this spec on top of the backend's
        datapath widths and operating point."""
        spec = self.resolved(base)
        return SystolicConfig(
            rows=spec.rows, cols=spec.cols,
            act_bits=base.act_bits, weight_bits=base.weight_bits,
            psum_bits=base.psum_bits,
            clock_period_ps=base.clock_period_ps,
        )

    def hardware_variant(self) -> HardwareVariant:
        return HW_VARIANTS[self.variant]

    # ------------------------------------------------------------------
    # cache keying / display
    # ------------------------------------------------------------------
    def geometry_payload(self) -> Dict[str, Any]:
        """The schedule-relevant half of the key: geometry + mapping.

        The hardware variant is deliberately absent — Standard and
        Optimized HW share one tile schedule and its occupancy counts,
        so ``accel_schedule`` must key on geometry alone.
        """
        return {"rows": self.rows, "cols": self.cols,
                "stream_batch": int(self.stream_batch)}

    def key_payload(self) -> Dict[str, Any]:
        """Full hashable record for ``accel_eval`` stage keys."""
        payload = self.geometry_payload()
        payload["variant"] = self.variant
        return payload

    def describe(self, base: Optional[SystolicConfig] = None) -> str:
        """``64x64/optimized`` style label (resolved when possible)."""
        spec = self.resolved(base) if base is not None else self
        rows = "hw" if spec.rows is None else f"{spec.rows}"
        cols = "hw" if spec.cols is None else f"{spec.cols}"
        label = f"{rows}x{cols}/{spec.variant}"
        if spec.stream_batch != 1:
            label += f"/b{spec.stream_batch}"
        return label

