"""Named registry of hardware backends.

Backends are registered once at import time (the built-ins below) or by
user code via :func:`register_backend`; a ``PipelineConfig`` made with a
backend id looks it up here through :func:`get_backend`, once, and
keeps the spec.  The CLI's ``--backend`` / ``--list-backends`` flags are
thin wrappers over the same registry.
"""

from __future__ import annotations

from typing import Dict, List

from repro.hw.backend import HardwareBackend

#: The paper's baseline implementation; every pre-backend artifact key
#: and default pipeline run maps onto this backend.
DEFAULT_BACKEND_ID = "nangate15-booth"

_REGISTRY: Dict[str, HardwareBackend] = {}


def register_backend(backend: HardwareBackend,
                     replace: bool = False) -> HardwareBackend:
    """Add ``backend`` to the registry under its ``backend_id``.

    Args:
        backend: The spec to register.
        replace: Allow overwriting an existing id (off by default so a
            typo cannot silently shadow a built-in).
    """
    if not replace and backend.backend_id in _REGISTRY:
        raise ValueError(
            f"backend {backend.backend_id!r} already registered; "
            f"pass replace=True to overwrite")
    _REGISTRY[backend.backend_id] = backend
    return backend


def get_backend(backend_id: str) -> HardwareBackend:
    """Look up a registered backend by id."""
    try:
        return _REGISTRY[backend_id]
    except KeyError:
        raise ValueError(
            f"unknown hardware backend {backend_id!r}; "
            f"available: {list_backends()}") from None


def list_backends() -> List[str]:
    """Registered backend ids, sorted, default first."""
    ids = sorted(_REGISTRY)
    if DEFAULT_BACKEND_ID in ids:
        ids.remove(DEFAULT_BACKEND_ID)
        ids.insert(0, DEFAULT_BACKEND_ID)
    return ids


def describe_backends() -> str:
    """One line per registered backend, for ``--list-backends``."""
    width = max(len(b) for b in _REGISTRY)
    lines = []
    for backend_id in list_backends():
        backend = _REGISTRY[backend_id]
        marker = "*" if backend_id == DEFAULT_BACKEND_ID else " "
        lines.append(f"{marker} {backend_id:<{width}}  "
                     f"{backend.description}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# built-in backends
# ----------------------------------------------------------------------
register_backend(HardwareBackend(
    backend_id="nangate15-booth",
    description="Booth radix-4 multiplier + Kogge-Stone adder on the "
                "NanGate-15nm-calibrated library (paper baseline)",
))

register_backend(HardwareBackend(
    backend_id="nangate15-array",
    description="AND-gated signed array multiplier (subtracted sign "
                "row) + Kogge-Stone adder, same 15 nm library",
    multiplier_style="array",
))

register_backend(HardwareBackend(
    backend_id="nangate15-ripple",
    description="Booth multiplier + ripple-carry partial-sum adder, "
                "same 15 nm library (area-lean, adder-dominated timing)",
    adder_style="ripple",
))

register_backend(HardwareBackend(
    backend_id="scaled-45nm",
    description="45 nm-class voltage/energy point (1.1 V nominal, "
                "scaled cell energies/leakage), delay-normalized to "
                "the 180 ps baseline clock",
    energy_factor=2.2,
    leakage_factor=1.6,
    nominal_voltage=1.1,
    power_anchor_uw=1330.0,
    vth=0.45,
    vdd_min=0.7,
))
