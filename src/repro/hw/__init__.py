"""Pluggable hardware backends.

A backend bundles everything that makes one MAC implementation point —
cell library variant, multiplier/adder styles, datapath widths, array
operating point, calibration anchors and voltage model — behind a
single registry id.  ``PipelineConfig`` resolves a backend id here when
it is made and keys every stage-cache artifact on the full backend
spec, so alternative implementations hang off the same stage graph
without ever colliding in a shared cache.
"""

from repro.hw.backend import (
    ADDER_STYLES,
    MULTIPLIER_STYLES,
    HardwareBackend,
)
from repro.hw.registry import (
    DEFAULT_BACKEND_ID,
    describe_backends,
    get_backend,
    list_backends,
    register_backend,
)

__all__ = [
    "HardwareBackend",
    "MULTIPLIER_STYLES",
    "ADDER_STYLES",
    "DEFAULT_BACKEND_ID",
    "register_backend",
    "get_backend",
    "list_backends",
    "describe_backends",
]
