"""8-bit symmetric fake quantization with the straight-through estimator.

Follows the integer-arithmetic-only inference recipe of Jacob et al. [5]
as the paper does: weights are quantized per layer to 255 symmetric levels
(-127..127, keeping the distribution symmetric), activations to 8-bit
codes, and training sees the quantized values in the forward pass while
gradients skip the rounding (STE, Bengio et al. [15]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.autograd import Tensor, straight_through


@dataclass(frozen=True)
class QuantConfig:
    """Quantization settings for a network.

    Attributes:
        weight_bits: Weight width; 8 means symmetric codes -127..127
            (255 values, the TensorFlow-style symmetric grid of the
            paper).
        act_bits: Activation width; 8-bit signed codes.
        ema_decay: Decay of the running activation-range estimate.
        enabled: Master switch (disable for float baselines).
    """

    weight_bits: int = 8
    act_bits: int = 8
    ema_decay: float = 0.95
    enabled: bool = True

    @property
    def weight_qmax(self) -> int:
        return (1 << (self.weight_bits - 1)) - 1

    @property
    def act_qmax(self) -> int:
        return (1 << (self.act_bits - 1)) - 1


def weight_scale(weight_data: np.ndarray, qmax: int) -> float:
    """Symmetric per-tensor scale mapping the max magnitude onto qmax."""
    peak = float(np.abs(weight_data).max())
    if peak == 0.0:
        return 1.0 / qmax
    return peak / qmax


def fake_quantize(values: np.ndarray, scale: float, qmin: int,
                  qmax: int) -> np.ndarray:
    """Quantize-dequantize: ``values`` rounded onto the ``scale`` grid,
    saturating at codes ``qmin`` and ``qmax``."""
    if scale <= 0:
        raise ValueError("quantization scale must be positive")
    codes = np.clip(np.round(values / scale), qmin, qmax)
    return (codes * scale).astype(np.float32)


def fake_quantize_ste(x: Tensor, scale: float, qmin: int,
                      qmax: int) -> Tensor:
    """Quantize-dequantize forward, clipped straight-through backward.

    Values whose integer code saturates the ``[qmin, qmax]`` range pass
    no gradient (the standard clipped STE), everything else passes the
    gradient unchanged.
    """
    return straight_through(x, fake_quantize(x.data, scale, qmin, qmax),
                            qmin * scale, qmax * scale)


def to_codes(values: np.ndarray, scale: float, qmin: int,
             qmax: int) -> np.ndarray:
    """Float values -> integer quantization codes."""
    if scale <= 0:
        raise ValueError("quantization scale must be positive")
    return np.clip(np.round(np.asarray(values) / scale), qmin,
                   qmax).astype(np.int64)


def from_codes(codes: np.ndarray, scale: float) -> np.ndarray:
    """Integer quantization codes -> float values."""
    return np.asarray(codes, dtype=np.float32) * scale
