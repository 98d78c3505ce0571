"""From a trained quantized network to systolic-array workloads.

Each conv/dense layer of a network becomes one matmul-shaped workload:
the integer weight matrix in ``(K, N)`` layout, the tile schedule of the
64x64 array, and (optionally) the integer activation matrix the layer
processed — the raw material for both the power estimate and the Fig. 4
transition statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.nn.autograd import Tensor, _windows, no_grad
from repro.nn.layers import Conv2d, DepthwiseConv2d, Linear, Module
from repro.nn.quant import to_codes
from repro.systolic.config import SystolicConfig
from repro.systolic.mapping import TileSchedule, schedule_matmul


@dataclass
class LayerWorkload:
    """One layer lowered to the systolic array.

    Attributes:
        name: Layer identification (class name + index).
        weights: ``(K, N)`` integer weight matrix.
        schedule: Tile schedule on the configured array.
        activations: Optional ``(K, M)`` integer activation matrix (only
            for layers whose input was captured).
    """

    name: str
    weights: np.ndarray
    schedule: TileSchedule
    activations: Optional[np.ndarray] = None

    @property
    def macs(self) -> int:
        return self.schedule.total_macs


def _activation_codes(values: np.ndarray, act_bits: int = 8) -> np.ndarray:
    """Quantize captured float activations to signed integer codes.

    The captured tensors are already fake-quantized by the preceding
    QuantReLU, so re-deriving the scale from the per-tensor peak recovers
    the codes the hardware would see.
    """
    qmax = (1 << (act_bits - 1)) - 1
    peak = float(np.abs(values).max())
    scale = peak / qmax if peak > 0 else 1.0 / qmax
    return to_codes(values, scale, -(qmax + 1), qmax)


def _layer_workload(layer, index: int, config: SystolicConfig,
                    stream_cap: int) -> LayerWorkload:
    weights = layer.matmul_weight()
    k, n = weights.shape
    activations = None

    if isinstance(layer, (Conv2d, DepthwiseConv2d)):
        if layer.last_output_hw is None:
            raise RuntimeError(
                f"layer {type(layer).__name__}#{index} has not seen a "
                f"forward pass; run the model on sample data first"
            )
        oh, ow = layer.last_output_hw
        m = oh * ow
        if layer.last_input is not None:
            codes = _activation_codes(layer.last_input, config.act_bits)
            windows = _windows(codes, layer.kernel_size,
                               layer.kernel_size, layer.stride, layer.pad)
            if isinstance(layer, Conv2d):
                # (C*kh*kw, N*OH*OW): one column per output pixel.
                acts = windows.transpose(1, 4, 5, 0, 2, 3).reshape(k, -1)
            else:
                # Depthwise: each channel convolves independently; give
                # the stats the patch streams of the first channel group.
                kk = layer.kernel_size ** 2
                acts = windows.transpose(4, 5, 0, 1, 2, 3).reshape(kk, -1)
            activations = acts[:, :stream_cap].astype(np.int64)
            m = activations.shape[1]
    else:  # Linear
        m = 1
        if layer.last_input is not None:
            codes = _activation_codes(layer.last_input, config.act_bits)
            activations = codes.T[:, :stream_cap].astype(np.int64)
            m = activations.shape[1]

    schedule = schedule_matmul(k, n, max(m, 1), config)
    return LayerWorkload(
        name=f"{type(layer).__name__}#{index}",
        weights=weights,
        schedule=schedule,
        activations=activations,
    )


def extract_workloads(model: Module, x_sample: Optional[np.ndarray] = None,
                      config: Optional[SystolicConfig] = None,
                      capture_activations: bool = True,
                      stream_cap: int = 2048) -> List[LayerWorkload]:
    """Lower every conv/dense layer of ``model`` to an array workload.

    Args:
        model: Trained network.
        x_sample: Input batch to trace; required unless the model already
            saw a forward pass and activations are not needed.
        config: Array geometry (defaults to the paper's 64x64).
        capture_activations: Also record integer activation matrices
            (needed for transition statistics, costs memory).
        stream_cap: Maximum activation stream length kept per layer.
    """
    config = config or SystolicConfig()
    layers = model.quantized_layers()
    if x_sample is not None:
        for layer in layers:
            layer.capture_input = capture_activations
            layer.last_input = None  # drop any stale capture
        model.eval()
        with no_grad():
            model(Tensor(x_sample))
        for layer in layers:
            layer.capture_input = False
    return [
        _layer_workload(layer, index, config, stream_cap)
        for index, layer in enumerate(layers)
    ]


def largest_conv_workloads(workloads: Sequence[LayerWorkload],
                           top: int = 3) -> List[LayerWorkload]:
    """The ``top`` workloads by MAC count (the paper simulates only the
    convolutional layers with the most MACs for the larger networks)."""
    ranked = sorted(workloads, key=lambda w: w.macs, reverse=True)
    return list(ranked[:top])
