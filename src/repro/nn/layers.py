"""Neural-network layers over the autograd engine.

All layers are :class:`Module` subclasses.  Conv/Linear layers own their
weights and apply the quantization/restriction pipeline in the forward
pass; :class:`QuantReLU` quantizes activations and hosts the activation
filter.  Every layer records the shapes it last processed so the systolic
power model can reconstruct the matmul workloads of a trained network.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.nn import autograd as ag
from repro.nn.autograd import Tensor
from repro.nn.quant import (
    QuantConfig,
    fake_quantize,
    fake_quantize_ste,
    to_codes,
    weight_scale,
)
from repro.nn.restrict import ActivationFilter, WeightRestriction


class Module:
    """Base class with parameter discovery and mode switching."""

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def children(self) -> Iterator["Module"]:
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self.children():
            yield from child.modules()

    def parameters(self) -> List[Tensor]:
        params: List[Tensor] = []
        for module in self.modules():
            for value in module.__dict__.values():
                if isinstance(value, Tensor) and value.requires_grad:
                    params.append(value)
        return params

    # ------------------------------------------------------------------
    # modes and utilities
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover
        raise NotImplementedError

    # ------------------------------------------------------------------
    # state snapshot / restore
    # ------------------------------------------------------------------
    _STATE_ARRAYS = ("running_mean", "running_var", "weight_mask")
    _STATE_SCALARS = ("running_max",)

    def state_dict(self) -> dict:
        """Deep copy of all parameters and buffers, keyed by path."""
        state = {}
        for index, module in enumerate(self.modules()):
            for key, value in module.__dict__.items():
                path = f"{index}.{key}"
                if isinstance(value, Tensor):
                    state[path] = value.data.copy()
                elif key in self._STATE_ARRAYS:
                    state[path] = (value.copy()
                                   if isinstance(value, np.ndarray)
                                   else None)
                elif key in self._STATE_SCALARS:
                    state[path] = value
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        for index, module in enumerate(self.modules()):
            for key, value in list(module.__dict__.items()):
                path = f"{index}.{key}"
                if path not in state:
                    continue
                if isinstance(value, Tensor):
                    module.__dict__[key].data = state[path].copy()
                elif isinstance(state[path], np.ndarray):
                    module.__dict__[key] = state[path].copy()
                else:  # plain scalar or an explicitly-None buffer
                    module.__dict__[key] = state[path]

    # ------------------------------------------------------------------
    # PowerPruning hooks
    # ------------------------------------------------------------------
    def set_weight_restriction(
            self, restriction: Optional[WeightRestriction]) -> None:
        """Install (or clear) the weight restriction on every layer."""
        for module in self.modules():
            if isinstance(module, (Conv2d, DepthwiseConv2d, Linear)):
                module.weight_restriction = restriction

    def set_activation_filter(
            self, act_filter: Optional[ActivationFilter]) -> None:
        """Install (or clear) the activation filter on every QuantReLU."""
        for module in self.modules():
            if isinstance(module, QuantReLU):
                module.activation_filter = act_filter

    def apply_weight_masks(self) -> None:
        """Re-apply pruning masks (keeps pruned weights at zero)."""
        for module in self.modules():
            mask = getattr(module, "weight_mask", None)
            if mask is not None:
                module.weight.data *= mask

    def quantized_layers(self) -> List["_WeightLayer"]:
        """All conv/dense layers, in traversal order."""
        return [m for m in self.modules()
                if isinstance(m, (Conv2d, DepthwiseConv2d, Linear))]


class Sequential(Module):
    """Chains submodules in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


class _WeightLayer(Module):
    """Shared machinery of layers owning a quantizable weight tensor."""

    def __init__(self, quant: Optional[QuantConfig]) -> None:
        super().__init__()
        self.quant = quant or QuantConfig()
        self.weight_restriction: Optional[WeightRestriction] = None
        self.weight_mask: Optional[np.ndarray] = None
        self.weight: Tensor
        self.name: str = type(self).__name__
        # Workload capture for the systolic power/stats models.
        self.capture_input = False
        self.last_input: Optional[np.ndarray] = None

    def _maybe_capture(self, x: Tensor) -> None:
        if self.capture_input:
            self.last_input = x.data.copy()

    def _effective_weight(self) -> Tensor:
        """Weight as the hardware sees it: quantized and restricted."""
        if not self.quant.enabled:
            return self.weight
        qmax = self.quant.weight_qmax
        scale = weight_scale(self.weight.data, qmax)
        if self.weight_restriction is None:
            return fake_quantize_ste(self.weight, scale, -qmax, qmax)
        restriction = self.weight_restriction

        def project(values: np.ndarray) -> np.ndarray:
            codes = to_codes(values, scale, -qmax, qmax)
            return restriction(codes) * scale

        return ag.project_ste(self.weight, project)

    def quantized_weights(self) -> Tuple[np.ndarray, float]:
        """Integer weight codes and their scale, post restriction."""
        qmax = self.quant.weight_qmax
        scale = weight_scale(self.weight.data, qmax)
        codes = to_codes(self.weight.data, scale, -qmax, qmax)
        if self.weight_restriction is not None:
            codes = self.weight_restriction(codes)
        return codes, scale

    def prune_smallest(self, fraction: float) -> float:
        """Magnitude-prune a fraction of the weights (sets a mask).

        Returns the achieved sparsity.  Conventional pruning, the first
        step of the paper's flow.
        """
        if not 0.0 <= fraction < 1.0:
            raise ValueError("pruning fraction must be in [0, 1)")
        magnitudes = np.abs(self.weight.data).ravel()
        if fraction > 0.0:
            cutoff = np.quantile(magnitudes, fraction)
            mask = (np.abs(self.weight.data) > cutoff).astype(np.float32)
        else:
            mask = np.ones_like(self.weight.data)
        self.weight_mask = mask
        self.weight.data *= mask
        return float(1.0 - mask.mean())

    def matmul_weight(self) -> np.ndarray:
        """Integer weights in the systolic ``(K, N)`` layout."""
        codes, __ = self.quantized_weights()
        return self._to_matmul_layout(codes)

    def _to_matmul_layout(self, codes: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _he_init(shape: Tuple[int, ...], fan_in: int,
             rng: np.random.Generator) -> np.ndarray:
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(np.float32)


_INIT_RNG = np.random.default_rng(1234)


def seed_init(seed: int) -> None:
    """Reset the weight-initialization stream.

    Layer weights draw from a shared module-level generator, so a model's
    exact initialization depends on how many layers were created earlier
    in the process.  Call this before building a model whenever bitwise
    reproducibility of the initialization matters (tests, experiment
    baselines).
    """
    global _INIT_RNG
    _INIT_RNG = np.random.default_rng(seed)


class Conv2d(_WeightLayer):
    """2-D convolution (NCHW / OIHW) with QAT and restriction hooks."""

    def __init__(self, in_channels: int, out_channels: int,
                 kernel_size: int, stride: int = 1, pad: int = 0,
                 bias: bool = True,
                 quant: Optional[QuantConfig] = None) -> None:
        super().__init__(quant)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = pad
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Tensor(
            _he_init((out_channels, in_channels, kernel_size, kernel_size),
                     fan_in, _INIT_RNG),
            requires_grad=True,
        )
        self.bias = (Tensor(np.zeros(out_channels, dtype=np.float32),
                            requires_grad=True) if bias else None)
        self.last_input_hw: Optional[Tuple[int, int]] = None
        self.last_output_hw: Optional[Tuple[int, int]] = None

    def forward(self, x: Tensor) -> Tensor:
        self._maybe_capture(x)
        out = ag.conv2d(x, self._effective_weight(), self.bias,
                        stride=self.stride, pad=self.pad)
        self.last_input_hw = (x.shape[2], x.shape[3])
        self.last_output_hw = (out.shape[2], out.shape[3])
        return out

    def _to_matmul_layout(self, codes: np.ndarray) -> np.ndarray:
        out_ch = codes.shape[0]
        return codes.reshape(out_ch, -1).T  # (K, N)


class DepthwiseConv2d(_WeightLayer):
    """Depthwise convolution (one filter per channel), QAT-capable."""

    def __init__(self, channels: int, kernel_size: int, stride: int = 1,
                 pad: int = 0, bias: bool = True,
                 quant: Optional[QuantConfig] = None) -> None:
        super().__init__(quant)
        self.channels = channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = pad
        fan_in = kernel_size * kernel_size
        self.weight = Tensor(
            _he_init((channels, 1, kernel_size, kernel_size), fan_in,
                     _INIT_RNG),
            requires_grad=True,
        )
        self.bias = (Tensor(np.zeros(channels, dtype=np.float32),
                            requires_grad=True) if bias else None)
        self.last_input_hw: Optional[Tuple[int, int]] = None
        self.last_output_hw: Optional[Tuple[int, int]] = None

    def forward(self, x: Tensor) -> Tensor:
        self._maybe_capture(x)
        out = ag.depthwise_conv2d(x, self._effective_weight(), self.bias,
                                  stride=self.stride, pad=self.pad)
        self.last_input_hw = (x.shape[2], x.shape[3])
        self.last_output_hw = (out.shape[2], out.shape[3])
        return out

    def _to_matmul_layout(self, codes: np.ndarray) -> np.ndarray:
        # Each channel is an independent (kh*kw, 1) matmul; stack them as
        # columns so the power model sees every filter's weights.
        channels = codes.shape[0]
        return codes.reshape(channels, -1).T  # (kh*kw, C)


class Linear(_WeightLayer):
    """Fully connected layer with QAT and restriction hooks."""

    def __init__(self, in_features: int, out_features: int,
                 bias: bool = True,
                 quant: Optional[QuantConfig] = None) -> None:
        super().__init__(quant)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            _he_init((out_features, in_features), in_features, _INIT_RNG),
            requires_grad=True,
        )
        self.bias = (Tensor(np.zeros(out_features, dtype=np.float32),
                            requires_grad=True) if bias else None)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2:
            raise ValueError("Linear expects (batch, features) input")
        self._maybe_capture(x)
        w_eff = self._effective_weight()
        out = ag.matmul(x, ag.transpose(w_eff, (1, 0)))
        if self.bias is not None:
            out = out + self.bias
        return out

    def _to_matmul_layout(self, codes: np.ndarray) -> np.ndarray:
        return codes.T  # (K, N) = (in, out)


class BatchNorm2d(Module):
    """Batch normalization over (N, H, W) per channel."""

    def __init__(self, channels: int, eps: float = 1e-5,
                 momentum: float = 0.1) -> None:
        super().__init__()
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = Tensor(np.ones(channels, dtype=np.float32),
                            requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=np.float32),
                           requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ValueError(
                f"BatchNorm2d({self.channels}) got input {x.shape}"
            )
        if not self.training:
            inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
            return ag.batch_norm_eval(x, self.gamma, self.beta,
                                      self.running_mean.reshape(1, -1, 1, 1),
                                      inv_std.reshape(1, -1, 1, 1))
        out, mean, var = ag.batch_norm(x, self.gamma, self.beta, self.eps)
        m = self.momentum
        self.running_mean = (1 - m) * self.running_mean + m * mean.ravel()
        self.running_var = (1 - m) * self.running_var + m * var.ravel()
        return out


class QuantReLU(Module):
    """ReLU/ReLU6 with activation fake quantization and filtering.

    Hosts the Sec. III-C activation filter: after the nonlinearity the
    activation is quantized to its 8-bit code and, when a filter is
    installed, projected onto the nearest selected activation value.
    """

    def __init__(self, quant: Optional[QuantConfig] = None,
                 six: bool = False) -> None:
        super().__init__()
        self.quant = quant or QuantConfig()
        self.six = six
        self.running_max: float = 0.0
        self.activation_filter: Optional[ActivationFilter] = None
        self.capture_codes = False
        self.last_codes: Optional[np.ndarray] = None

    def _update_range(self, y: np.ndarray) -> None:
        peak = float(np.abs(y).max()) if y.size else 0.0
        if self.running_max == 0.0:
            self.running_max = peak
        else:
            d = self.quant.ema_decay
            self.running_max = d * self.running_max + (1 - d) * peak

    @property
    def scale(self) -> float:
        """Activation quantization scale (codes -> values)."""
        qmax = self.quant.act_qmax
        if self.running_max <= 0.0:
            return 1.0 / qmax
        return self.running_max / qmax

    def forward(self, x: Tensor) -> Tensor:
        # One node: the clamp, then fake quantization or the activation
        # filter.  The gradient passes the clamp where 0 <= x <= high,
        # and there the clamped value is x; the quantizer passes it
        # where that value lies in [qmin, qmax] * scale, whose low end is
        # negative.  So one 0/1 mask, 0 <= x <= min(high, qmax * scale),
        # gives the bits of the two masks applied in turn: a product
        # with 1 is exact and one with 0 keeps the gradient's sign.
        high = 6.0 if self.six else None
        y = np.clip(x.data, 0.0, high)
        if not self.quant.enabled:
            return ag.straight_through(x, y, 0.0, high)
        if self.training:
            self._update_range(y)
        qmax = self.quant.act_qmax
        qmin = -(qmax + 1)
        scale = self.scale
        if self.activation_filter is None:
            out_data = fake_quantize(y, scale, qmin, qmax)
            if high is None or qmax * scale < high:
                high = qmax * scale
        else:
            codes = self.activation_filter(to_codes(y, scale, qmin, qmax))
            out_data = np.asarray(codes * scale, dtype=np.float32)
        if self.capture_codes:
            self.last_codes = to_codes(out_data, scale, qmin, qmax)
        return ag.straight_through(x, out_data, 0.0, high)


class MaxPool2d(Module):
    """Non-overlapping max pooling."""

    def __init__(self, kernel: int = 2) -> None:
        super().__init__()
        self.kernel = kernel

    def forward(self, x: Tensor) -> Tensor:
        return ag.max_pool2d(x, self.kernel)


class AvgPool2d(Module):
    """Non-overlapping average pooling."""

    def __init__(self, kernel: int = 2) -> None:
        super().__init__()
        self.kernel = kernel

    def forward(self, x: Tensor) -> Tensor:
        return ag.avg_pool2d(x, self.kernel)


class GlobalAvgPool2d(Module):
    """Spatial mean: (N, C, H, W) -> (N, C)."""

    def forward(self, x: Tensor) -> Tensor:
        return ag.global_avg_pool2d(x)


class Flatten(Module):
    """(N, ...) -> (N, features)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)
