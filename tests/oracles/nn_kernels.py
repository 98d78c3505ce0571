"""Oracles of the training kernels in :mod:`repro.nn`.

``conv2d`` and ``depthwise_conv2d`` are the ``np.einsum(...,
optimize=True)`` convolutions (numpy 2.4's einsum contracts each pair of
operands through ``matmul``), and :func:`nearest_allowed` is the
``searchsorted`` restriction projector.  :func:`batch_norm_forward` and
:func:`quant_relu_forward` are ``BatchNorm2d`` and ``QuantReLU`` composed
from elementary autograd nodes (about a dozen per batch norm in
training, two per activation), and :func:`copying_accumulate` is the
gradient accumulation that copies every first gradient;
:func:`composed_layers` swaps all three in.  The production kernels must
match them bit for bit: same values, same dtype and the same memory
layout of every array that later operations reduce over.
:func:`traced_conv_layers` and :func:`traced_norm_layers` list the real
layers to compare them on.

The convolution bits depend on how einsum hands its operands to
``matmul`` and on the BLAS build, so bit identity is asserted only in
the environment it was checked in (:data:`BIT_EXACT`): numpy 2.4 with
OpenBLAS on x86-64 (checked with numpy 2.4.6, OpenBLAS 0.3.31).
Elsewhere :func:`assert_matches` compares values to float rounding.
"""

from __future__ import annotations

import contextlib
import platform
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.nn import autograd as ag
from repro.nn import layers
from repro.nn.autograd import Tensor, _make
from repro.nn.quant import to_codes


def _blas_name() -> str:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 cannot report its BLAS
        return ""
    return config["Build Dependencies"]["blas"].get("name", "")


#: Whether the convolutions must equal their oracles bit for bit here.
BIT_EXACT = (np.__version__.startswith("2.4.")
             and "openblas" in _blas_name().lower()
             and platform.machine().lower() in ("x86_64", "amd64"))


def assert_matches(got: np.ndarray, want: np.ndarray) -> None:
    """``got`` equals the oracle's ``want``: bit for bit, strides
    included, where :data:`BIT_EXACT`; to float32 rounding elsewhere."""
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    if BIT_EXACT:
        assert got.strides == want.strides
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=2e-3)


#: (kind, input (C, H, W), weight shape, stride, pad, has bias, memory
#: order of the input axes, outermost first)
Layer = Tuple[str, Tuple[int, ...], Tuple[int, ...], int, int, bool,
              Tuple[int, ...]]


def _memory_order(values: np.ndarray) -> Tuple[int, ...]:
    """The axes of ``values`` from the outermost in memory inwards."""
    return tuple(int(a) for a in
                 np.argsort(values.strides, kind="stable")[::-1])


def _forward_networks(scales, act_filters=(None,)) -> None:
    """One forward pass of each of the four networks at each scale on
    two zero images, once per activation filter."""
    from repro.experiments.config import NETWORK_SPECS, SCALES
    from repro.models.registry import build_model

    init_rng = layers._INIT_RNG
    try:
        for scale in scales:
            for spec in NETWORK_SPECS:
                layers.seed_init(0)
                model = build_model(spec.network, spec.num_classes,
                                    SCALES[scale].width_mult,
                                    SCALES[scale].depth_mult)
                for act_filter in act_filters:
                    model.set_activation_filter(act_filter)
                    with ag.no_grad():
                        model(Tensor(np.zeros((2, 3, 32, 32), np.float32)))
    finally:
        layers._INIT_RNG = init_rng


def traced_conv_layers(scales=("smoke", "ci")) -> List[Layer]:
    """Every distinct conv and depthwise call of the four networks.

    Traced from a forward pass of each network at each scale, so the
    input layouts are the ones the pipeline feeds: NCHW for the first
    layer, the layout of the previous convolution's output after it.
    """
    calls = set()
    kernels = {"conv2d": ag.conv2d, "depthwise": ag.depthwise_conv2d}

    def recorder(kind):
        def record(x, weight, bias=None, stride=1, pad=0):
            calls.add((kind, x.shape[1:], weight.shape, stride, pad,
                       bias is not None, _memory_order(x.data)))
            return kernels[kind](x, weight, bias, stride=stride, pad=pad)
        return record

    ag.conv2d, ag.depthwise_conv2d = (recorder("conv2d"),
                                      recorder("depthwise"))
    try:
        _forward_networks(scales)
    finally:
        ag.conv2d, ag.depthwise_conv2d = kernels.values()
    return sorted(calls, key=repr)


#: (kind, input shape without the batch axis, memory order of the input
#: axes, outermost first, relu6): ``kind`` is ``"batchnorm"`` or
#: ``"quantrelu"``; ``relu6`` is False for batch norms.
NormLayer = Tuple[str, Tuple[int, ...], Tuple[int, ...], bool]


def traced_norm_layers(scales=("smoke", "ci")) -> List[NormLayer]:
    """Every distinct ``BatchNorm2d`` and ``QuantReLU`` call of the four
    networks, traced like :func:`traced_conv_layers`.

    Each network runs forward twice, without and with an activation
    filter: a filtered activation is C-ordered where a quantized one
    keeps its input's layout, which changes the layout of the residual
    sums that later layers see.
    """
    from repro.nn.restrict import ActivationFilter

    calls = set()
    forwards = {"batchnorm": layers.BatchNorm2d.forward,
                "quantrelu": layers.QuantReLU.forward}

    def recorder(kind):
        def record(module, x):
            six = kind == "quantrelu" and module.six
            calls.add((kind, x.shape[1:], _memory_order(x.data), six))
            return forwards[kind](module, x)
        return record

    layers.BatchNorm2d.forward = recorder("batchnorm")
    layers.QuantReLU.forward = recorder("quantrelu")
    try:
        _forward_networks(scales, (None, ActivationFilter([0, 5, 9])))
    finally:
        layers.BatchNorm2d.forward = forwards["batchnorm"]
        layers.QuantReLU.forward = forwards["quantrelu"]
    return sorted(calls, key=repr)


def in_layout(values: np.ndarray, order: Tuple[int, ...]) -> np.ndarray:
    """``values`` with its axes laid out in memory in ``order``."""
    return np.ascontiguousarray(values.transpose(order)) \
        .transpose(np.argsort(order))


def nearest_allowed(allowed: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Nearest member of the sorted ``allowed`` codes (ties go down)."""
    codes = np.asarray(codes)
    idx = np.searchsorted(allowed, codes)
    idx = np.clip(idx, 0, allowed.size - 1)
    right = allowed[idx]
    left = allowed[np.maximum(idx - 1, 0)]
    pick_left = np.abs(codes - left) <= np.abs(right - codes)
    return np.where(pick_left, left, right)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int,
            pad: int) -> Tuple[np.ndarray, int, int]:
    """(N, C, H, W) -> (N, C*kh*kw, OH*OW) patch matrix."""
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (x.shape[2] - kh) // stride + 1
    ow = (x.shape[3] - kw) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw),
                                                       axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(
        n, c * kh * kw, oh * ow
    )
    return np.ascontiguousarray(cols), oh, ow


def _col2im(cols: np.ndarray, x_shape: Tuple[int, ...], kh: int, kw: int,
            stride: int, pad: int, oh: int, ow: int) -> np.ndarray:
    """Adjoint of :func:`_im2col` (scatter-add of patch gradients)."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    dx = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i:i + stride * oh:stride,
               j:j + stride * ow:stride] += cols[:, :, i, j]
    if pad:
        dx = dx[:, :, pad:-pad, pad:-pad]
    return dx


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, pad: int = 0) -> Tensor:
    """2-D convolution, NCHW layout, OIHW weights."""
    n = x.shape[0]
    out_ch, in_ch, kh, kw = weight.shape
    cols, oh, ow = _im2col(x.data, kh, kw, stride, pad)
    w_mat = weight.data.reshape(out_ch, in_ch * kh * kw)
    out_data = np.einsum("ok,nkp->nop", w_mat, cols,
                         optimize=True).reshape(n, out_ch, oh, ow)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, out_ch, 1, 1)

    def backward():
        dout = out.grad.reshape(n, out_ch, oh * ow)
        if weight.requires_grad:
            dw = np.einsum("nop,nkp->ok", dout, cols, optimize=True)
            weight._accumulate(dw.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(out.grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            dcols = np.einsum("ok,nop->nkp", w_mat, dout, optimize=True)
            x._accumulate(_col2im(dcols, x.shape, kh, kw, stride, pad,
                                  oh, ow))

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = _make(out_data, parents, backward)
    return out


def depthwise_conv2d(x: Tensor, weight: Tensor,
                     bias: Optional[Tensor] = None, stride: int = 1,
                     pad: int = 0) -> Tensor:
    """Depthwise convolution: one ``(1, kh, kw)`` filter per channel."""
    c = x.shape[1]
    n = x.shape[0]
    kh, kw = weight.shape[2], weight.shape[3]
    cols, oh, ow = _im2col(x.data, kh, kw, stride, pad)
    cols4 = cols.reshape(n, c, kh * kw, oh * ow)
    w_mat = weight.data.reshape(c, kh * kw)
    out_data = np.einsum("ck,nckp->ncp", w_mat, cols4,
                         optimize=True).reshape(n, c, oh, ow)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c, 1, 1)

    def backward():
        dout = out.grad.reshape(n, c, oh * ow)
        if weight.requires_grad:
            dw = np.einsum("ncp,nckp->ck", dout, cols4, optimize=True)
            weight._accumulate(dw.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(out.grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            dcols = np.einsum("ck,ncp->nckp", w_mat, dout, optimize=True)
            x._accumulate(_col2im(
                dcols.reshape(n, c * kh * kw, oh * ow),
                x.shape, kh, kw, stride, pad, oh, ow))

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = _make(out_data, parents, backward)
    return out


# ----------------------------------------------------------------------
# composed batch norm and activation
# ----------------------------------------------------------------------
def copying_accumulate(self: Tensor, grad: np.ndarray,
                       alias: bool = False) -> None:
    """``Tensor._accumulate`` that copies every first gradient."""
    grad = grad.astype(np.float32, copy=False)
    if self.grad is None:
        self.grad = grad.copy()
    else:
        self.grad += grad


def batch_norm_forward(bn: "layers.BatchNorm2d", x: Tensor) -> Tensor:
    """``BatchNorm2d.forward`` composed from elementary nodes."""
    if bn.training:
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=(0, 2, 3), keepdims=True)
        m = bn.momentum
        bn.running_mean = ((1 - m) * bn.running_mean
                           + m * mean.data.ravel())
        bn.running_var = ((1 - m) * bn.running_var
                          + m * var.data.ravel())
        xhat = centered * ((var + bn.eps) ** -0.5)
    else:
        mean = Tensor(bn.running_mean.reshape(1, -1, 1, 1))
        std_inv = Tensor(
            1.0 / np.sqrt(bn.running_var + bn.eps)
        ).reshape(1, -1, 1, 1)
        xhat = (x - mean) * std_inv
    gamma = bn.gamma.reshape(1, -1, 1, 1)
    beta = bn.beta.reshape(1, -1, 1, 1)
    return xhat * gamma + beta


def _fake_quantize_ste(x: Tensor, scale: float, qmin: int,
                       qmax: int) -> Tensor:
    """Fake quantization node whose backward builds its mask."""
    codes = np.clip(np.round(x.data / scale), qmin, qmax)
    out_data = (codes * scale).astype(np.float32)

    def backward():
        if x.requires_grad:
            inside = (x.data >= qmin * scale) & (x.data <= qmax * scale)
            x._accumulate(out.grad * inside)

    out = _make(out_data, (x,), backward)
    return out


def quant_relu_forward(act: "layers.QuantReLU", x: Tensor) -> Tensor:
    """``QuantReLU.forward`` as a clamp node, then a fake-quantization or
    projection node."""
    y = ag.relu6(x) if act.six else ag.relu(x)
    if not act.quant.enabled:
        return y
    if act.training:
        act._update_range(y.data)
    qmax = act.quant.act_qmax
    qmin = -(qmax + 1)
    scale = act.scale
    if act.activation_filter is None:
        out = _fake_quantize_ste(y, scale, qmin, qmax)
    else:
        act_filter = act.activation_filter

        def project(values: np.ndarray) -> np.ndarray:
            codes = to_codes(values, scale, qmin, qmax)
            return act_filter(codes) * scale

        out = ag.project_ste(y, project)
    if act.capture_codes:
        act.last_codes = to_codes(out.data, scale, qmin, qmax)
    return out


@contextlib.contextmanager
def composed_layers() -> Iterator[None]:
    """Inside the block, run ``BatchNorm2d`` and ``QuantReLU`` as
    composed graphs, quantize weights with the node that builds its mask
    in backward, and accumulate gradients by copying."""
    saved = (layers.BatchNorm2d.forward, layers.QuantReLU.forward,
             layers.fake_quantize_ste, Tensor._accumulate)
    layers.BatchNorm2d.forward = batch_norm_forward
    layers.QuantReLU.forward = quant_relu_forward
    layers.fake_quantize_ste = _fake_quantize_ste
    Tensor._accumulate = copying_accumulate
    try:
        yield
    finally:
        (layers.BatchNorm2d.forward, layers.QuantReLU.forward,
         layers.fake_quantize_ste, Tensor._accumulate) = saved
