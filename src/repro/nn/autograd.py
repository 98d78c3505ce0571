"""Define-by-run reverse-mode autograd over NumPy arrays.

A compact tape-based engine: every operation returns a new
:class:`Tensor` whose ``_backward`` closure scatters the output gradient
into its parents.  ``backward()`` walks the tape in reverse topological
order.  Only the operations the PowerPruning models need are provided,
and each is covered by a numerical-gradient test.

Straight-through operators (:func:`ste_round`, :func:`project_ste`) are
first-class citizens: their forward applies an arbitrary non-differentiable
mapping while their backward passes gradients through unchanged, which is
exactly how the paper retrains with restricted weights (Sec. III-C,
citing Bengio et al. [15]).
"""

from __future__ import annotations

import contextlib
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

_GRAD_ENABLED = [True]


@contextlib.contextmanager
def no_grad():
    """Context manager disabling tape construction (for inference)."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1
                 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """An array with an optional gradient and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad and _GRAD_ENABLED[-1]
        self._backward: Optional[Callable[[], None]] = None
        self._parents: Tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return (f"Tensor(shape={self.shape}, "
                f"requires_grad={self.requires_grad})")

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray, alias: bool = False) -> None:
        """Add ``grad`` into ``self.grad``.

        A first gradient that its producer just allocated becomes
        ``self.grad`` as it is when it is C-contiguous; an ``alias`` (the
        upstream gradient passed straight through, or a view of it) and
        any other layout are copied in C order.  So every ``.grad`` is a
        C-ordered array of its own: later reductions over it walk memory
        in that order, and a different layout would change their rounding.
        """
        grad = grad.astype(np.float32, copy=False)
        if self.grad is not None:
            self.grad += grad
        elif alias or not grad.flags.c_contiguous:
            self.grad = grad.copy()
        else:
            self.grad = grad

    def backward(self) -> None:
        """Reverse-mode sweep seeding d(self)/d(self) = 1.

        The sweep frees the graph behind ``self``: a second ``backward()``
        through any of its nodes, from ``self`` or from another loss built
        on them, raises ``RuntimeError``.  Build the graph again instead.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss tensor")
        topo: List[Tensor] = []
        seen = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, iter(node._parents))]
            seen.add(id(node))
            while stack:
                current, parents = stack[-1]
                advanced = False
                for parent in parents:
                    if id(parent) not in seen:
                        seen.add(id(parent))
                        stack.append((parent, iter(parent._parents)))
                        advanced = True
                        break
                if not advanced:
                    topo.append(current)
                    stack.pop()

        visit(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward()
        # Release the tape.  Each backward closure refers to its own
        # output tensor, a reference cycle that would otherwise keep the
        # whole graph (every saved patch matrix) alive until the cyclic
        # garbage collector runs.
        for node in topo:
            if node._backward is not None:
                node._backward = _released
            node._parents = ()

    # ------------------------------------------------------------------
    # operator sugar
    # ------------------------------------------------------------------
    def __add__(self, other):
        return add(self, _ensure(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _ensure(other))

    def __rsub__(self, other):
        return sub(_ensure(other), self)

    def __mul__(self, other):
        return mul(self, _ensure(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _ensure(other))

    def __rtruediv__(self, other):
        return div(_ensure(other), self)

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, _ensure(other))

    def __pow__(self, exponent: float):
        return power(self, exponent)

    def reshape(self, *shape):
        return reshape(self, shape)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)

    def transpose(self, axes: Sequence[int]):
        return transpose(self, axes)


def _released() -> None:
    raise RuntimeError("backward() through a graph that an earlier "
                       "backward() freed; build the graph again")


def _ensure(value: Union[Tensor, float, int, np.ndarray]) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(data: np.ndarray, parents: Tuple[Tensor, ...],
          backward: Callable[[], None]) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED[-1] and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out


# ----------------------------------------------------------------------
# elementwise arithmetic
# ----------------------------------------------------------------------
def _pass_through(a: Tensor, grad: np.ndarray) -> None:
    """Accumulate an upstream ``grad`` into ``a``, summed over the axes
    ``a`` was broadcast along; unreduced, it is the upstream array."""
    reduced = _unbroadcast(grad, a.shape)
    a._accumulate(reduced, alias=reduced is grad)


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward():
        if a.requires_grad:
            _pass_through(a, out.grad)
        if b.requires_grad:
            _pass_through(b, out.grad)

    out = _make(out_data, (a, b), backward)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def backward():
        if a.requires_grad:
            _pass_through(a, out.grad)
        if b.requires_grad:
            b._accumulate(_unbroadcast(-out.grad, b.shape))

    out = _make(out_data, (a, b), backward)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward():
        if a.requires_grad:
            a._accumulate(_unbroadcast(out.grad * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(out.grad * a.data, b.shape))

    out = _make(out_data, (a, b), backward)
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data / b.data

    def backward():
        if a.requires_grad:
            a._accumulate(_unbroadcast(out.grad / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(
                -out.grad * a.data / (b.data * b.data), b.shape))

    out = _make(out_data, (a, b), backward)
    return out


def power(a: Tensor, exponent: float) -> Tensor:
    out_data = a.data ** exponent

    def backward():
        if a.requires_grad:
            a._accumulate(out.grad * exponent * a.data ** (exponent - 1))

    out = _make(out_data, (a,), backward)
    return out


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward():
        if a.requires_grad:
            a._accumulate(out.grad * out_data)

    out = _make(out_data, (a,), backward)
    return out


def log(a: Tensor) -> Tensor:
    out_data = np.log(a.data)

    def backward():
        if a.requires_grad:
            a._accumulate(out.grad / a.data)

    out = _make(out_data, (a,), backward)
    return out


def clip(a: Tensor, low: Optional[float], high: Optional[float]) -> Tensor:
    """Clamp with zero gradient outside the active range."""
    out_data = np.clip(a.data, low, high)

    def backward():
        if a.requires_grad:
            mask = np.ones_like(a.data)
            if low is not None:
                mask *= a.data >= low
            if high is not None:
                mask *= a.data <= high
            a._accumulate(out.grad * mask)

    out = _make(out_data, (a,), backward)
    return out


def relu(a: Tensor) -> Tensor:
    return clip(a, 0.0, None)


def relu6(a: Tensor) -> Tensor:
    return clip(a, 0.0, 6.0)


# ----------------------------------------------------------------------
# shape manipulation and reductions
# ----------------------------------------------------------------------
def reshape(a: Tensor, shape) -> Tensor:
    old_shape = a.shape
    out_data = a.data.reshape(shape)

    def backward():
        if a.requires_grad:
            a._accumulate(out.grad.reshape(old_shape), alias=True)

    out = _make(out_data, (a,), backward)
    return out


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out_data = a.data.transpose(axes)

    def backward():
        if a.requires_grad:
            a._accumulate(out.grad.transpose(inverse), alias=True)

    out = _make(out_data, (a,), backward)
    return out


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward():
        if a.requires_grad:
            grad = out.grad
            if not keepdims and axis is not None:
                grad = np.expand_dims(grad, axis)
            a._accumulate(np.broadcast_to(grad, a.shape).copy())

    out = _make(out_data, (a,), backward)
    return out


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.size
    elif isinstance(axis, int):
        count = a.shape[axis]
    else:
        count = int(np.prod([a.shape[i] for i in axis]))
    return reduce_sum(a, axis, keepdims) * (1.0 / count)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("matmul supports 2-D operands only")
    out_data = a.data @ b.data

    def backward():
        if a.requires_grad:
            a._accumulate(out.grad @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ out.grad)

    out = _make(out_data, (a, b), backward)
    return out


# ----------------------------------------------------------------------
# straight-through operators
# ----------------------------------------------------------------------
def straight_through(a: Tensor, out_data: np.ndarray,
                     low: Optional[float] = None,
                     high: Optional[float] = None) -> Tensor:
    """A node with a precomputed forward ``out_data`` whose backward
    passes the gradient straight through to ``a``: everywhere without
    bounds, else where ``low <= a`` (and ``a <= high`` when given) and
    zero elsewhere, the clipped straight-through estimator."""

    def backward():
        if low is None:
            a._accumulate(out.grad, alias=True)
            return
        inside = a.data >= low
        if high is not None:
            inside &= a.data <= high
        a._accumulate(out.grad * inside)

    out = _make(out_data, (a,), backward)
    return out


def ste_round(a: Tensor) -> Tensor:
    """Round in the forward pass, identity in the backward pass."""
    return straight_through(a, np.round(a.data))


def project_ste(a: Tensor,
                projection: Callable[[np.ndarray], np.ndarray]) -> Tensor:
    """Apply an arbitrary projection forward; pass gradients straight
    through backward.

    This is the Sec. III-C restriction operator: the forward pass forces
    values onto the selected set while the backward pass skips the
    non-differentiable mapping (straight-through estimator [15]).
    """
    out_data = np.asarray(projection(a.data), dtype=np.float32)
    if out_data.shape != a.data.shape:
        raise ValueError("projection must preserve the shape")
    return straight_through(a, out_data)


# ----------------------------------------------------------------------
# batch normalization
# ----------------------------------------------------------------------
# One node per call.  Forward and backward make the numpy calls of the
# graph composed from the elementary ops above (the oracles in
# ``tests/oracles/nn_kernels.py``), in the same order and on arrays of
# the same layouts, so every float is bit-identical to it: reductions
# run through the same ``sum`` calls, and each gradient that the
# composed graph held as a tensor's ``.grad`` is C-ordered here too.
_BN_AXES = (0, 2, 3)


def _reduce_to_channels(param: Tensor, grad: np.ndarray) -> None:
    """Accumulate the per-channel sum of an (N, C, H, W) ``grad`` into
    the (C,) ``param``."""
    reduced = _unbroadcast(grad, (1, param.size, 1, 1))
    param._accumulate(reduced.reshape(param.shape), alias=reduced is grad)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               eps: float) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """Training-mode batch normalization of (N, C, H, W) ``x`` over
    (N, H, W) per channel.

    Returns the output and the batch mean and (biased) variance, both
    (1, C, 1, 1).
    """
    shape = (1, x.shape[1], 1, 1)
    rcount = np.float32(1.0 / (x.size // x.shape[1]))
    mean = x.data.sum(axis=_BN_AXES, keepdims=True) * rcount
    centered = x.data - mean
    var = (centered * centered).sum(axis=_BN_AXES, keepdims=True) * rcount
    shifted = var + np.float32(eps)
    inv = shifted ** -0.5
    xhat = centered * inv
    scale = gamma.data.reshape(shape)
    out_data = xhat * scale + beta.data.reshape(shape)

    def backward():
        grad = out.grad
        if beta.requires_grad:
            _reduce_to_channels(beta, grad)
        if gamma.requires_grad:
            _reduce_to_channels(gamma, grad * xhat)
        if not x.requires_grad:
            return
        dxhat = grad * scale
        # ``centered`` collects its gradient from ``xhat`` first, then
        # twice (once per factor) from ``centered * centered``.
        dcentered = dxhat * inv
        dinv = _unbroadcast(dxhat * centered, shape)
        del dxhat
        dshifted = dinv * -0.5 * shifted ** -1.5
        dsquares = np.broadcast_to(dshifted * rcount, x.shape)
        term = dsquares * centered
        dcentered += term
        dcentered += term
        del term
        dmean = _unbroadcast(-dcentered, shape)
        x._accumulate(dcentered)
        x._accumulate(np.broadcast_to(dmean * rcount, x.shape), alias=True)

    out = _make(out_data, (x, gamma, beta), backward)
    return out, mean, var


def batch_norm_eval(x: Tensor, gamma: Tensor, beta: Tensor,
                    mean: np.ndarray, inv_std: np.ndarray) -> Tensor:
    """Batch normalization of (N, C, H, W) ``x`` by fixed (1, C, 1, 1)
    statistics: ``(x - mean) * inv_std * gamma + beta``."""
    shape = mean.shape
    xhat = (x.data - mean) * inv_std
    scale = gamma.data.reshape(shape)
    out_data = xhat * scale + beta.data.reshape(shape)

    def backward():
        grad = out.grad
        if beta.requires_grad:
            _reduce_to_channels(beta, grad)
        if gamma.requires_grad:
            _reduce_to_channels(gamma, grad * xhat)
        if x.requires_grad:
            x._accumulate(grad * scale * inv_std)

    out = _make(out_data, (x, gamma, beta), backward)
    return out


# ----------------------------------------------------------------------
# convolution and pooling
# ----------------------------------------------------------------------
# The convolutions are explicit matrix products over the operands that
# ``np.einsum(..., optimize=True)`` handed to ``matmul``, so every
# product yields einsum's bits.  The outputs keep einsum's memory layout
# too: later reductions (batch-norm means, gradient sums) walk memory in
# layout order, so a different layout changes their rounding.

#: Largest product (M*N*K multiply-adds) that OpenBLAS may route to its
#: small-matrix kernels: the x86-64 SkylakeX permit
#: (``kernel/x86_64/sgemm_small_kernel_permit_skylakex.c``) refuses
#: larger ones, and other x86-64 targets have none.  Those kernels differ
#: per transpose flag, so below this size a transposed view does not give
#: the bits of the contiguous operand; above it operands are packed first
#: and it does.  The view skips a transposing copy of the patch matrix
#: that would double the forward's time.
_SMALL_GEMM = 100 ** 3


def _windows(x: np.ndarray, kh: int, kw: int, stride: int,
             pad: int) -> np.ndarray:
    """(N, C, OH, OW, kh, kw) view of every receptive field of ``x``."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw),
                                                       axis=(2, 3))
    return windows[:, :, ::stride, ::stride]


def _col2im(dpatches: np.ndarray, x_shape: Tuple[int, ...], stride: int,
            pad: int) -> np.ndarray:
    """Scatter-add (N, OH, OW, C, kh, kw) patch gradients into an
    (N, C, H, W) input gradient.

    Patches are added in kernel-offset order onto zeros, so every element
    sums its terms in the same order whatever the layout.  The sum is
    built channels-last, where each add walks the patch gradients in
    memory order, a block of images at a time so that the block's ~1 MB
    of patch gradients stays in cache across the kh*kw adds.
    """
    n, c, h, w = x_shape
    __, oh, ow, __, kh, kw = dpatches.shape
    dx = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=dpatches.dtype)
    block = max(1, (1 << 20) // dpatches[0].nbytes)
    for start in range(0, n, block):
        dx_block = dx[start:start + block]
        d_block = dpatches[start:start + block]
        for i in range(kh):
            for j in range(kw):
                dx_block[:, i:i + stride * oh:stride,
                         j:j + stride * ow:stride] += d_block[..., i, j]
    return dx[:, pad:pad + h, pad:pad + w].transpose(0, 3, 1, 2)


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, pad: int = 0) -> Tensor:
    """2-D convolution, NCHW layout, OIHW weights.

    The output is channels-last in memory (element strides
    ``(P*O, 1, OW*O, O)`` for ``P = OH*OW``), as the einsum formulation
    returned it.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ValueError("conv2d expects NCHW input and OIHW weights")
    out_ch, in_ch, kh, kw = weight.shape
    if in_ch != x.shape[1]:
        raise ValueError(
            f"channel mismatch: input {x.shape[1]}, weight {in_ch}"
        )
    windows = _windows(x.data, kh, kw, stride, pad)
    n, __, oh, ow = windows.shape[:4]
    w_mat = weight.data.reshape(out_ch, in_ch * kh * kw)
    k = w_mat.shape[1]
    # The forward multiplies (N*OH*OW, C*kh*kw) patch rows, the weight
    # gradient their (C*kh*kw, N*OH*OW) transpose; einsum made both
    # contiguous.  The transpose is gathered from the windows and the rows
    # are its transposed view, copied too only for small products
    # (_SMALL_GEMM).
    cols = np.ascontiguousarray(
        windows.transpose(1, 4, 5, 0, 2, 3).reshape(k, -1))
    small = n * oh * ow * k * out_ch <= _SMALL_GEMM
    rows = np.ascontiguousarray(cols.T) if small else cols.T
    out_data = (rows @ w_mat.T).reshape(n, oh, ow, out_ch) \
        .transpose(0, 3, 1, 2)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, out_ch, 1, 1)

    def backward():
        drows = np.ascontiguousarray(
            out.grad.transpose(0, 2, 3, 1).reshape(-1, out_ch))
        if weight.requires_grad:
            weight._accumulate((cols @ drows).T.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(out.grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            dpatches = (drows @ w_mat).reshape(n, oh, ow, in_ch, kh, kw)
            x._accumulate(_col2im(dpatches, x.shape, stride, pad))

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = _make(out_data, parents, backward)
    return out


def depthwise_conv2d(x: Tensor, weight: Tensor,
                     bias: Optional[Tensor] = None, stride: int = 1,
                     pad: int = 0) -> Tensor:
    """Depthwise convolution: one filter per input channel.

    Weights have shape ``(C, 1, kh, kw)``.
    """
    if weight.shape[1] != 1:
        raise ValueError("depthwise weights must have shape (C, 1, kh, kw)")
    c = x.shape[1]
    if weight.shape[0] != c:
        raise ValueError("depthwise channel mismatch")
    kh, kw = weight.shape[2], weight.shape[3]
    windows = _windows(x.data, kh, kw, stride, pad)
    n, __, oh, ow = windows.shape[:4]
    # (C, kh*kw, N*OH*OW) patches: the weight-gradient operand.  The
    # forward is one matrix-vector product per channel over its
    # contiguous (N*OH*OW, kh*kw) patch rows, which leaves the output
    # channel-major in memory.
    cols = np.ascontiguousarray(
        windows.transpose(1, 4, 5, 0, 2, 3).reshape(c, kh * kw, -1))
    per_channel = np.ascontiguousarray(cols.transpose(0, 2, 1))
    out_data = (per_channel @ weight.data.reshape(c, kh * kw, 1)) \
        .reshape(c, n, oh, ow).transpose(1, 0, 2, 3)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c, 1, 1)

    def backward():
        if weight.requires_grad:
            dout = np.ascontiguousarray(
                out.grad.transpose(1, 0, 2, 3).reshape(c, -1, 1))
            weight._accumulate((cols @ dout).reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(out.grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            # Each tap's product is added in kernel-offset order onto
            # zeros, as the materialized patch gradients were.
            h, w = x.shape[2], x.shape[3]
            dx = np.zeros((n, c, h + 2 * pad, w + 2 * pad),
                          dtype=out.grad.dtype)
            taps = weight.data.reshape(1, c, kh, kw, 1, 1)
            for i in range(kh):
                for j in range(kw):
                    term = out.grad * taps[:, :, i, j]
                    dx[:, :, i:i + stride * oh:stride,
                       j:j + stride * ow:stride] += term
            x._accumulate(dx[:, :, pad:pad + h, pad:pad + w])

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = _make(out_data, parents, backward)
    return out


def max_pool2d(x: Tensor, kernel: int = 2) -> Tensor:
    """Non-overlapping max pooling (kernel == stride)."""
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(
            f"spatial dims {(h, w)} not divisible by pool kernel {kernel}"
        )
    oh, ow = h // kernel, w // kernel
    view = x.data.reshape(n, c, oh, kernel, ow, kernel)
    out_data = view.max(axis=(3, 5))

    def backward():
        expanded = out_data[:, :, :, None, :, None]
        mask = view == expanded
        # Split ties evenly so the gradient mass is conserved.
        counts = mask.sum(axis=(3, 5), keepdims=True)
        grad = (mask / counts) * out.grad[:, :, :, None, :, None]
        x._accumulate(grad.reshape(x.shape))

    out = _make(out_data, (x,), backward)
    return out


def avg_pool2d(x: Tensor, kernel: int = 2) -> Tensor:
    """Non-overlapping average pooling (kernel == stride)."""
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(
            f"spatial dims {(h, w)} not divisible by pool kernel {kernel}"
        )
    oh, ow = h // kernel, w // kernel
    view = x.data.reshape(n, c, oh, kernel, ow, kernel)
    out_data = view.mean(axis=(3, 5))

    def backward():
        grad = out.grad[:, :, :, None, :, None] / (kernel * kernel)
        x._accumulate(
            np.broadcast_to(grad, view.shape).reshape(x.shape).copy()
        )

    out = _make(out_data, (x,), backward)
    return out


def global_avg_pool2d(x: Tensor) -> Tensor:
    """(N, C, H, W) -> (N, C) spatial mean."""
    return reduce_mean(x, axis=(2, 3))
