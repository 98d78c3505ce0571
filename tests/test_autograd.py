"""Numerical-gradient and semantics tests for the autograd engine."""

import gc
import weakref

import numpy as np
import pytest

from repro.nn import autograd as ag
from repro.nn.autograd import Tensor, no_grad


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar fn wrt x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = fn(x)
        flat[i] = orig - eps
        minus = fn(x)
        flat[i] = orig
        out[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(build, shape, seed=0, atol=2e-2, scale=1.0):
    """Compare autograd and numerical gradients of ``sum(build(x))``."""
    rng = np.random.default_rng(seed)
    x = (rng.normal(0, 1, shape) * scale).astype(np.float64)

    def scalar(values):
        t = Tensor(values.astype(np.float32))
        return float(build(t).sum().data)

    t = Tensor(x.astype(np.float32), requires_grad=True)
    build(t).sum().backward()
    got = t.grad.astype(np.float64)
    want = numerical_grad(scalar, x.copy())
    np.testing.assert_allclose(got, want, atol=atol, rtol=2e-2)


class TestElementwiseGradients:
    def test_add(self):
        check_gradient(lambda x: x + 3.0, (4, 5))

    def test_mul_broadcast(self):
        w = Tensor(np.array([2.0, -1.0, 0.5], dtype=np.float32))
        check_gradient(lambda x: x * w, (4, 3))

    def test_sub_and_neg(self):
        check_gradient(lambda x: (5.0 - x) - (-x) * 0.5, (3, 3))

    def test_div(self):
        check_gradient(lambda x: 2.0 / (x * x + 2.0), (4,))

    def test_pow(self):
        check_gradient(lambda x: (x * x + 1.0) ** 1.5, (5,))

    def test_exp_log(self):
        check_gradient(lambda x: ag.log(ag.exp(x) + 1.0), (6,))

    def test_relu(self):
        check_gradient(lambda x: ag.relu(x), (10,))

    def test_relu6(self):
        check_gradient(lambda x: ag.relu6(x * 4.0), (10,))

    def test_clip(self):
        check_gradient(lambda x: ag.clip(x, -0.5, 0.5), (10,))


class TestShapeOps:
    def test_reshape_gradient(self):
        check_gradient(lambda x: (x.reshape(2, 6) * 2.0), (3, 4))

    def test_transpose_gradient(self):
        w = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
        check_gradient(lambda x: ag.transpose(x, (1, 0)) * w, (3, 4))

    def test_sum_axis(self):
        check_gradient(lambda x: x.sum(axis=1) ** 2.0, (3, 4))

    def test_mean_axes(self):
        check_gradient(lambda x: x.mean(axis=(0, 2), keepdims=True),
                       (2, 3, 4))

    def test_matmul(self):
        w = Tensor(np.random.default_rng(1).normal(0, 1, (4, 3))
                   .astype(np.float32))
        check_gradient(lambda x: x @ w, (5, 4))

    def test_matmul_rejects_nd(self):
        a = Tensor(np.zeros((2, 3, 4)))
        b = Tensor(np.zeros((4, 5)))
        with pytest.raises(ValueError):
            ag.matmul(a, b)


class TestConvGradients:
    def test_conv2d_forward_matches_direct(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (2, 3, 6, 6)).astype(np.float32)
        w = rng.normal(0, 1, (4, 3, 3, 3)).astype(np.float32)
        out = ag.conv2d(Tensor(x), Tensor(w), stride=1, pad=1)
        # direct correlation reference
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        want = np.zeros((2, 4, 6, 6), dtype=np.float64)
        for n in range(2):
            for o in range(4):
                for i in range(6):
                    for j in range(6):
                        want[n, o, i, j] = (
                            xp[n, :, i:i + 3, j:j + 3] * w[o]
                        ).sum()
        np.testing.assert_allclose(out.data, want, atol=1e-4)

    def test_conv2d_input_gradient(self):
        w = Tensor(np.random.default_rng(3).normal(0, 0.5, (2, 3, 3, 3))
                   .astype(np.float32))
        check_gradient(lambda x: ag.conv2d(x, w, stride=1, pad=1),
                       (2, 3, 5, 5))

    def test_conv2d_weight_gradient(self):
        rng = np.random.default_rng(4)
        x_data = rng.normal(0, 1, (2, 3, 5, 5)).astype(np.float64)
        x = Tensor(x_data.astype(np.float32))

        def build(w):
            return ag.conv2d(x, w, stride=2, pad=1)

        check_gradient(build, (2, 3, 3, 3), seed=5, scale=0.5)

    def test_conv2d_bias_gradient(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(0, 1, (2, 3, 4, 4)).astype(np.float32))
        w = Tensor(rng.normal(0, 0.5, (2, 3, 3, 3)).astype(np.float32))
        b = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        ag.conv2d(x, w, b, pad=1).sum().backward()
        np.testing.assert_allclose(b.grad, [32.0, 32.0], atol=1e-4)

    def test_conv2d_channel_mismatch(self):
        with pytest.raises(ValueError):
            ag.conv2d(Tensor(np.zeros((1, 3, 4, 4))),
                      Tensor(np.zeros((2, 4, 3, 3))))

    def test_depthwise_forward(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, (2, 3, 6, 6)).astype(np.float32)
        w = rng.normal(0, 1, (3, 1, 3, 3)).astype(np.float32)
        out = ag.depthwise_conv2d(Tensor(x), Tensor(w), pad=1)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        want = np.zeros((2, 3, 6, 6))
        for n in range(2):
            for c in range(3):
                for i in range(6):
                    for j in range(6):
                        want[n, c, i, j] = (
                            xp[n, c, i:i + 3, j:j + 3] * w[c, 0]
                        ).sum()
        np.testing.assert_allclose(out.data, want, atol=1e-4)

    def test_depthwise_gradients(self):
        w = Tensor(np.random.default_rng(8).normal(0, 0.5, (3, 1, 3, 3))
                   .astype(np.float32))
        check_gradient(
            lambda x: ag.depthwise_conv2d(x, w, stride=1, pad=1),
            (2, 3, 5, 5))

    def test_depthwise_shape_validation(self):
        with pytest.raises(ValueError):
            ag.depthwise_conv2d(Tensor(np.zeros((1, 3, 4, 4))),
                                Tensor(np.zeros((3, 2, 3, 3))))


class TestPooling:
    def test_max_pool_forward(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = ag.max_pool2d(Tensor(x), 2)
        np.testing.assert_array_equal(
            out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_gradient(self):
        check_gradient(lambda x: ag.max_pool2d(x, 2), (2, 2, 4, 4))

    def test_avg_pool_gradient(self):
        check_gradient(lambda x: ag.avg_pool2d(x, 2), (2, 2, 4, 4))

    def test_global_avg_pool(self):
        check_gradient(lambda x: ag.global_avg_pool2d(x) ** 2.0,
                       (2, 3, 4, 4))

    def test_pool_divisibility(self):
        with pytest.raises(ValueError):
            ag.max_pool2d(Tensor(np.zeros((1, 1, 5, 4))), 2)


class TestSTE:
    def test_ste_round_passes_gradient(self):
        x = Tensor(np.array([0.2, 1.7, -0.6], dtype=np.float32),
                   requires_grad=True)
        ag.ste_round(x).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(3))

    def test_ste_round_forward(self):
        x = Tensor(np.array([0.2, 1.7, -0.6], dtype=np.float32))
        np.testing.assert_array_equal(ag.ste_round(x).data, [0, 2, -1])

    def test_project_ste(self):
        x = Tensor(np.array([1.1, 2.9], dtype=np.float32),
                   requires_grad=True)
        out = ag.project_ste(x, lambda v: np.floor(v))
        np.testing.assert_array_equal(out.data, [1.0, 2.0])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 1.0])

    def test_project_must_preserve_shape(self):
        x = Tensor(np.zeros(3))
        with pytest.raises(ValueError):
            ag.project_ste(x, lambda v: v[:2])


class TestEngineSemantics:
    def test_backward_needs_scalar(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_no_grad_blocks_tape(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert y._backward is None

    def test_detach(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = x.detach() * 2.0
        assert not y.requires_grad

    def test_diamond_graph_gradient(self):
        x = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        a = x * 2.0
        b = x * 5.0
        (a * b).backward()  # d/dx 10x^2 = 20x = 60
        np.testing.assert_allclose(x.grad, [60.0])

    def test_deep_chain_no_recursion_limit(self):
        x = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        y = x
        for __ in range(3000):
            y = y + 1.0
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_backward_releases_the_tape(self):
        """Saved activations die with their last reference, not at the
        next run of the cyclic garbage collector."""
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        hidden = x * 2.0
        saved = weakref.ref(hidden.data)
        loss = (hidden * hidden).sum()
        del hidden
        gc.disable()
        try:
            loss.backward()
            assert saved() is None
        finally:
            gc.enable()
        np.testing.assert_allclose(x.grad, np.full((2, 3), 8.0))

    def test_backward_through_a_freed_graph_raises(self):
        x = Tensor(np.ones(2), requires_grad=True)
        hidden = x * 2.0
        loss = hidden.sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="freed"):
            loss.backward()
        with pytest.raises(RuntimeError, match="freed"):
            (hidden * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 2.0])

    def test_first_gradient_is_taken_or_copied_in_c_order(self):
        """A fresh C-contiguous gradient becomes ``.grad`` as it is; an
        alias of another array, and any other layout, is copied, so
        every ``.grad`` is C-ordered and shared with nothing."""
        fresh = np.ones((2, 3), np.float32)
        taken = Tensor(np.zeros((2, 3)), requires_grad=True)
        taken._accumulate(fresh)
        assert taken.grad is fresh
        for grad, alias in ((fresh, True), (np.ones((3, 2), np.float32).T,
                                            False)):
            copied = Tensor(np.zeros((2, 3)), requires_grad=True)
            copied._accumulate(grad, alias=alias)
            assert copied.grad is not grad
            assert copied.grad.flags.c_contiguous
            np.testing.assert_array_equal(copied.grad, grad)

    def test_passed_through_gradients_share_no_memory(self):
        """The add below hands its own gradient to both operands, which
        are one tensor: it must be copied, not adopted and then added
        into."""
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        y = x.reshape(3, 2)
        z = y + y
        (z * 3.0).sum().backward()
        np.testing.assert_array_equal(z.grad, np.full((3, 2), 3.0))
        np.testing.assert_array_equal(y.grad, np.full((3, 2), 6.0))
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 6.0))
