"""The training kernels equal their oracles bit for bit.

``conv2d`` and ``depthwise_conv2d`` must reproduce the einsum kernels in
``tests/oracles``: the forward output and the weight, input and bias
gradients agree in value, dtype and strides.  Strides matter because
later reductions (batch-norm means, gradient sums) walk memory in layout
order; a kernel with the right values in another layout changes the
rounding downstream and with it the whole training run.  The restriction
projector must likewise return the ``searchsorted`` oracle's codes in
C order.

The layer shapes and input layouts are traced from a forward pass of
all four networks at each scale, and every layer runs at each batch
size the pipeline feeds it at that scale (:func:`pipeline_batches`).

Bit identity was checked with numpy 2.4.6 and OpenBLAS 0.3.31
(scipy-openblas, one thread) on x86-64 under Python 3.11.  In other
environments the convolutions are compared to float rounding instead
(``oracles.nn_kernels.BIT_EXACT``).
"""

import inspect

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import nn_kernels as oracle
from repro.core.pipeline import PipelineConfig
from repro.experiments.config import SCALES
from repro.nn import autograd as ag
from repro.nn.autograd import Tensor
from repro.nn.restrict import ActivationFilter, WeightRestriction
from repro.nn.trainer import Trainer

#: A small batch, checked forward and backward.  The power and
#: accelerator traces run one zero image but read only layer shapes
#: from it, so their outputs need no bit identity.
SMALL_BATCH = 2


def pipeline_batches(scale):
    """Batch sizes the pipeline feeds the convolutions at ``scale``,
    each mapped to whether its backward is checked too.

    Training runs the training batch and the tail of an epoch; the
    evaluation batch and its tail and the statistics batch only run
    forward.  :data:`SMALL_BATCH` joins them.  Backward is checked up to
    the training batch size, where it is cheap.
    """
    s = SCALES[scale]
    train = PipelineConfig().batch_size
    evaluate = inspect.signature(Trainer.evaluate) \
        .parameters["batch_size"].default
    sizes = {train, s.n_train % train, min(s.n_test, evaluate),
             s.n_test % evaluate, s.stats_batch, SMALL_BATCH} - {0}
    return {size: size <= train for size in sizes}


def _cases():
    """(layer, batch, backward) for every traced layer at every batch
    size of every scale it appears at."""
    cases = {}
    for scale in SCALES:
        batches = pipeline_batches(scale)
        for layer in oracle.traced_conv_layers((scale,)):
            for batch, backward in batches.items():
                cases[layer, batch] = cases.get((layer, batch)) or backward
    return [(layer, batch, backward)
            for (layer, batch), backward in sorted(cases.items(), key=repr)]


CASES = _cases()


def _case_id(case):
    (kind, chw, wshape, stride, pad, __, order), batch, backward = case
    shape = "x".join(map(str, chw))
    weights = "x".join(map(str, wshape))
    layout = "".join("NCHW"[a] for a in order)
    mode = "" if backward else "-fwd"
    return f"{kind}-{shape}-w{weights}-s{stride}p{pad}-{layout}-n{batch}{mode}"


def _run(conv, x_data, w_data, b_data, grad, stride, pad):
    """Forward, then backward from ``grad`` unless it is ``None``; every
    resulting array.  A forward-only run records no tape, as the
    pipeline's inference does not."""
    train = grad is not None
    x = Tensor(x_data, requires_grad=train)
    w = Tensor(w_data, requires_grad=train)
    b = None if b_data is None else Tensor(b_data, requires_grad=train)
    out = conv(x, w, b, stride=stride, pad=pad)
    forward = out.data
    if not train:
        return {"forward": forward}
    (out * Tensor(grad)).sum().backward()
    arrays = {"forward": forward, "dW": w.grad, "dX": x.grad}
    if b is not None:
        arrays["db"] = b.grad
    return arrays


def test_pipeline_batches():
    assert pipeline_batches("smoke") == {32: True, 20: True, 200: False,
                                         8: True, 2: True}
    assert pipeline_batches("ci") == {32: True, 256: False, 44: False,
                                      16: True, 2: True}
    assert pipeline_batches("paper") == {32: True, 256: False, 160: False,
                                         100: False, 2: True}


def test_traced_layers_cover_the_networks():
    layers = {case[0] for case in CASES}
    kinds = {layer[0] for layer in layers}
    assert kinds == {"conv2d", "depthwise"}
    wshapes = {layer[2] for layer in layers}
    assert (24, 12, 1, 1) in wshapes  # the 1x1 stride-2 resnet20 shortcut
    assert any(layer[3] == 2 for layer in layers)
    assert any(layer[2][2:] == (1, 1) for layer in layers)
    # conv outputs are channels-last, so most layers see that input
    assert any(layer[6] == (0, 2, 3, 1) for layer in layers)
    # the paper-scale (full-width) layers are in
    assert (64, 64, 3, 3) in wshapes


@pytest.mark.parametrize("layer, batch, backward", CASES,
                         ids=map(_case_id, CASES))
def test_conv_kernel_matches_einsum_oracle(layer, batch, backward):
    kind, chw, wshape, stride, pad, bias, order = layer
    rng = np.random.default_rng([batch, *chw, *wshape])
    x = oracle.in_layout(
        rng.standard_normal((batch, *chw), dtype=np.float32), order)
    w = rng.normal(0, 0.3, wshape).astype(np.float32)
    b = rng.normal(0, 0.1, wshape[0]).astype(np.float32) if bias else None
    oh, ow = ((size + 2 * pad - k) // stride + 1
              for size, k in zip(chw[1:], wshape[2:]))
    grad = (rng.standard_normal((batch, wshape[0], oh, ow),
                                dtype=np.float32) if backward else None)
    new, old = ((ag.conv2d, oracle.conv2d) if kind == "conv2d"
                else (ag.depthwise_conv2d, oracle.depthwise_conv2d))
    want = _run(old, x, w, b, grad, stride, pad)
    got = _run(new, x, w, b, grad, stride, pad)
    assert got.keys() == want.keys()
    for name in want:
        oracle.assert_matches(got[name], want[name])


def test_conv_output_is_channels_last():
    x = Tensor(np.zeros((4, 3, 8, 8), np.float32))
    out = ag.conv2d(x, Tensor(np.ones((5, 3, 3, 3), np.float32)), pad=1)
    p, o = 8 * 8, 5
    assert out.data.strides == tuple(4 * s for s in (p * o, 1, 8 * o, o))


@pytest.mark.parametrize("kind", ["conv2d", "depthwise"])
def test_batch_of_one_matches_oracle_to_rounding(kind):
    """einsum drops size-1 axes and then multiplies other operand
    layouts, so a single image agrees to float rounding, not bit for
    bit."""
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, (1, 6, 8, 8)).astype(np.float32)
    w = rng.normal(0, 0.3, (4, 6, 3, 3) if kind == "conv2d"
                   else (6, 1, 3, 3)).astype(np.float32)
    new, old = ((ag.conv2d, oracle.conv2d) if kind == "conv2d"
                else (ag.depthwise_conv2d, oracle.depthwise_conv2d))
    grad = rng.normal(0, 1, old(Tensor(x), Tensor(w), pad=1).shape) \
        .astype(np.float32)
    want = _run(old, x, w, None, grad, 1, 1)
    got = _run(new, x, w, None, grad, 1, 1)
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=1e-5,
                                   atol=1e-5)


# ----------------------------------------------------------------------
# restriction projector
# ----------------------------------------------------------------------
@st.composite
def _code_sets(draw):
    allowed = draw(st.lists(st.integers(-300, 300), min_size=1,
                            max_size=40))
    return sorted(set(allowed) | {0})


@given(_code_sets(), st.integers(0, 2 ** 32 - 1))
def test_projector_matches_searchsorted_oracle(allowed, seed):
    projector = ActivationFilter(allowed)
    rng = np.random.default_rng(seed)
    codes = rng.integers(-400, 400, (3, 4, 5, 6))
    for layout in (codes, oracle.in_layout(codes, (0, 2, 3, 1)),
                   codes[:, :, ::2], codes.astype(np.int32),
                   codes.astype(np.int8), np.arange(-1000, 1000)):
        oracle.assert_matches(projector(layout),
                              oracle.nearest_allowed(projector.allowed,
                                                     layout))


def test_projector_output_is_c_ordered():
    codes = oracle.in_layout(np.arange(-60, 60).reshape(2, 3, 4, 5),
                             (0, 2, 3, 1))
    projected = WeightRestriction([-8, 0, 8])(codes)
    assert projected.flags.c_contiguous
    assert projected.dtype == np.int64


def test_projector_ties_go_down():
    restriction = WeightRestriction([-4, 0, 4])
    np.testing.assert_array_equal(restriction(np.array([-2, 2])), [-4, 0])
    np.testing.assert_array_equal(
        ActivationFilter([0, 4, 10])(np.array([2, 7])), [0, 4])


def test_projector_codes_outside_8_bit_range():
    restriction = WeightRestriction([-5, 0, 7])
    np.testing.assert_array_equal(
        restriction(np.array([-10 ** 6, -129, -128, 127, 128, 10 ** 6])),
        [-5, -5, -5, 7, 7, 7])
    wide = ActivationFilter([0, 300])
    np.testing.assert_array_equal(
        wide(np.array([149, 150, 151, 299, 300, 301, 5000])),
        [0, 0, 300, 300, 300, 300, 300])


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.bool_])
def test_projector_rejects_non_integer_codes(dtype):
    with pytest.raises(TypeError, match=np.dtype(dtype).name):
        WeightRestriction([0, 1])(np.zeros(3, dtype=dtype))
