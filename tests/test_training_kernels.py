"""The training kernels equal their oracles bit for bit.

``conv2d`` and ``depthwise_conv2d`` must reproduce the einsum kernels in
``tests/oracles``: the forward output and the weight, input and bias
gradients agree in value, dtype and strides.  Strides matter because
later reductions (batch-norm means, gradient sums) walk memory in layout
order; a kernel with the right values in another layout changes the
rounding downstream and with it the whole training run.  The restriction
projector must likewise return the ``searchsorted`` oracle's codes in
C order.  The one-node ``BatchNorm2d`` and ``QuantReLU`` must reproduce
the graphs composed from elementary nodes: outputs, input and parameter
gradients and running statistics; and whole models trained with either
must end in the same state.

The layer shapes and input layouts are traced from a forward pass of
all four networks at each scale, and every layer runs at each batch
size the pipeline feeds it at that scale (:func:`pipeline_batches`).

Bit identity was checked with numpy 2.4.6 and OpenBLAS 0.3.31
(scipy-openblas, one thread) on x86-64 under Python 3.11.  In other
environments the convolutions are compared to float rounding instead
(``oracles.nn_kernels.BIT_EXACT``).
"""

import contextlib
import inspect

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import nn_kernels as oracle
from repro.core.pipeline import PipelineConfig
from repro.experiments.config import NETWORK_SPECS, SCALES
from repro.models.registry import build_model
from repro.nn import autograd as ag
from repro.nn import layers
from repro.nn.autograd import Tensor
from repro.nn.restrict import ActivationFilter, WeightRestriction
from repro.nn.trainer import Trainer, TrainingConfig

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


# ----------------------------------------------------------------------
# batch norm and quantized activation
# ----------------------------------------------------------------------
#: The activation filter of the filtered cases.
FILTER = (0, 3, 7, 12, 30, 64, 127)


def _norm_cases():
    """(layer, batch, train, filtered) cases of the traced ``BatchNorm2d``
    and ``QuantReLU`` calls.

    Training-mode batch norm reduces over (N, H, W) in layout order, so
    its bits depend on the shape: every traced batch norm runs at every
    batch size trained at its scale, forward and backward.  Everything
    else (eval-mode batch norm, the activation's clamp, quantizer,
    filter and masks, the running maximum) rounds each element alone,
    whatever the shape, so one input per layout stands for the layers
    that share it, at every batch size the pipeline feeds, trained up
    to the training batch and otherwise run forward in eval mode.
    """
    trained, traced, every_batch = set(), set(), set()
    for scale in SCALES:
        batches = pipeline_batches(scale)
        every_batch.update(batches)
        for layer in oracle.traced_norm_layers((scale,)):
            traced.add(layer)
            if layer[0] == "batchnorm":
                trained.update((layer, batch)
                               for batch, backward in batches.items()
                               if backward)
    representatives = {}
    for layer in traced:
        kind, shape, order, six = layer
        key = (kind, len(shape), order, six)
        if key not in representatives or \
                np.prod(shape) < np.prod(representatives[key][1]):
            representatives[key] = layer
    train = PipelineConfig().batch_size
    cases = [(layer, batch, True, False)
             for (layer, batch) in sorted(trained, key=repr)]
    for layer in sorted(representatives.values(), key=repr):
        filters = (False, True) if layer[0] == "quantrelu" else (False,)
        for batch in sorted(every_batch):
            if layer[0] == "batchnorm" and batch <= train:
                continue  # trained above
            for filtered in filters:
                cases.append((layer, batch, batch <= train, filtered))
    return cases


NORM_CASES = _norm_cases()


def _norm_id(case):
    (kind, shape, order, six), batch, train, filtered = case
    name = "relu6" if six else "relu" if kind == "quantrelu" else "bn"
    layout = "".join("NCHW"[a] if len(order) == 4 else "NF"[a]
                     for a in order)
    return (f"{name}-{'x'.join(map(str, shape))}-{layout}-n{batch}"
            f"{'' if train else '-eval'}{'-filter' if filtered else ''}")


def _norm_module(layer, rng):
    kind, shape, __, six = layer
    if kind == "batchnorm":
        module = layers.BatchNorm2d(shape[0])
        module.gamma.data = rng.normal(1, 0.2, shape[0]).astype(np.float32)
        module.beta.data = rng.normal(0, 0.2, shape[0]).astype(np.float32)
        module.running_mean = rng.normal(0, 0.5, shape[0]) \
            .astype(np.float32)
        module.running_var = rng.uniform(0.5, 2, shape[0]) \
            .astype(np.float32)
    else:
        module = layers.QuantReLU(six=six)
        module.running_max = 4.0
    return module


def _run_norm(layer, batch, train, filtered, composed, grad_in_eval=False):
    """One forward (and backward when training) of a fresh module on
    seeded inputs; every resulting array and statistic."""
    kind, shape, order, __ = layer
    rng = np.random.default_rng([batch, *shape, *order])
    x_data = oracle.in_layout(
        rng.normal(0.5, 2.0, (batch, *shape)).astype(np.float32), order)
    grad = rng.standard_normal((batch, *shape), dtype=np.float32)
    module = _norm_module(layer, rng)
    module.train(train)
    if filtered:
        module.activation_filter = ActivationFilter(FILTER)
    backward = train or grad_in_eval
    x = Tensor(x_data, requires_grad=backward)
    with oracle.composed_layers() if composed else contextlib.nullcontext():
        out = module(x)
        if backward:
            (out * Tensor(grad)).sum().backward()
    arrays = {"forward": out.data}
    if backward:
        arrays["dX"] = x.grad
    if kind == "batchnorm":
        if backward:
            arrays["dgamma"] = module.gamma.grad
            arrays["dbeta"] = module.beta.grad
        arrays["running_mean"] = module.running_mean
        arrays["running_var"] = module.running_var
    else:
        arrays["running_max"] = np.float64(module.running_max)
    return arrays


@pytest.mark.parametrize("layer, batch, train, filtered", NORM_CASES,
                         ids=map(_norm_id, NORM_CASES))
def test_norm_layer_matches_composed_oracle(layer, batch, train, filtered):
    want = _run_norm(layer, batch, train, filtered, composed=True)
    got = _run_norm(layer, batch, train, filtered, composed=False)
    assert got.keys() == want.keys()
    for name in want:
        oracle.assert_matches(got[name], want[name])


def test_norm_cases_cover_the_networks():
    traced = {case[0] for case in NORM_CASES}
    kinds = {(layer[0], layer[3]) for layer in traced}
    assert kinds == {("batchnorm", False), ("quantrelu", False),
                     ("quantrelu", True)}
    orders = {layer[2] for layer in traced}
    # channels-last convolution outputs, channel-major depthwise
    # outputs, C-ordered filtered activations and the dense layers
    assert {(0, 2, 3, 1), (1, 0, 2, 3), (0, 1, 2, 3), (0, 1)} <= orders
    assert {(case[2], case[3]) for case in NORM_CASES
            if case[0][0] == "quantrelu"} == {(True, False), (True, True),
                                              (False, False), (False, True)}
    assert any(not case[2] for case in NORM_CASES
               if case[0][0] == "batchnorm")


def test_eval_batch_norm_passes_gradients():
    layer = ("batchnorm", (6, 5, 5), (0, 2, 3, 1), False)
    want = _run_norm(layer, 4, False, False, composed=True,
                     grad_in_eval=True)
    got = _run_norm(layer, 4, False, False, composed=False,
                    grad_in_eval=True)
    assert {"dX", "dgamma", "dbeta"} <= got.keys()
    assert np.abs(got["dX"]).sum() > 0
    for name in want:
        oracle.assert_matches(got[name], want[name])


#: Networks trained whole against the composed layers: batch norm with
#: and without residual sums, relu and relu6 activations, dense layers.
WHOLE_MODELS = ("resnet20", "lenet5", "efficientnet-b0-lite")


def _train_whole(network, composed):
    """A few SGD steps of ``network`` at smoke width, the last two with
    a weight restriction and an activation filter installed, then an
    eval-mode forward; the losses and the final state."""
    spec = next(s for s in NETWORK_SPECS if s.network == network)
    scale = SCALES["smoke"]
    rng = np.random.default_rng(11)
    x = rng.standard_normal((12, 3, 32, 32), dtype=np.float32)
    y = rng.integers(0, spec.num_classes, 12)
    with oracle.composed_layers() if composed else contextlib.nullcontext():
        layers.seed_init(0)
        model = build_model(network, spec.num_classes, scale.width_mult,
                            scale.depth_mult)
        trainer = Trainer(model, TrainingConfig(lr=0.05))
        losses = [trainer._step(x[:8], y[:8])[0],
                  trainer._step(x[4:], y[4:])[0]]
        model.set_weight_restriction(
            WeightRestriction(list(range(-127, 128, 5)) + [0]))
        model.set_activation_filter(ActivationFilter(FILTER))
        losses += [trainer._step(x[:8], y[:8])[0],
                   trainer._step(x[2:10], y[2:10])[0]]
        model.eval()
        with ag.no_grad():
            logits = model(Tensor(x)).data
    return np.array(losses), logits, model.state_dict()


@pytest.mark.parametrize("network", WHOLE_MODELS)
def test_whole_model_training_matches_composed_layers(network):
    """Per-layer gates cannot see the order in which gradients from
    different nodes meet; training whole models with the production
    layers and with the composed ones must end in the same bytes."""
    init_rng = layers._INIT_RNG
    try:
        want = _train_whole(network, composed=True)
        got = _train_whole(network, composed=False)
    finally:
        layers._INIT_RNG = init_rng
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2].keys() == want[2].keys()
    for key, value in want[2].items():
        if isinstance(value, np.ndarray):
            assert got[2][key].tobytes() == value.tobytes(), key
        else:
            assert got[2][key] == value, key
