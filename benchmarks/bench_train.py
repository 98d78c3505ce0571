"""Benchmark the training kernels against their oracles.

Times, per autograd op, the production kernel against the oracle it
replaced (``tests/oracles/nn_kernels.py``):

* ``conv2d`` and ``depthwise_conv2d``: forward, weight gradient (dW) and
  input gradient (dX), over every distinct layer of all four networks at
  smoke and ci scale (traced from a forward pass, input layouts
  included) at the training batch of 32, against the ``np.einsum``
  kernels, with C-ordered output gradients as ``Tensor._accumulate``
  leaves them;
* the restriction projector against the ``searchsorted`` projection, on
  activation codes of each of those layers' input shapes, laid out
  channels-last as the quantized activations reach it;
* ``BatchNorm2d`` and ``QuantReLU`` against the graphs composed from
  elementary nodes, over every distinct batch norm and activation of
  the four networks at smoke and ci scale (input layouts included) at
  the training batch: training-mode forward and backward
  (``batchnorm.train``, ``quantrelu.train``) and the eval-mode forward
  (``batchnorm.eval``).  The backward starts from the same scalar loss
  ``sum(out * grad)`` on both sides, and the oracle side accumulates
  gradients by copying, as the composed graph did.

Before anything is timed, every result is asserted bit-equal to the
oracle: value, dtype and strides (to float rounding outside the
environment the bit identity was checked in, see
``oracles.nn_kernels.BIT_EXACT``).  Results go to ``BENCH_train.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_train.py
    PYTHONPATH=src python benchmarks/bench_train.py --quick --json BENCH_train.json

Each op's time is the sum over layers of each layer's fastest run.
Both modes assert the per-op speedup floors in ``FLOORS``, set below
the measured speedups; ``--quick`` times fewer repeats for CI.
"""

from __future__ import annotations

import os

# One BLAS thread: steady timings on a shared machine (and the
# benchmark's setting).  Must be set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from oracles import nn_kernels as oracle  # noqa: E402
from repro.nn import autograd as ag  # noqa: E402
from repro.nn import layers as nn_layers  # noqa: E402
from repro.nn.autograd import Tensor  # noqa: E402
from repro.nn.restrict import ActivationFilter  # noqa: E402

BATCH = 32

#: Minimum speedup (oracle time / production time) per op, summed over
#: the layers.  Set below the measured speedups (see BENCH_train.json);
#: the depthwise forward is the same matrix-vector products as einsum's
#: and the eval-mode batch norm the same four numpy calls as the
#: composed one, so their floors only guard against a slowdown.
FLOORS = {
    "conv2d.forward": 1.1,
    "conv2d.dW": 1.1,
    "conv2d.dX": 1.0,
    "depthwise.forward": 0.8,
    "depthwise.dW": 2.0,
    "depthwise.dX": 1.2,
    "restrict.project": 8.0,
    "batchnorm.train": 1.1,
    "batchnorm.eval": 0.8,
    "quantrelu.train": 1.0,
}

KERNELS = {"conv2d": (ag.conv2d, oracle.conv2d),
           "depthwise": (ag.depthwise_conv2d, oracle.depthwise_conv2d)}


class ConvCase:
    """One traced layer at the training batch, with its inputs."""

    def __init__(self, layer, rng: np.random.Generator) -> None:
        kind, chw, wshape, stride, pad, __, order = layer
        self.kind, self.stride, self.pad = kind, stride, pad
        self.x = oracle.in_layout(
            rng.standard_normal((BATCH, *chw), dtype=np.float32), order)
        self.w = rng.normal(0, 0.3, wshape).astype(np.float32)
        oh, ow = ((size + 2 * pad - k) // stride + 1
                  for size, k in zip(chw[1:], wshape[2:]))
        self.grad = rng.standard_normal((BATCH, wshape[0], oh, ow),
                                        dtype=np.float32)

    def forward(self, conv, x_grad: bool = False, w_grad: bool = False):
        x = Tensor(self.x, requires_grad=x_grad)
        w = Tensor(self.w, requires_grad=w_grad)
        return x, w, conv(x, w, stride=self.stride, pad=self.pad)

    def backward(self, conv, wrt: str):
        """The gradient with respect to ``"x"`` or ``"w"`` only, and the
        seconds its backward took."""
        x, w, out = self.forward(conv, x_grad=wrt == "x", w_grad=wrt == "w")
        out.grad = self.grad
        start = time.perf_counter()
        out._backward()
        elapsed = time.perf_counter() - start
        return (x.grad if wrt == "x" else w.grad), elapsed


class NormCase:
    """One traced batch norm or activation at the training batch."""

    def __init__(self, layer, rng: np.random.Generator) -> None:
        kind, shape, order, six = layer
        self.kind = kind
        self.x = oracle.in_layout(
            rng.normal(0.5, 2.0, (BATCH, *shape)).astype(np.float32), order)
        self.grad = rng.standard_normal((BATCH, *shape), dtype=np.float32)
        if kind == "batchnorm":
            self.module = nn_layers.BatchNorm2d(shape[0])
            self.module.gamma.data = rng.normal(1, 0.2, shape[0]) \
                .astype(np.float32)
            self.module.beta.data = rng.normal(0, 0.2, shape[0]) \
                .astype(np.float32)
        else:
            self.module = nn_layers.QuantReLU(six=six)
            self.module.running_max = 4.0
        self.state = self.module.state_dict()

    def run(self, composed: bool, train: bool) -> dict:
        """A forward (and, training, backward); every resulting array.
        Training moves the module's running statistics."""
        module = self.module
        module.train(train)
        context = (oracle.composed_layers() if composed
                   else contextlib.nullcontext())
        with context:
            if not train:
                with ag.no_grad():
                    return {"forward": module(Tensor(self.x)).data}
            x = Tensor(self.x, requires_grad=True)
            out = module(x)
            (out * Tensor(self.grad)).sum().backward()
        arrays = {"forward": out.data, "dX": x.grad}
        if self.kind == "batchnorm":
            arrays.update(dgamma=module.gamma.grad, dbeta=module.beta.grad,
                          running_mean=module.running_mean,
                          running_var=module.running_var)
        return arrays

    def ops(self):
        """(op name, training) of the timed rows this case belongs to."""
        if self.kind == "batchnorm":
            return [("batchnorm.train", True), ("batchnorm.eval", False)]
        return [("quantrelu.train", True)]


def verify(cases, projector, codes, norms) -> int:
    """Assert equality with the oracles (``oracle.assert_matches``);
    returns the number of arrays compared."""
    compared = 0
    for case in cases:
        new, old = KERNELS[case.kind]
        pairs = [(case.forward(new)[2].data, case.forward(old)[2].data)]
        for wrt in ("w", "x"):
            pairs.append((case.backward(new, wrt)[0],
                          case.backward(old, wrt)[0]))
        for got, want in pairs:
            oracle.assert_matches(got, want)
            compared += 1
    for code in codes:
        oracle.assert_matches(projector(code),
                              oracle.nearest_allowed(projector.allowed, code))
        compared += 1
    for case in norms:
        for __, train in case.ops():
            case.module.load_state_dict(case.state)
            got = case.run(False, train)
            case.module.load_state_dict(case.state)
            want = case.run(True, train)
            assert got.keys() == want.keys()
            for name in want:
                oracle.assert_matches(got[name], want[name])
                compared += 1
    return compared


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def bench(cases, projector, codes, norms, repeats: int) -> dict:
    """Seconds per pass over every layer, per op, new and oracle: the
    sum over layers of each layer's fastest of ``repeats`` runs."""
    times = {}

    def record(op: str, side: str, run) -> None:
        entry = times.setdefault(op, {"new_s": 0.0, "oracle_s": 0.0})
        entry[side] += min(run() for __ in range(repeats))

    def nearest(code):
        return oracle.nearest_allowed(projector.allowed, code)

    for case in cases:
        for side, conv in zip(("new_s", "oracle_s"), KERNELS[case.kind]):
            record(f"{case.kind}.forward", side,
                   lambda: _timed(case.forward, conv))
            for wrt, name in (("w", "dW"), ("x", "dX")):
                record(f"{case.kind}.{name}", side,
                       lambda: case.backward(conv, wrt)[1])
    for side, project in (("new_s", projector), ("oracle_s", nearest)):
        for code in codes:
            record("restrict.project", side, lambda: _timed(project, code))
    for case in norms:
        for op, train in case.ops():
            for side, composed in (("new_s", False), ("oracle_s", True)):
                record(op, side, lambda: _timed(case.run, composed, train))
    for entry in times.values():
        entry["speedup"] = entry["oracle_s"] / entry["new_s"]
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: fewer repeats, same floors")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="result file (default: BENCH_train.json at "
                             "the repository root)")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(0)
    layers = oracle.traced_conv_layers()
    cases = [ConvCase(layer, rng) for layer in layers]
    allowed = np.unique(np.append(rng.integers(0, 128, 40), 0))
    projector = ActivationFilter(allowed)
    codes = [oracle.in_layout(
        rng.integers(-128, 128, (BATCH, *layer[1])), (0, 2, 3, 1))
        for layer in layers]
    norms = [NormCase(layer, rng) for layer in oracle.traced_norm_layers()]
    compared = verify(cases, projector, codes, norms)
    equal = "bit-equal" if oracle.BIT_EXACT else "equal to rounding"
    print(f"verified: {compared} arrays {equal} to the oracles "
          f"({len(cases)} conv and {len(norms)} norm layers at batch "
          f"{BATCH})")

    repeats = 3 if args.quick else 9
    times = bench(cases, projector, codes, norms, repeats)
    for op, entry in times.items():
        print(f"{op:20s} {entry['new_s'] * 1e3:9.2f} ms  oracle "
              f"{entry['oracle_s'] * 1e3:9.2f} ms  "
              f"{entry['speedup']:6.2f}x (floor {FLOORS[op]}x)")
    low = {op: round(entry["speedup"], 2) for op, entry in times.items()
           if entry["speedup"] < FLOORS[op]}
    assert not low, f"speedup below its floor: {low}"

    payload = {
        "benchmark": "train_kernels",
        "quick": args.quick,
        "repeats": repeats,
        "batch": BATCH,
        "layers": len(cases),
        "norm_layers": len(norms),
        "projected_tensors": len(codes),
        "arrays_compared": compared,
        "bit_exact": oracle.BIT_EXACT,
        "times": times,
        "floors": FLOORS,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        },
    }
    out = Path(args.json) if args.json else ROOT / "BENCH_train.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"results written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
