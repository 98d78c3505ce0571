"""An accelerator point pays only for its own stages.

A design point over a warm prefix builds neither the MAC netlist nor
the cell library, neither rebuilds nor traces the pruned model once
``accel_layers`` is cached, counts each layer once per geometry, keys
each stage once per runner, and builds its power lookup with one
``np.interp`` call.  The keys are held to the memo-free
``dataclasses.asdict`` walk in :mod:`oracles.stage_keys` and to a
pinned digest, the lookup to the per-weight loop in
:mod:`oracles.array_power`.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import array_power
from oracles import stage_keys as oracle
from repro.core import stages
from repro.core.artifacts import ArtifactStore
from repro.core.pipeline import POWER_PRUNING_GRAPH
from repro.core.stages import PipelineOps, StageRunner
from repro.experiments.config import NETWORK_SPECS, pipeline_config
from repro.experiments.sweep import (
    expand,
    make_sweep_spec,
    point_cache_key,
    point_config,
    run_sweep,
)
from repro.hw import HardwareBackend, list_backends
from repro.power.characterization import WeightPowerTable
from repro.systolic import ArrayPowerModel, MacPowerParams, SystolicConfig
from repro.systolic import energy

#: The backends registered by the package itself.
BUILTIN_BACKENDS = ("nangate15-booth", "nangate15-array",
                    "nangate15-ripple", "scaled-45nm")

#: sha256 over every stage key and point key of the points
#: :func:`_accel_points` expands for the built-in backends.  A change
#: that moves it orphans every cached artifact; only a deliberate stage
#: version bump or graph rewiring may update it.  Last moved by the
#: shared ``accel_layers`` trace (``accel_schedule`` and ``accel_eval``
#: version 2); every key upstream of it stayed as it was.
PINNED_KEYS_DIGEST = (
    "a3cf55a7a202d416f89c8959dd2960acb2f4c86661c5e385bcc40e8e7e51890a")


def _accel_points(backend):
    return expand(make_sweep_spec(
        "accel", networks=(NETWORK_SPECS[0],), scale="smoke",
        backends=(backend,), array_shapes=("16x48", None),
        hw_variants=("standard", "optimized")))


# ----------------------------------------------------------------------
# hardware models are built on first use
# ----------------------------------------------------------------------
def test_accel_point_builds_no_netlist_or_library(smoke_cache_dir,
                                                  monkeypatch):
    """A new design point over a warm prefix, and its cached repeat,
    run with the gate-level builders patched to raise."""
    config = pipeline_config(NETWORK_SPECS[0], "smoke")
    runner = StageRunner(POWER_PRUNING_GRAPH, PipelineOps(config),
                         ArtifactStore(smoke_cache_dir))
    for stage in ("pruned", "power_table", "voltage_scaling"):
        runner.get(stage)

    def refuse(self):
        raise AssertionError("an accel point built a gate-level model")

    monkeypatch.setattr(HardwareBackend, "build_mac", refuse)
    monkeypatch.setattr(HardwareBackend, "build_library", refuse)
    spec = make_sweep_spec("accel", networks=(NETWORK_SPECS[0],),
                           scale="smoke", array_shapes=("40x24",))
    computed = run_sweep(spec, jobs=1, cache_dir=smoke_cache_dir)
    repeat = run_sweep(spec, jobs=1, cache_dir=smoke_cache_dir)
    assert len(computed.rows) == len(repeat.rows) == 2
    for first, again in zip(computed.rows, repeat.rows):
        assert first.skipped is None and not first.cached
        assert np.isfinite(first.metrics["energy_uj"])
        assert again.cached and again.metrics == first.metrics


def test_accel_point_traces_nothing_and_counts_each_layer_once(
        smoke_cache_dir, monkeypatch):
    """Over a warm layer trace, two new geometries x both variants
    rebuild no model, trace nothing, and count each layer's stationary
    values once per geometry."""
    config = pipeline_config(NETWORK_SPECS[0], "smoke")
    runner = StageRunner(POWER_PRUNING_GRAPH, PipelineOps(config),
                         ArtifactStore(smoke_cache_dir))
    for stage in ("accel_layers", "power_table", "voltage_scaling"):
        runner.get(stage)
    n_layers = len(runner.get("accel_layers"))

    def refuse(*args, **kwargs):
        raise AssertionError("an accel point rebuilt or traced the model")

    monkeypatch.setattr(PipelineOps, "model_from_state", refuse)
    monkeypatch.setattr(PipelineOps, "trace_layers", refuse)
    calls = []
    count = energy.schedule_value_counts
    monkeypatch.setattr(energy, "schedule_value_counts",
                        lambda *args: calls.append(1) or count(*args))
    spec = make_sweep_spec("accel", networks=(NETWORK_SPECS[0],),
                           scale="smoke", array_shapes=("44x12", "12x44"))
    result = run_sweep(spec, jobs=1, cache_dir=smoke_cache_dir)
    assert len(result.rows) == 4
    assert not any(row.cached for row in result.rows)
    assert len(calls) == 2 * n_layers


def test_models_are_built_once_on_first_use():
    ops = PipelineOps(pipeline_config(NETWORK_SPECS[0], "smoke"))
    assert "mac" not in vars(ops) and "library" not in vars(ops)
    assert ops.mac is ops.mac
    assert ops.systolic_config is ops.systolic_config


# ----------------------------------------------------------------------
# stage keys: one pass per runner, unchanged bytes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", list_backends())
def test_stage_and_point_keys_equal_the_oracle(backend):
    for point in _accel_points(backend):
        config = point_config(point)
        runner = StageRunner(POWER_PRUNING_GRAPH, PipelineOps(config))
        for name in POWER_PRUNING_GRAPH.names():
            assert runner.key(name) == oracle.stage_key(
                POWER_PRUNING_GRAPH, name, config), (point, name)
        assert point_cache_key(point, config) == oracle.point_cache_key(
            POWER_PRUNING_GRAPH, point, config), point


def test_keys_match_the_pinned_digest():
    keys = {}
    for backend in BUILTIN_BACKENDS:
        for point in _accel_points(backend):
            config = point_config(point)
            point_keys = POWER_PRUNING_GRAPH.keys(config)
            point_keys["point"] = point_cache_key(point, config)
            keys[point.describe()] = point_keys
    blob = json.dumps(keys, sort_keys=True).encode()
    assert len(keys) == 16
    assert hashlib.sha256(blob).hexdigest() == PINNED_KEYS_DIGEST


def test_runner_memo_equals_a_full_key_pass():
    """Each runner memoizes its own config's keys: runners on other
    backends and design points, interleaved, never share one."""
    configs = [point_config(point) for backend in BUILTIN_BACKENDS
               for point in _accel_points(backend)]
    runners = [StageRunner(POWER_PRUNING_GRAPH, PipelineOps(config))
               for config in configs]
    for name in reversed(POWER_PRUNING_GRAPH.names()):
        for runner in runners:
            runner.key(name)
    for runner, config in zip(runners, configs):
        assert runner._keys == POWER_PRUNING_GRAPH.keys(config)


def test_a_runner_keys_each_stage_once(monkeypatch):
    """Repeated ``get`` calls walk the dependency tree once: one
    backend payload per stage in ``accel_eval``'s closure, in total."""
    config = point_config(_accel_points(BUILTIN_BACKENDS[0])[0])
    store = ArtifactStore()
    for name, key in POWER_PRUNING_GRAPH.keys(config).items():
        store.put(key, name)
    payloads = []
    real = stages.backend_key_payload
    monkeypatch.setattr(stages, "backend_key_payload",
                        lambda cfg: payloads.append(1) or real(cfg))
    runner = StageRunner(POWER_PRUNING_GRAPH, PipelineOps(config), store)
    for _ in range(3):
        assert runner.get("accel_eval") == "accel_eval"
        assert runner.get("accel_schedule") == "accel_schedule"
    closure, todo = set(), ["accel_eval"]
    while todo:
        name = todo.pop()
        closure.add(name)
        todo.extend(POWER_PRUNING_GRAPH[name].deps)
    assert len(closure) == 12
    assert len(payloads) == len(closure)


# ----------------------------------------------------------------------
# the power lookup: one np.interp call, the loop's bytes
# ----------------------------------------------------------------------
def _table(weights, dynamic) -> WeightPowerTable:
    dynamic = np.asarray(dynamic, dtype=np.float64)
    return WeightPowerTable(weights=np.asarray(weights),
                            power_uw=dynamic + 3.0, dynamic_uw=dynamic,
                            leakage_uw=3.0, clock_period_ps=180.0)


def _lut(table: WeightPowerTable) -> np.ndarray:
    model = ArrayPowerModel(SystolicConfig(rows=8, cols=8),
                            MacPowerParams(table=table))
    return model._dynamic_lut


_POWER = st.floats(0.0, 5000.0, allow_nan=False, allow_infinity=False)


@st.composite
def _tables(draw):
    """Random characterizations: any subset of the 256 weights (the
    table sorts them), powers drawn partly from a small pool so runs
    of equal values occur."""
    weights = draw(st.lists(st.integers(-128, 127), min_size=1,
                            max_size=256, unique=True))
    pool = draw(st.lists(_POWER, min_size=1, max_size=4))
    dynamic = draw(st.lists(st.one_of(st.sampled_from(pool), _POWER),
                            min_size=len(weights),
                            max_size=len(weights)))
    return _table(weights, dynamic)


@settings(max_examples=200, deadline=None)
@given(table=_tables())
@example(table=_table([0], [412.5]))
@example(table=_table(range(-128, 128), np.linspace(0, 900, 256)))
@example(table=_table(range(-127, 127, 3), np.arange(85) * 7.25))
@example(table=_table([-100, -3, 0, 5, 90], [200.0, 200.0, 0.0, 9.5,
                                               9.5]))
def test_lookup_bytes_equal_the_per_weight_loop(table):
    got = _lut(table)
    want = array_power.dynamic_lut_loop(table)
    assert got.dtype == want.dtype and got.shape == want.shape == (256,)
    assert got.tobytes() == want.tobytes()
