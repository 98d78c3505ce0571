"""Layer geometry traced on one zero image instead of the dataset.

``power_measurement`` and ``accel_layers`` need each layer's weights
and matmul shape, nothing else.  With activations not captured those
depend only on the input shape, so :meth:`PipelineOps.trace_layers`
runs one zero image of :data:`repro.data.IMAGE_SHAPE` and neither stage
depends on the ``dataset`` stage.  These tests hold the zero trace to
the test-image trace it replaced, the declared shape to the datasets,
and the accel branch to never building a dataset.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.artifacts import ArtifactStore
from repro.core.pipeline import POWER_PRUNING_GRAPH
from repro.core.pruning import magnitude_prune
from repro.core.stages import PipelineOps, StageRunner, shared_stage_keys
from repro.core.workloads import extract_workloads
from repro.data import IMAGE_SHAPE, load_dataset
from repro.experiments.config import NETWORK_SPECS, SCALES, pipeline_config
from repro.experiments.sweep import (
    expand,
    make_sweep_spec,
    point_config,
    run_sweep,
)

ACCEL_STAGES = ("accel_schedule", "accel_eval")


@pytest.mark.parametrize("scale", sorted(SCALES))
@pytest.mark.parametrize("spec", NETWORK_SPECS,
                         ids=[s.network for s in NETWORK_SPECS])
def test_zero_trace_matches_test_image_trace(spec, scale):
    """Same names, weight bytes and tile schedules as the ``x_test[:2]``
    trace, on the backend's array and on a non-square one.

    The test images come from a dataset of the scale's kind but only
    one image per class: generating a paper-scale split would cost far
    more than the trace, and only the images' shape can matter.
    """
    config = pipeline_config(spec, scale)
    ops = PipelineOps(config)
    small = dataclasses.replace(config, n_train=config.num_classes,
                                n_test=config.num_classes)
    images = PipelineOps(small).build_dataset().x_test[:2]
    model = ops.build_model()
    magnitude_prune(model, config.prune_fraction)
    arrays = (ops.systolic_config,
              dataclasses.replace(ops.systolic_config, rows=16, cols=48))
    for array in arrays:
        want = extract_workloads(model, images, array,
                                 capture_activations=False)
        got = ops.trace_layers(model, array)
        assert [w.name for w in got] == [w.name for w in want]
        for ours, theirs in zip(got, want):
            assert ours.weights.dtype == theirs.weights.dtype
            assert ours.weights.shape == theirs.weights.shape
            assert ours.weights.tobytes() == theirs.weights.tobytes()
            assert ours.schedule == theirs.schedule
            assert ours.activations is None


def test_declared_image_shape_matches_every_dataset():
    for name in sorted({spec.dataset for spec in NETWORK_SPECS}):
        dataset = load_dataset(name, n_train=100, n_test=100)
        assert dataset.image_shape == IMAGE_SHAPE, name


def test_geometry_stages_do_not_depend_on_the_dataset():
    for name in ("accel_layers", "accel_schedule", "power_measurement"):
        assert "dataset" not in POWER_PRUNING_GRAPH[name].deps, name


def test_accel_point_never_builds_the_dataset(smoke_cache_dir,
                                              monkeypatch):
    """A new design point over a warm prefix computes both accel stages
    from disk artifacts alone: no dataset is generated."""
    config = pipeline_config(NETWORK_SPECS[0], "smoke")
    runner = StageRunner(POWER_PRUNING_GRAPH, PipelineOps(config),
                         ArtifactStore(smoke_cache_dir))
    for stage in ("pruned", "power_table", "voltage_scaling"):
        runner.get(stage)

    def no_dataset(self):
        raise AssertionError("an accel point built the dataset")

    monkeypatch.setattr(PipelineOps, "build_dataset", no_dataset)
    spec = make_sweep_spec("accel", networks=(NETWORK_SPECS[0],),
                           scale="smoke", array_shapes=("24x40",))
    keys = [shared_stage_keys(point_config(point), ACCEL_STAGES)
            for point in expand(spec)]
    store = ArtifactStore(smoke_cache_dir)
    assert not any(key in store for point_keys in keys
                   for key in point_keys.values())

    result = run_sweep(spec, jobs=1, cache_dir=smoke_cache_dir)
    assert len(result.rows) == 2
    for row in result.rows:
        assert row.skipped is None and not row.cached
        assert np.isfinite(row.metrics["energy_uj"])
    store = ArtifactStore(smoke_cache_dir)
    assert all(key in store for point_keys in keys
               for key in point_keys.values())
