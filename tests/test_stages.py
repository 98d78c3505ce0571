"""Tests for the stage-graph pipeline engine and the artifact cache."""

import dataclasses
import json
import platform
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import stages
from repro.core.artifacts import ArtifactStore, hash_key
from repro.core.pipeline import POWER_PRUNING_GRAPH, PipelineConfig, \
    PowerPruner
from repro.core.stages import Stage, StageGraph, StageRunner
from repro.hw import DEFAULT_BACKEND_ID, get_backend


class TestHashKey:
    def test_stable_under_dict_ordering(self):
        assert hash_key({"a": 1, "b": 2}) == hash_key({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert hash_key({"a": 1}) != hash_key({"a": 2})

    def test_handles_nested_and_numpy(self):
        key = hash_key({"t": (1, 2.5, None), "n": np.int64(3),
                        "arr": np.arange(3)})
        assert key == hash_key({"t": [1, 2.5, None], "n": 3,
                                "arr": [0, 1, 2]})

    def test_int_float_distinct(self):
        assert hash_key({"x": 825}) != hash_key({"x": 825.0})

    def test_rejects_unhashable_payloads(self):
        with pytest.raises(TypeError):
            hash_key({"fn": object()})


class TestArtifactStore:
    def test_get_or_compute_computes_once(self):
        store = ArtifactStore()
        calls = []
        for __ in range(3):
            value = store.get_or_compute("k", lambda: calls.append(1)
                                         or "v")
        assert value == "v"
        assert len(calls) == 1
        assert store.hits == 2 and store.misses == 1

    def test_memory_layer_returns_same_object(self):
        store = ArtifactStore()
        first = store.get_or_compute("k", lambda: {"payload": 1})
        second = store.get_or_compute("k", lambda: {"payload": 2})
        assert first is second

    def test_disk_roundtrip_across_stores(self, tmp_path):
        writer = ArtifactStore(tmp_path)
        writer.put("k", {"arr": np.arange(4)})
        reader = ArtifactStore(tmp_path)
        value = reader.get_or_compute(
            "k", lambda: pytest.fail("must hit disk"))
        assert np.array_equal(value["arr"], np.arange(4))
        assert reader.disk_hits == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        (tmp_path / "k.pkl").write_bytes(b"not a pickle")
        store = ArtifactStore(tmp_path)
        assert store.get_or_compute("k", lambda: "recomputed") == \
            "recomputed"

    def test_cache_dir_must_not_be_a_file(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("")
        with pytest.raises(ValueError):
            ArtifactStore(target)

    def test_unpersisted_artifacts_stay_off_disk(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.get_or_compute("k", lambda: "v", persist=False)
        assert store.get_or_compute("k", lambda: "other",
                                    persist=False) == "v"
        assert not (tmp_path / "k.pkl").exists()
        assert ArtifactStore(tmp_path).get("k") is None


def _counting_graph(counts):
    """a -> b -> c toy graph that tallies stage executions."""
    graph = StageGraph()
    graph.add(Stage("a", lambda ops, inp: counts.update(
        a=counts["a"] + 1) or ops.config.x, fields=("x",)))
    graph.add(Stage("b", lambda ops, inp: counts.update(
        b=counts["b"] + 1) or inp["a"] * 10, deps=("a",)))
    graph.add(Stage("c", lambda ops, inp: counts.update(
        c=counts["c"] + 1) or inp["b"] + ops.config.y,
        deps=("b",), fields=("y",)))
    return graph


def _ops(x=1, y=2):
    config = SimpleNamespace(x=x, y=y,
                             backend=get_backend(DEFAULT_BACKEND_ID))
    return SimpleNamespace(config=config, log=lambda message: None)


class TestStageRunner:
    def test_each_stage_computed_once(self):
        counts = {"a": 0, "b": 0, "c": 0}
        runner = StageRunner(_counting_graph(counts), _ops())
        assert runner.get("c") == 12
        assert runner.get("c") == 12
        assert runner.get("a") == 1
        assert counts == {"a": 1, "b": 1, "c": 1}

    def test_shared_store_skips_all_stages(self):
        counts = {"a": 0, "b": 0, "c": 0}
        graph = _counting_graph(counts)
        store = ArtifactStore()
        StageRunner(graph, _ops(), store).get("c")
        assert StageRunner(graph, _ops(), store).get("c") == 12
        assert counts == {"a": 1, "b": 1, "c": 1}
        assert store.misses == 3

    def test_changed_field_invalidates_only_downstream(self):
        counts = {"a": 0, "b": 0, "c": 0}
        graph = _counting_graph(counts)
        store = ArtifactStore()
        StageRunner(graph, _ops(y=2), store).get("c")
        assert StageRunner(graph, _ops(y=5), store).get("c") == 15
        # a and b were reused; only c recomputed
        assert counts == {"a": 1, "b": 1, "c": 2}

    def test_heap_released_after_stages_over_memory_only_inputs(
            self, tmp_path, monkeypatch):
        events = []
        monkeypatch.setattr(stages, "_release_freed_heap",
                            lambda: events.append("release"))

        def stage(name, **kwargs):
            return Stage(name, lambda ops, inp: events.append(name) or 1,
                         **kwargs)

        graph = StageGraph()
        graph.add(stage("data", persist=False))
        graph.add(stage("train", deps=("data",)))
        graph.add(stage("light", deps=("train",)))
        StageRunner(graph, _ops(), ArtifactStore(tmp_path)).get("light")
        assert events == ["data", "train", "release", "light"]
        # Served from the store, nothing runs and nothing is released.
        StageRunner(graph, _ops(), ArtifactStore(tmp_path)).get("light")
        StageRunner(graph, _ops(), ArtifactStore(tmp_path)).get("train")
        assert events == ["data", "train", "release", "light"]

    def test_heap_release_resolves_on_glibc(self):
        if platform.libc_ver()[0] == "glibc":
            assert stages._malloc_trim() is not None
        stages._release_freed_heap()

    def test_dependencies_must_exist(self):
        graph = StageGraph()
        with pytest.raises(ValueError):
            graph.add(Stage("b", lambda ops, inp: None, deps=("a",)))

    def test_duplicate_stage_rejected(self):
        graph = StageGraph()
        graph.add(Stage("a", lambda ops, inp: None))
        with pytest.raises(ValueError):
            graph.add(Stage("a", lambda ops, inp: None))


class TestPowerPruningGraphKeys:
    """Selective invalidation over the real pipeline graph."""

    def _keys(self, **overrides):
        config = dataclasses.replace(PipelineConfig(), **overrides)
        return POWER_PRUNING_GRAPH.keys(config)

    def test_same_config_same_keys(self):
        assert self._keys() == self._keys()

    def test_seed_invalidates_everything_but_the_dataset(self):
        base, changed = self._keys(), self._keys(seed=7)
        assert changed["dataset"] == base["dataset"]
        for name in POWER_PRUNING_GRAPH.names():
            if name != "dataset":
                assert changed[name] != base[name], name

    def test_prune_fraction_keeps_training_and_power_prefix(self):
        base, changed = self._keys(), self._keys(prune_fraction=0.7)
        unchanged = ("dataset", "baseline", "operand_stats",
                     "power_table")
        for name in unchanged:
            assert changed[name] == base[name], name
        for name in set(POWER_PRUNING_GRAPH.names()) - set(unchanged):
            assert changed[name] != base[name], name

    def test_char_samples_keeps_training_prefix(self):
        base, changed = self._keys(), self._keys(char_samples=999)
        for name in ("dataset", "baseline", "pruned", "operand_stats"):
            assert changed[name] == base[name], name
        for name in ("power_table", "power_selection", "timing_table",
                     "delay_selection", "power_measurement", "report"):
            assert changed[name] != base[name], name


class TestCharWeights:
    def test_anchors_deduplicated(self):
        weights = PipelineConfig(char_weight_step=4).char_weights()
        assert len(weights) == len(set(weights))
        for anchor in (-127, -105, -2, 0, 2, 105, 127):
            assert anchor in weights

    def test_cached_tuple_identity(self):
        config = PipelineConfig()
        assert config.char_weights() is config.char_weights()

    def test_cache_tracks_step_changes(self):
        """A replaced config computes its own weights."""
        config = PipelineConfig(char_weight_step=4)
        coarse = config.char_weights()
        replaced = dataclasses.replace(config, char_weight_step=16)
        finer_step = replaced.char_weights()
        assert finer_step is replaced.char_weights()
        assert len(finer_step) < len(coarse)
        assert config.char_weights() is coarse

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PipelineConfig().char_weight_step = 16


def _tiny_config(**overrides) -> PipelineConfig:
    config = PipelineConfig(
        network="lenet5", dataset="cifar10", width_mult=0.25,
        n_train=160, n_test=80, baseline_epochs=1, retrain_epochs=1,
        char_weight_step=32, char_samples=120, timing_transitions=600,
        n_restarts=1, stats_batch=4,
        power_thresholds_uw=(900.0,), delay_thresholds_ps=(170.0,),
    )
    return dataclasses.replace(config, **overrides)


@pytest.mark.slow
class TestPipelineCacheDeterminism:
    def test_cached_resume_reproduces_report_bitwise(self, tmp_path):
        uncached = PowerPruner(_tiny_config()).run()

        cache = tmp_path / "artifact-cache"
        cold = PowerPruner(_tiny_config(), cache_dir=cache)
        cold_report = cold.run()
        assert cold.store.misses > 0

        warm = PowerPruner(_tiny_config(), cache_dir=cache)
        warm_report = warm.run()
        assert warm.store.misses == 0  # every stage resumed from disk

        for report in (cold_report, warm_report):
            assert json.dumps(report.as_dict(), sort_keys=True) == \
                json.dumps(uncached.as_dict(), sort_keys=True)
            pruned = report.extras["pruned"]
            reference = uncached.extras["pruned"]
            assert pruned["accuracy"] == reference["accuracy"]
            assert pruned["power_opt"].total_uw == \
                reference["power_opt"].total_uw

    def test_upstream_change_recomputes_only_downstream(self, tmp_path):
        cache = tmp_path / "artifact-cache"
        PowerPruner(_tiny_config(), cache_dir=cache).run()

        changed = PowerPruner(_tiny_config(prune_fraction=0.6),
                              cache_dir=cache)
        changed.run()
        # baseline/operand_stats/power_table come from the disk cache;
        # pruning and everything after it recompute, plus the dataset,
        # which is deliberately memory-only (persist=False).
        assert changed.store.hits >= 3
        recomputed = {"dataset", "pruned", "power_selection",
                      "timing_table", "delay_selection",
                      "voltage_scaling", "power_measurement", "report"}
        assert changed.store.misses == len(recomputed)
