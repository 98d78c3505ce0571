"""Tests for the declarative sweep engine and parallel error naming."""

import json
from dataclasses import dataclass, fields as dataclass_fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.artifacts import ArtifactStore
from repro.core.pipeline import PipelineConfig
from repro.core.stages import StageGraph, shared_stage_keys
from repro.experiments import sweep as sweep_mod
from repro.experiments.config import NETWORK_SPECS
from repro.experiments.parallel import ParallelTaskError, parallel_map
from repro.experiments.runner import ExperimentContext
from repro.experiments.sweep import (
    SHARED_PREFIX_STAGES,
    SweepSpec,
    expand,
    fig9_weight_threshold,
    load_sweep_file,
    make_sweep_spec,
    point_cache_key,
    point_config,
    resolve_network,
    run_sweep,
    shared_prefix_count,
    sweep_experiments,
)
from repro.hw import DEFAULT_BACKEND_ID, list_backends


class TestMakeSweepSpec:
    def test_experiments_registered(self):
        assert set(sweep_experiments()) >= {"table1", "fig8", "fig9"}

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep experiment"):
            make_sweep_spec("fig12")

    def test_table1_has_no_threshold_axis(self):
        assert make_sweep_spec("table1").thresholds == (None,)
        with pytest.raises(ValueError, match="no threshold axis"):
            make_sweep_spec("table1", thresholds=(800.0,))

    def test_fig9_thresholds_sorted_descending_and_numeric(self):
        spec = make_sweep_spec("fig9",
                               thresholds=(150.0, 180.0, 160.0, 180.0))
        assert spec.thresholds == (180.0, 160.0, 150.0)
        with pytest.raises(ValueError, match="must be numbers"):
            make_sweep_spec("fig9", thresholds=(None, 160.0))

    def test_fig8_keeps_given_order_dedupes_and_allows_none(self):
        spec = make_sweep_spec("fig8",
                               thresholds=(None, 900.0, 900, 850.0))
        assert spec.thresholds == (None, 900.0, 850.0)

    def test_network_resolution_by_name_label_and_spec(self):
        by_name = resolve_network("lenet5")
        by_label = resolve_network("LeNet-5-CIFAR-10")
        assert by_name is by_label is NETWORK_SPECS[0]
        assert resolve_network(NETWORK_SPECS[2]) is NETWORK_SPECS[2]
        with pytest.raises(ValueError, match="unknown network"):
            resolve_network("alexnet")

    def test_axes_deduplicated_preserving_order(self):
        spec = make_sweep_spec(
            "fig8",
            backends=("nangate15-array", "nangate15-booth",
                      "nangate15-array"),
            networks=("resnet20", "lenet5", "resnet20"),
            seeds=(3, 0, 3))
        assert spec.backends == ("nangate15-array", "nangate15-booth")
        assert [n.network for n in spec.networks] == ["resnet20",
                                                      "lenet5"]
        assert spec.seeds == (3, 0)

    def test_defaults(self):
        spec = make_sweep_spec("fig8")
        assert spec.backends == (DEFAULT_BACKEND_ID,)
        assert spec.networks == (NETWORK_SPECS[0],)
        assert spec.seeds == (0,)
        assert spec.scale == "ci"


class TestLoadSweepFile:
    def test_json_with_none_strings_and_nulls(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "experiment": "fig8",
            "backends": ["nangate15-booth", "nangate15-array"],
            "networks": ["lenet5"],
            "thresholds": [None, "none", 900.0],
            "seeds": [0, 1],
            "scale": "smoke",
        }))
        spec = load_sweep_file(path)
        assert spec.experiment == "fig8"
        assert spec.thresholds == (None, 900.0)
        assert spec.seeds == (0, 1)
        assert spec.scale == "smoke"

    def test_toml(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text(
            'experiment = "fig9"\n'
            'backends = ["nangate15-booth"]\n'
            'thresholds = [160.0, 180.0]\n'
        )
        spec = load_sweep_file(path)
        assert spec.experiment == "fig9"
        assert spec.thresholds == (180.0, 160.0)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"experiment": "fig8",
                                    "treshold": [900]}))
        with pytest.raises(ValueError, match="unknown sweep spec keys"):
            load_sweep_file(path)

    def test_experiment_required(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"backends": ["nangate15-booth"]}))
        with pytest.raises(ValueError, match="'experiment' key"):
            load_sweep_file(path)


# Small, fast axis strategies over real registry entries.
_BACKENDS = st.lists(st.sampled_from(sorted(list_backends())),
                     min_size=1, max_size=3, unique=True)
_NETWORKS = st.lists(st.sampled_from(NETWORK_SPECS),
                     min_size=1, max_size=3, unique=True)
_THRESHOLDS = st.lists(
    st.one_of(st.none(),
              st.floats(min_value=500.0, max_value=1200.0,
                        allow_nan=False)),
    min_size=1, max_size=4, unique=True)
_SEEDS = st.lists(st.integers(min_value=0, max_value=99),
                  min_size=1, max_size=3, unique=True)


@st.composite
def _sweep_specs(draw):
    return make_sweep_spec(
        "fig8",
        backends=draw(_BACKENDS),
        networks=draw(_NETWORKS),
        thresholds=draw(_THRESHOLDS),
        seeds=draw(_SEEDS),
        scale=draw(st.sampled_from(("smoke", "ci"))),
    )


class TestGridExpansionProperties:
    @settings(max_examples=30, deadline=None)
    @given(spec=_sweep_specs())
    def test_cartesian_size(self, spec):
        points = expand(spec)
        assert len(points) == (len(spec.backends) * len(spec.networks)
                               * len(spec.thresholds) * len(spec.seeds))

    @settings(max_examples=30, deadline=None)
    @given(spec=_sweep_specs())
    def test_no_duplicate_grid_points(self, spec):
        points = expand(spec)
        keys = [point.key() for point in points]
        assert len(set(keys)) == len(keys)

    @settings(max_examples=30, deadline=None)
    @given(spec=_sweep_specs())
    def test_stable_ordering(self, spec):
        points = expand(spec)
        assert points == expand(spec)
        # Documented nesting: backends, networks, seeds, thresholds.
        expected = [
            (backend_id, network.label, seed, threshold)
            for backend_id in spec.backends
            for network in spec.networks
            for seed in spec.seeds
            for threshold in spec.thresholds
        ]
        observed = [(p.backend.backend_id, p.spec.label, p.seed,
                     p.threshold) for p in points]
        assert observed == expected

    @settings(max_examples=10, deadline=None)
    @given(spec=_sweep_specs())
    def test_cache_key_unique_across_grid_points(self, spec):
        points = expand(spec)
        keys = {point_cache_key(point, point_config(point))
                for point in points}
        assert len(keys) == len(points)


def _graph_with(name: str, **changes) -> StageGraph:
    """The pipeline graph with one stage's declaration changed."""
    graph = StageGraph()
    for stage in sweep_mod.POWER_PRUNING_GRAPH:
        graph.add(replace(stage, **changes) if stage.name == name
                  else stage)
    return graph


class TestCacheKeys:
    def test_every_config_field_is_keyed_or_declared_non_key(self):
        """No stale ``_NON_KEY_FIELDS`` entry and no unkeyed field.

        ``accel`` reaches the keys through the ``accel_geometry`` and
        ``accel_point`` payloads the ``accel_*`` stages hash.
        """
        fields = {f.name for f in dataclass_fields(PipelineConfig)}
        non_key = set(sweep_mod._NON_KEY_FIELDS)
        assert non_key <= fields
        hashed = {name for stage in sweep_mod.POWER_PRUNING_GRAPH
                  for name in stage.fields}
        if hashed & {"accel_geometry", "accel_point"}:
            hashed.add("accel")
        assert fields - non_key - hashed == set()

    def test_char_jobs_and_verbose_never_in_point_cache_key(self):
        point = expand(make_sweep_spec("fig8", scale="smoke"))[0]
        baseline = point_cache_key(point, point_config(point))
        sharded = point_cache_key(
            point, point_config(point, char_jobs=8, verbose=True))
        assert baseline == sharded

    @pytest.mark.parametrize("name, changes", [
        ("delay_selection", {"version": "2"}),
        ("accel_schedule", {"deps": ("dataset", "pruned")}),
        ("report", {"fields": ("network",)}),
    ], ids=["version", "deps", "fields"])
    def test_stage_declaration_change_invalidates_finished_points(
            self, monkeypatch, name, changes):
        """A warm cache never serves rows older stage code computed."""
        points = [expand(make_sweep_spec(experiment, scale="smoke"))[0]
                  for experiment in ("fig8", "accel")]
        before = [point_cache_key(p, point_config(p)) for p in points]
        monkeypatch.setattr(sweep_mod, "POWER_PRUNING_GRAPH",
                            _graph_with(name, **changes))
        after = [point_cache_key(p, point_config(p)) for p in points]
        assert all(a != b for a, b in zip(before, after))

    def test_candidate_timing_version_invalidates_finished_points(
            self, monkeypatch):
        point = expand(make_sweep_spec("fig9", scale="smoke"))[0]
        before = point_cache_key(point, point_config(point))
        monkeypatch.setattr(sweep_mod, "TIMING_CANDIDATES_VERSION", "3")
        assert point_cache_key(point, point_config(point)) != before

    def test_graph_fingerprint_is_computed_once(self):
        graph = sweep_mod.POWER_PRUNING_GRAPH
        assert graph.fingerprint() is graph.fingerprint()

    def test_threshold_only_neighbours_share_the_whole_prefix(self):
        spec = make_sweep_spec("fig8", thresholds=(None, 900.0),
                               scale="smoke")
        first, second = expand(spec)
        keys_first = shared_stage_keys(point_config(first),
                                       SHARED_PREFIX_STAGES)
        keys_second = shared_stage_keys(point_config(second),
                                        SHARED_PREFIX_STAGES)
        assert keys_first == keys_second
        assert shared_prefix_count([first, second]) == 1

    def test_backends_never_share_prefixes(self):
        spec = make_sweep_spec(
            "fig8", backends=("nangate15-booth", "nangate15-array"),
            thresholds=(900.0,), scale="smoke")
        booth, array = expand(spec)
        keys_booth = shared_stage_keys(point_config(booth),
                                       SHARED_PREFIX_STAGES)
        keys_array = shared_stage_keys(point_config(array),
                                       SHARED_PREFIX_STAGES)
        for name in SHARED_PREFIX_STAGES:
            assert keys_booth[name] != keys_array[name], name
        assert shared_prefix_count([booth, array]) == 2

    def test_fig9_weight_threshold_rule(self):
        assert fig9_weight_threshold(NETWORK_SPECS[0], "smoke") == 900.0
        assert fig9_weight_threshold(NETWORK_SPECS[0], "ci") == 825.0
        assert fig9_weight_threshold(NETWORK_SPECS[3], "paper") == 900.0


class TestScheduling:
    def test_round_robin_across_prefix_groups(self):
        spec = make_sweep_spec(
            "fig8", backends=("nangate15-booth", "nangate15-array"),
            thresholds=(None, 900.0, 850.0), scale="smoke")
        points = expand(spec)
        order = sweep_mod._scheduled_order(points)
        assert sorted(order) == list(range(len(points)))
        scheduled = [points[i] for i in order]
        # The first len(groups) scheduled points warm distinct prefixes.
        assert {p.backend.backend_id for p in scheduled[:2]} == {
            "nangate15-booth", "nangate15-array"}
        # Within a group the original (threshold) order is preserved.
        booth = [p.threshold for p in scheduled
                 if p.backend.backend_id == "nangate15-booth"]
        assert booth == [None, 900.0, 850.0]


def _echo_runner(point, context):
    """Synthetic per-point runner: no pipeline work, tiny payload."""
    if point.threshold == 666.0:
        return {"payload": None, "metrics": {},
                "skipped": "synthetic skip"}
    value = (point.threshold or 0.0) + point.seed
    return {"payload": {"value": value},
            "metrics": {"accuracy": value, "n_weights": 1,
                        "power_opt_mw": value},
            "skipped": None}


@pytest.fixture()
def echo_experiment(monkeypatch):
    monkeypatch.setitem(sweep_mod._POINT_RUNNERS, "fig8", _echo_runner)
    return "fig8"


class TestEngine:
    def test_rows_in_expansion_order_and_point_caching(
            self, echo_experiment):
        spec = make_sweep_spec(
            echo_experiment,
            backends=("nangate15-booth", "nangate15-array"),
            thresholds=(700.0, 800.0), seeds=(0, 1), scale="smoke")
        store = ArtifactStore()
        first = run_sweep(spec, jobs=1, store=store)
        assert [(r.backend_id, r.seed, r.threshold)
                for r in first.rows] == [
            (p.backend.backend_id, p.seed, p.threshold)
            for p in expand(spec)]
        assert first.cache_misses == len(first.rows)
        assert first.shared_prefixes == 4  # backend x seed groups

        second = run_sweep(spec, jobs=1, store=store)
        assert second.cache_misses == 0
        assert second.cache_hits == len(second.rows)
        assert [r.metrics for r in second.rows] == [r.metrics
                                                    for r in first.rows]

    def test_skipped_points_are_reported_not_dropped(
            self, echo_experiment):
        spec = make_sweep_spec(echo_experiment,
                               thresholds=(700.0, 666.0), scale="smoke")
        result = run_sweep(spec, jobs=1, store=ArtifactStore())
        assert result.rows[1].skipped == "synthetic skip"
        assert result.rows[1].payload is None
        rendered = sweep_mod.format_sweep(result)
        assert "synthetic skip" in rendered
        tidy = result.tidy()
        assert tidy[1]["skipped"] == "synthetic skip"

    def test_in_process_store_rejected_with_workers(
            self, echo_experiment):
        spec = make_sweep_spec(echo_experiment, thresholds=(700.0,
                                                            800.0),
                               scale="smoke")
        with pytest.raises(ValueError, match="cache_dir"):
            run_sweep(spec, jobs=2, store=ArtifactStore())

    def test_unknown_experiment_rejected_at_run_time(self):
        bogus = SweepSpec(experiment="fig12")
        with pytest.raises(ValueError, match="unknown sweep experiment"):
            run_sweep(bogus)

    def test_csv_export(self, echo_experiment, tmp_path):
        spec = make_sweep_spec(echo_experiment,
                               thresholds=(700.0, 666.0), scale="smoke")
        result = run_sweep(spec, jobs=1, store=ArtifactStore())
        path = tmp_path / "tidy.csv"
        result.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 points
        assert lines[0].startswith(
            "experiment,backend,network,threshold,accel,seed,scale,"
            "skipped")

    def test_rows_flag_cache_service(self, echo_experiment):
        spec = make_sweep_spec(echo_experiment, thresholds=(700.0,),
                               scale="smoke")
        store = ArtifactStore()
        first = run_sweep(spec, jobs=1, store=store)
        assert [row.cached for row in first.rows] == [False]
        second = run_sweep(spec, jobs=1, store=store)
        assert [row.cached for row in second.rows] == [True]
        assert second.tidy()[0]["cached"] == 1

    def test_progress_report_streams_and_summarizes(
            self, echo_experiment, capsys):
        spec = make_sweep_spec(echo_experiment,
                               thresholds=(700.0, 666.0), scale="smoke")
        store = ArtifactStore()
        result = run_sweep(spec, jobs=1, store=store, progress=True)
        err = capsys.readouterr().err
        assert "-> 2 grid point(s), 0 already in the artifact store" \
            in err
        assert "[1/2]" in err and "[2/2]" in err
        assert "1 remaining" in err and "0 remaining" in err
        rendered = sweep_mod.format_sweep(result)
        assert ("progress: 2 point(s) done - 2 computed, "
                "0 served from cache, 0 remaining (1 skipped)"
                ) in rendered

        rerun = run_sweep(spec, jobs=1, store=store, progress=True)
        err = capsys.readouterr().err
        assert "2 already in the artifact store" in err
        assert "- cached (1 from cache, 1 remaining)" in err
        assert "- cached, skipped (2 from cache, 0 remaining)" in err
        assert ("progress: 2 point(s) done - 0 computed, "
                "2 served from cache, 0 remaining"
                ) in sweep_mod.format_sweep(rerun)

    def test_progress_report_across_workers(self, echo_experiment,
                                            tmp_path, capsys):
        spec = make_sweep_spec(
            echo_experiment, thresholds=(700.0, 800.0), scale="smoke")
        run_sweep(spec, jobs=2, cache_dir=tmp_path / "cache",
                  progress=True)
        err = capsys.readouterr().err
        assert "2 workers" in err
        assert "[1/2]" in err and "[2/2]" in err
        run_sweep(spec, jobs=2, cache_dir=tmp_path / "cache",
                  progress=True)
        err = capsys.readouterr().err
        assert "2 already in the artifact store" in err
        assert "(2 from cache, 0 remaining)" in err

    def test_failing_point_is_named(self, echo_experiment, monkeypatch):
        def explode(point, context):
            raise RuntimeError("synthetic point failure")

        monkeypatch.setitem(sweep_mod._POINT_RUNNERS, "fig8", explode)
        spec = make_sweep_spec("fig8", thresholds=(700.0,),
                               scale="smoke")
        with pytest.raises(ParallelTaskError) as excinfo:
            run_sweep(spec, jobs=1, store=ArtifactStore())
        message = str(excinfo.value)
        assert "fig8 point" in message
        assert "backend=nangate15-booth" in message
        assert "threshold=700" in message
        assert isinstance(excinfo.value.__cause__, RuntimeError)


@dataclass(frozen=True)
class _NamedTask:
    name: str

    def describe(self) -> str:
        return f"named task {self.name}"


def _boom(task: _NamedTask) -> str:
    if task.name == "bad":
        raise ValueError("kaboom")
    return task.name


def _ok(task: _NamedTask) -> str:
    return task.name


class TestParallelTaskErrors:
    def test_inline_failure_names_the_task(self):
        with pytest.raises(ParallelTaskError) as excinfo:
            parallel_map(_boom, [_NamedTask("ok"), _NamedTask("bad")],
                         jobs=1)
        assert "named task bad" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_pool_failure_names_the_task_with_traceback(self):
        tasks = [_NamedTask("ok"), _NamedTask("bad"), _NamedTask("ok2")]
        with pytest.raises(ParallelTaskError) as excinfo:
            parallel_map(_boom, tasks, jobs=2)
        message = str(excinfo.value)
        assert "named task bad" in message
        assert "worker traceback" in message
        assert "kaboom" in message
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_success_preserves_order(self):
        tasks = [_NamedTask(f"t{i}") for i in range(5)]
        assert parallel_map(lambda t: t.name, tasks, jobs=1) == [
            f"t{i}" for i in range(5)]

    def test_describe_falls_back_to_repr(self):
        from repro.experiments.parallel import describe_task

        assert "_NamedTask" not in describe_task(_NamedTask("x"))
        assert describe_task(("a", 1)) == "('a', 1)"

    def test_on_result_streams_every_completion_inline(self):
        seen = []
        tasks = [_NamedTask(f"t{i}") for i in range(4)]
        parallel_map(_ok, tasks, jobs=1,
                     on_result=lambda i, r: seen.append((i, r)))
        assert seen == [(i, f"t{i}") for i in range(4)]

    def test_on_result_streams_every_completion_in_pool(self):
        seen = []
        tasks = [_NamedTask(f"t{i}") for i in range(4)]
        results = parallel_map(_ok, tasks, jobs=2,
                               on_result=lambda i, r:
                               seen.append((i, r)))
        # Completion order is arbitrary; coverage and payloads are not.
        assert sorted(seen) == [(i, f"t{i}") for i in range(4)]
        assert results == [f"t{i}" for i in range(4)]

    def test_on_result_skips_failures(self):
        seen = []
        tasks = [_NamedTask("ok"), _NamedTask("bad")]
        with pytest.raises(ParallelTaskError):
            parallel_map(_boom, tasks, jobs=2,
                         on_result=lambda i, r: seen.append(i))
        assert seen == [0]


class TestSeriesLabels:
    """Overlay series must never collide across networks (regression:
    the label used to omit the network entirely)."""

    def _row(self, backend, network, threshold, seed=0, value=0.5):
        return sweep_mod.SweepRow(
            experiment="fig8", backend_id=backend, network=network,
            threshold=threshold, seed=seed, scale="smoke",
            payload=None, metrics={"accuracy": value}, skipped=None)

    def test_multi_network_rows_get_distinct_series(self):
        rows = [
            self._row("nangate15-booth", "LeNet-5-CIFAR-10", 900.0,
                      value=0.25),
            self._row("nangate15-booth", "ResNet-20-CIFAR-10", 900.0,
                      value=0.75),
        ]
        lines = sweep_mod._metric_matrix(rows, "accuracy", "chart:",
                                         ".1f", 100.0)
        series_lines = lines[2:]
        assert len(series_lines) == 2  # one series per network
        assert any("LeNet-5-CIFAR-10" in line for line in series_lines)
        assert any("ResNet-20-CIFAR-10" in line
                   for line in series_lines)
        # Both values survive: nothing was collapsed into one series.
        assert any("25.0" in line for line in series_lines)
        assert any("75.0" in line for line in series_lines)

    def test_single_network_label_unchanged(self):
        rows = [self._row("nangate15-booth", "LeNet-5-CIFAR-10", 900.0),
                self._row("nangate15-array", "LeNet-5-CIFAR-10", 900.0)]
        lines = sweep_mod._metric_matrix(rows, "accuracy", "chart:",
                                         ".1f", 100.0)
        assert any(line.startswith("nangate15-booth ")
                   for line in lines)
        assert not any("LeNet" in line for line in lines[1:])

    def test_seed_and_network_compose_in_label(self):
        row = self._row("b", "netA", 900.0, seed=3)
        assert sweep_mod._series_label(row, True, True) == "b netA s3"
        assert sweep_mod._series_label(row, False, True) == "b netA"
        assert sweep_mod._series_label(row, True, False) == "b s3"
        assert sweep_mod._series_label(row, False, False) == "b"


class TestAggregatedResults:
    def test_aggregate_and_tidy_aggregated_columns(
            self, echo_experiment):
        spec = make_sweep_spec(echo_experiment,
                               thresholds=(700.0, 800.0),
                               seeds=(0, 1), scale="smoke")
        result = run_sweep(spec, jobs=1, store=ArtifactStore())
        aggregates = result.aggregate()
        assert [(a.threshold, a.n_seeds) for a in aggregates] == [
            (700.0, 2), (800.0, 2)]
        # Echo runner: accuracy = threshold + seed, so mean/std are
        # exactly computable.
        assert aggregates[0].metrics_mean["accuracy"] == 700.5
        assert aggregates[0].metrics_std["accuracy"] == 0.5
        assert aggregates[0].seeds == (0, 1)
        tidy = result.tidy_aggregated()
        assert tidy[0]["n_seeds"] == 2
        assert tidy[0]["seeds"] == "0;1"
        assert tidy[0]["accuracy_mean"] == 700.5
        assert tidy[0]["accuracy_std"] == 0.5
        assert tidy[0]["accuracy_min"] == 700.0
        assert tidy[0]["accuracy_max"] == 701.0

    def test_single_seed_aggregate_is_bit_identical(
            self, echo_experiment):
        spec = make_sweep_spec(echo_experiment, thresholds=(700.0,),
                               scale="smoke")
        result = run_sweep(spec, jobs=1, store=ArtifactStore())
        (agg,) = result.aggregate()
        assert agg.metrics_mean == dict(result.rows[0].metrics)
        assert agg.metrics_std == {name: 0.0
                                   for name in result.rows[0].metrics}

    def test_multi_seed_format_has_mean_std_table_and_error_bands(
            self, echo_experiment):
        spec = make_sweep_spec(echo_experiment,
                               thresholds=(700.0, 800.0),
                               seeds=(0, 1), scale="smoke")
        result = run_sweep(spec, jobs=1, store=ArtifactStore())
        rendered = sweep_mod.format_sweep(result)
        assert "aggregated over 2 seeds (mean±std):" in rendered
        assert "700.5±0.5" in rendered  # accuracy cell, mean±std
        assert "(mean±std over seeds) by backend x threshold:" \
            in rendered

    def test_single_seed_format_unchanged(self, echo_experiment):
        spec = make_sweep_spec(echo_experiment,
                               thresholds=(700.0, 800.0),
                               scale="smoke")
        result = run_sweep(spec, jobs=1, store=ArtifactStore())
        rendered = sweep_mod.format_sweep(result)
        assert "±" not in rendered
        assert "aggregated over" not in rendered

    def test_aggregated_csv_export(self, echo_experiment, tmp_path):
        spec = make_sweep_spec(echo_experiment,
                               thresholds=(700.0, 666.0),
                               seeds=(0, 1), scale="smoke")
        result = run_sweep(spec, jobs=1, store=ArtifactStore())
        path = tmp_path / "agg.csv"
        result.write_csv(path, aggregated=True)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 threshold groups
        header = lines[0].split(",")
        for column in ("n_seeds", "accuracy_mean", "accuracy_std",
                       "accuracy_min", "accuracy_max"):
            assert column in header
        n_seeds_at = header.index("n_seeds")
        assert lines[1].split(",")[n_seeds_at] == "2"
        # The fully skipped threshold group keeps its reason.
        assert "synthetic skip" in lines[2]


class TestFigureAdaptersMultiSeed:
    """fig8/fig9 panels are one point per threshold: a multi-seed sweep
    result must be filtered to a single seed, not interleaved."""

    def _fig8_result(self):
        spec = make_sweep_spec("fig8", thresholds=(None, 900.0),
                               seeds=(0, 1), scale="smoke")
        rows = [sweep_mod.SweepRow(
            experiment="fig8", backend_id=p.backend.backend_id,
            network=p.spec.label, threshold=p.threshold, seed=p.seed,
            scale=p.scale,
            payload={"threshold_uw": p.threshold, "n_weights": 10,
                     "accuracy": 0.5 + p.seed, "power_opt": None},
            metrics={"accuracy": 0.5 + p.seed}, skipped=None)
            for p in expand(spec)]
        return sweep_mod.SweepResult(sweep=spec, rows=rows)

    def test_fig8_panels_keep_one_point_per_threshold(self):
        from repro.experiments import fig8

        result = fig8.result_from_sweep(self._fig8_result())
        (series,) = result.points.values()
        assert [p.threshold_uw for p in series] == [None, 900.0]
        assert all(p.accuracy == 0.5 for p in series)  # first seed

    def test_fig8_panels_honor_explicit_seed(self):
        from repro.experiments import fig8

        result = fig8.result_from_sweep(self._fig8_result(), seed=1)
        (series,) = result.points.values()
        assert [p.threshold_uw for p in series] == [None, 900.0]
        assert all(p.accuracy == 1.5 for p in series)


class _SpecCapture:
    """Stands in for run_sweep in CLI tests: records the spec, returns
    an empty-but-renderable result."""

    def __init__(self):
        self.sweep = None

    def __call__(self, sweep, **kwargs):
        self.sweep = sweep
        points = expand(sweep)
        rows = [sweep_mod.SweepRow(
            experiment=p.experiment, backend_id=p.backend.backend_id,
            network=p.spec.label, threshold=p.threshold, seed=p.seed,
            scale=p.scale, payload=None,
            metrics={"accuracy": 0.5, "n_weights": 1,
                     "power_opt_mw": 1.0},
            skipped=None) for p in points]
        return sweep_mod.SweepResult(sweep=sweep, rows=rows)


@pytest.fixture()
def capture_cli_sweep(monkeypatch):
    capture = _SpecCapture()
    monkeypatch.setattr(sweep_mod, "run_sweep", capture)
    return capture


class TestCliSpecOverrides:
    """--spec merging must use `is not None`, never truthiness, so a
    legitimately falsy flag value (e.g. `--threshold none`) overrides
    the spec file (regression tests, one per overridable axis)."""

    @pytest.fixture()
    def spec_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "experiment": "fig8",
            "backends": ["nangate15-array"],
            "networks": ["resnet20"],
            "thresholds": [900.0, 850.0],
            "seeds": [7],
            "scale": "ci",
        }))
        return str(path)

    def test_spec_alone_is_used_verbatim(self, capture_cli_sweep,
                                         spec_file, capsys):
        assert sweep_mod.cli_main(["--spec", spec_file]) == 0
        sweep = capture_cli_sweep.sweep
        assert sweep.experiment == "fig8"
        assert sweep.backends == ("nangate15-array",)
        assert [n.network for n in sweep.networks] == ["resnet20"]
        assert sweep.thresholds == (900.0, 850.0)
        assert sweep.seeds == (7,)
        assert sweep.scale == "ci"

    def test_threshold_none_overrides_spec(self, capture_cli_sweep,
                                           spec_file, capsys):
        """The falsy regression: one unrestricted point must win."""
        sweep_mod.cli_main(["--spec", spec_file,
                            "--threshold", "none"])
        assert capture_cli_sweep.sweep.thresholds == (None,)

    def test_experiment_flag_overrides_spec(self, capture_cli_sweep,
                                            spec_file, capsys):
        sweep_mod.cli_main(["--spec", spec_file,
                            "--experiment", "fig9",
                            "--threshold", "160"])
        assert capture_cli_sweep.sweep.experiment == "fig9"

    def test_backend_flag_overrides_spec(self, capture_cli_sweep,
                                         spec_file, capsys):
        sweep_mod.cli_main(["--spec", spec_file,
                            "--backend", "nangate15-booth"])
        assert capture_cli_sweep.sweep.backends == (
            "nangate15-booth",)

    def test_network_flag_overrides_spec(self, capture_cli_sweep,
                                         spec_file, capsys):
        sweep_mod.cli_main(["--spec", spec_file,
                            "--network", "lenet5"])
        assert [n.network for n in capture_cli_sweep.sweep.networks] \
            == ["lenet5"]

    def test_seed_zero_overrides_spec(self, capture_cli_sweep,
                                      spec_file, capsys):
        """Seed 0 is falsy-adjacent ([0] is truthy, 0 is not) — must
        override the spec file's seed axis."""
        sweep_mod.cli_main(["--spec", spec_file, "--seed", "0"])
        assert capture_cli_sweep.sweep.seeds == (0,)

    def test_scale_flag_overrides_spec(self, capture_cli_sweep,
                                       spec_file, capsys):
        sweep_mod.cli_main(["--spec", spec_file, "--scale", "smoke"])
        assert capture_cli_sweep.sweep.scale == "smoke"

    def test_unset_flags_keep_spec_values(self, capture_cli_sweep,
                                          spec_file, capsys):
        sweep_mod.cli_main(["--spec", spec_file, "--seed", "1",
                            "--seed", "2"])
        sweep = capture_cli_sweep.sweep
        assert sweep.seeds == (1, 2)
        assert sweep.thresholds == (900.0, 850.0)  # untouched axis
        assert sweep.backends == ("nangate15-array",)

    def test_aggregate_csv_flag(self, capture_cli_sweep, tmp_path,
                                capsys):
        out = tmp_path / "agg.csv"
        sweep_mod.cli_main(["--experiment", "fig8",
                            "--threshold", "900",
                            "--seed", "0", "--seed", "1",
                            "--scale", "smoke",
                            "--aggregate-csv", str(out)])
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2  # header + one (backend, thr) group
        header = lines[0].split(",")
        assert "n_seeds" in header
        assert lines[1].split(",")[header.index("n_seeds")] == "2"
        assert f"aggregated table written to {out}" \
            in capsys.readouterr().out


@pytest.mark.slow
class TestSweepCacheAcceptance:
    """ISSUE acceptance: repeated sweep runs hit the cache everywhere."""

    def test_repeated_run_hits_cache_for_all_stages(
            self, smoke_cache_dir):
        spec = make_sweep_spec("fig8", thresholds=(None, 900.0),
                               scale="smoke")
        first = run_sweep(spec, jobs=1, cache_dir=smoke_cache_dir)
        assert first.shared_prefixes == 1
        second = run_sweep(spec, jobs=1, cache_dir=smoke_cache_dir)
        # Every stage and every finished point comes from the cache.
        assert second.cache_misses == 0
        assert second.cache_hits >= len(second.rows)
        for row_a, row_b in zip(first.rows, second.rows):
            assert row_a.metrics == row_b.metrics
