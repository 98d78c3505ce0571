"""Accelerator-level evaluation as a first-class sweep axis.

Covers the :class:`~repro.systolic.spec.AcceleratorSpec` design-point
record, the vectorized array power model (bincount vs per-tile loop vs
the original reference oracle), the accel branch of the stage graph
against the per-geometry trace it replaced, the cache-key isolation
contract — array geometry invalidates only the geometry-keyed
``accel_*`` stages, never the training/characterization prefix or the
shared layer trace — and the ``accel`` sweep experiment end to end at
smoke scale.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import accel_eval as stage_oracle
from oracles import array_power as oracle
from repro.core import stages
from repro.core.pruning import magnitude_prune
from repro.core.stages import PipelineOps, shared_stage_keys
from repro.core.voltage_scaling import scale_voltage
from repro.experiments.config import NETWORK_SPECS, pipeline_config
from repro.experiments.sweep import (
    expand,
    make_sweep_spec,
    point_cache_key,
    point_config,
    run_sweep,
    shared_prefix_count,
    sweep_spec_from_mapping,
)
from repro.hw import get_backend
from repro.power.characterization import WeightPowerTable
from repro.systolic import (
    OPTIMIZED_HW,
    STANDARD_HW,
    AcceleratorSpec,
    ArrayPowerModel,
    MacPowerParams,
    SystolicConfig,
    normalize_variant,
    parse_array_shape,
    schedule_matmul,
    schedule_value_counts,
)

#: Every stage of the training/characterization prefix plus the
#: selection tail — nothing here may depend on the accel spec.
NON_ACCEL_STAGES = (
    "dataset", "baseline", "pruned", "operand_stats", "power_table",
    "power_selection", "timing_table", "delay_selection",
    "voltage_scaling", "power_measurement", "report",
)
ACCEL_STAGES = ("accel_schedule", "accel_eval")
#: Every stage no design-point field reaches: the prefix above plus
#: the layer trace all geometries and variants share.
SPEC_FREE_STAGES = NON_ACCEL_STAGES + ("accel_layers",)


# ----------------------------------------------------------------------
# AcceleratorSpec: parsing, resolution, keying
# ----------------------------------------------------------------------
class TestAcceleratorSpec:
    def test_shape_spellings(self):
        assert parse_array_shape("32x32") == (32, 32)
        assert parse_array_shape("32") == (32, 32)
        assert parse_array_shape(16) == (16, 16)
        assert parse_array_shape((8, 24)) == (8, 24)
        assert parse_array_shape([8, 24]) == (8, 24)
        for default in (None, "hw", "default", "none", ""):
            assert parse_array_shape(default) is None

    def test_bad_shapes_rejected(self):
        for bad in ("axb", "1x2x3", (1, 2, 3)):
            with pytest.raises(ValueError):
                parse_array_shape(bad)

    def test_variant_normalization(self):
        assert normalize_variant("Standard HW") == "standard"
        assert normalize_variant("optimized") == "optimized"
        assert normalize_variant(OPTIMIZED_HW) == "optimized"
        assert normalize_variant(STANDARD_HW) == "standard"
        with pytest.raises(ValueError):
            normalize_variant("turbo")

    def test_validation(self):
        with pytest.raises(ValueError):
            AcceleratorSpec(rows=0)
        with pytest.raises(ValueError):
            AcceleratorSpec(variant="turbo")
        with pytest.raises(ValueError):
            AcceleratorSpec(stream_batch=0)

    def test_resolution_fills_geometry_from_backend(self):
        base = SystolicConfig(rows=64, cols=48)
        spec = AcceleratorSpec(variant="optimized").resolved(base)
        assert (spec.rows, spec.cols) == (64, 48)
        # Explicitly asking for the backend geometry aliases the
        # default — same resolved spec, same key payload.
        explicit = AcceleratorSpec(rows=64, cols=48,
                                   variant="optimized").resolved(base)
        assert spec == explicit
        assert spec.key_payload() == explicit.key_payload()

    def test_resolve_config_keeps_datapath_and_clock(self):
        base = SystolicConfig(rows=64, cols=64)
        config = AcceleratorSpec(rows=16, cols=8).resolve_config(base)
        assert (config.rows, config.cols) == (16, 8)
        assert config.act_bits == base.act_bits
        assert config.weight_bits == base.weight_bits
        assert config.psum_bits == base.psum_bits
        assert config.clock_period_ps == base.clock_period_ps

    def test_schedule_key_excludes_variant(self):
        std = AcceleratorSpec(rows=16, cols=16, variant="standard")
        opt = AcceleratorSpec(rows=16, cols=16, variant="optimized")
        assert std.geometry_payload() == opt.geometry_payload()
        assert std.key_payload() != opt.key_payload()

    def test_describe(self):
        assert AcceleratorSpec(rows=64, cols=64,
                               variant="optimized").describe() \
            == "64x64/optimized"
        assert AcceleratorSpec(variant="standard").describe(
            base=SystolicConfig(rows=32, cols=32)) == "32x32/standard"
        assert AcceleratorSpec(rows=8, cols=8, stream_batch=4
                               ).describe() == "8x8/standard/b4"


# ----------------------------------------------------------------------
# array power model: vectorization contract + gating properties
# ----------------------------------------------------------------------
def _table() -> WeightPowerTable:
    weights = np.arange(-127, 128)
    dynamic = 250.0 + 3.0 * np.abs(weights)
    return WeightPowerTable(weights=weights, power_uw=dynamic + 10.0,
                            dynamic_uw=dynamic, leakage_uw=10.0,
                            clock_period_ps=450.0)


def _model(config: SystolicConfig) -> ArrayPowerModel:
    return ArrayPowerModel(config, MacPowerParams(table=_table()))


_DIMS = st.tuples(st.integers(1, 90), st.integers(1, 70),
                  st.integers(1, 48))

#: Array geometries: squares, the accel axis's non-square shapes, and
#: any rows x cols up to 64 (1-wide arrays included).
_GEOMETRY = st.one_of(
    st.sampled_from(((8, 8), (16, 16), (32, 32), (20, 48), (7, 130))),
    st.tuples(st.integers(1, 64), st.integers(1, 64)),
).map(lambda shape: SystolicConfig(rows=shape[0], cols=shape[1]))


class TestScheduleProperties:
    @settings(max_examples=40, deadline=None)
    @given(dims=_DIMS, config=_GEOMETRY)
    def test_tiles_partition_the_weight_grid_exactly_once(self, dims,
                                                          config):
        k, n, m = dims
        schedule = schedule_matmul(k, n, m, config)
        tiles = oracle.tiles_of(schedule)
        coverage = np.zeros((k, n), dtype=np.int64)
        for tile in tiles:
            coverage[tile.row_start:tile.row_stop,
                     tile.col_start:tile.col_stop] += 1
        assert np.array_equal(coverage, np.ones((k, n), dtype=np.int64))
        # The block vectors are the tiles' extents, row-major.
        rows, cols = schedule.row_blocks, schedule.col_blocks
        assert [(t.rows_used, t.cols_used) for t in tiles] == [
            (r, c) for r in rows for c in cols]

    @settings(max_examples=40, deadline=None)
    @given(dims=_DIMS, config=_GEOMETRY)
    def test_total_macs_conservation(self, dims, config):
        k, n, m = dims
        schedule = schedule_matmul(k, n, m, config)
        assert schedule.total_macs == k * n * m

    @settings(max_examples=40, deadline=None)
    @given(dims=_DIMS, config=_GEOMETRY)
    def test_aggregates_equal_the_per_tile_sums(self, dims, config):
        k, n, m = dims
        schedule = schedule_matmul(k, n, m, config)
        tiles = oracle.tiles_of(schedule)
        cycles = sum(tile.cycles() for tile in tiles)
        assert len(schedule) == len(tiles)
        assert schedule.total_cycles == cycles
        assert schedule.utilization == k * n * m / (cycles * config.n_pes)

    def test_schedule_pickles_as_its_dimensions(self):
        """A stored schedule is its config and (k, n, m): no tile
        objects, and equal grids are equal values."""
        config = SystolicConfig(rows=20, cols=48)
        schedule = schedule_matmul(150, 70, 9, config)
        assert vars(schedule) == {"config": config, "k": 150, "n": 70,
                                  "m": 9}
        assert pickle.loads(pickle.dumps(schedule)) == schedule
        assert schedule == schedule_matmul(150, 70, 9, config)


class TestVectorizedLayerPower:
    @settings(max_examples=25, deadline=None)
    @given(dims=_DIMS, config=_GEOMETRY,
           seed=st.integers(0, 2 ** 31 - 1), sparsity=st.floats(0.0, 0.95))
    def test_counts_bit_equal_and_power_bit_identical(self, dims, config,
                                                      seed, sparsity):
        k, n, m = dims
        schedule = schedule_matmul(k, n, m, config)
        rng = np.random.default_rng(seed)
        weights = rng.integers(-127, 128, (k, n))
        weights[rng.random(weights.shape) < sparsity] = 0
        fast = schedule_value_counts(schedule, weights)
        slow = oracle.schedule_value_counts_loop(schedule, weights)
        assert np.array_equal(fast.weight_counts, slow.weight_counts)
        assert fast.tile_pe_cycles == slow.tile_pe_cycles
        assert fast.idle_row_pe_cycles == slow.idle_row_pe_cycles
        assert fast.unused_col_pe_cycles == slow.unused_col_pe_cycles
        assert fast.total_cycles == slow.total_cycles
        assert pickle.dumps(fast) == pickle.dumps(slow)
        model = _model(config)
        for variant in (STANDARD_HW, OPTIMIZED_HW):
            assert model.layer_power(schedule, weights, variant) \
                == oracle.layer_power_loop(model, schedule, weights,
                                           variant)

    @settings(max_examples=25, deadline=None)
    @given(dims=_DIMS, config=_GEOMETRY,
           seed=st.integers(0, 2 ** 31 - 1))
    def test_agrees_with_reference_oracle(self, dims, config, seed):
        k, n, m = dims
        schedule = schedule_matmul(k, n, m, config)
        rng = np.random.default_rng(seed)
        weights = rng.integers(-127, 128, (k, n))
        model = _model(config)
        for variant in (STANDARD_HW, OPTIMIZED_HW):
            got = model.layer_power(schedule, weights, variant)
            want = oracle.layer_power_reference(model, schedule,
                                                weights, variant)
            assert np.isclose(got.dynamic_uw, want.dynamic_uw,
                              rtol=1e-9)
            assert np.isclose(got.leakage_uw, want.leakage_uw,
                              rtol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(dims=_DIMS, config=_GEOMETRY,
           seed=st.integers(0, 2 ** 31 - 1), sparsity=st.floats(0.0, 0.95))
    def test_optimized_never_exceeds_standard(self, dims, config, seed,
                                              sparsity):
        k, n, m = dims
        schedule = schedule_matmul(k, n, m, config)
        rng = np.random.default_rng(seed)
        weights = rng.integers(-127, 128, (k, n))
        weights[rng.random(weights.shape) < sparsity] = 0
        model = _model(config)
        std = model.layer_power(schedule, weights, STANDARD_HW)
        opt = model.layer_power(schedule, weights, OPTIMIZED_HW)
        assert opt.total_uw <= std.total_uw
        assert opt.dynamic_uw <= std.dynamic_uw
        assert opt.leakage_uw <= std.leakage_uw

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(1, 60), m=st.integers(1, 32),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_power_gated_leakage_strictly_decreases_with_unused_columns(
            self, k, m, seed):
        """Each extra unused column gates one column of PEs off the
        supply, so Optimized-HW leakage is strictly monotone in the
        number of used columns (one tile, fixed geometry)."""
        config = SystolicConfig(rows=64, cols=32)
        model = _model(config)
        rng = np.random.default_rng(seed)
        leakages = []
        for n in (32, 24, 16, 8):  # fewer used -> more gated columns
            schedule = schedule_matmul(k, n, m, config)
            weights = rng.integers(1, 128, (k, n))  # no zero gating
            leakages.append(model.layer_power(schedule, weights,
                                              OPTIMIZED_HW).leakage_uw)
        assert all(a > b for a, b in zip(leakages, leakages[1:]))
        # Standard HW never gates: leakage is geometry-constant.
        std = {model.layer_power(schedule_matmul(k, n, m, config),
                                 rng.integers(1, 128, (k, n)),
                                 STANDARD_HW).leakage_uw
               for n in (32, 16)}
        assert len(std) == 1


# ----------------------------------------------------------------------
# cache-key isolation: geometry never touches the prefix
# ----------------------------------------------------------------------
class TestAccelStageKeys:
    def _keys(self, accel):
        spec = NETWORK_SPECS[0]
        point = expand(make_sweep_spec(
            "accel", networks=(spec,), scale="smoke",
            array_shapes=(None,), hw_variants=("standard",)))[0]
        config = point_config(point)
        if accel is not None:
            from dataclasses import replace

            base = config.backend.build_systolic_config()
            config = replace(config, accel=accel.resolved(base))
        return shared_stage_keys(config,
                                 SPEC_FREE_STAGES + ACCEL_STAGES)

    def test_geometry_invalidates_only_accel_stages(self):
        default = self._keys(None)
        small = self._keys(AcceleratorSpec(rows=16, cols=16))
        for name in SPEC_FREE_STAGES:
            assert default[name] == small[name], name
        for name in ACCEL_STAGES:
            assert default[name] != small[name], name

    def test_variant_invalidates_only_accel_eval(self):
        std = self._keys(AcceleratorSpec(rows=16, cols=16,
                                         variant="standard"))
        opt = self._keys(AcceleratorSpec(rows=16, cols=16,
                                         variant="optimized"))
        assert std["accel_schedule"] == opt["accel_schedule"]
        assert std["accel_eval"] != opt["accel_eval"]
        for name in SPEC_FREE_STAGES:
            assert std[name] == opt[name], name

    def test_layer_trace_has_one_key_per_prefix(self):
        """Every geometry, variant and stream batch reads the same
        ``accel_layers`` artifact."""
        specs = [None] + [
            AcceleratorSpec(rows=rows, cols=cols, variant=variant,
                            stream_batch=batch)
            for rows, cols in ((16, 16), (20, 48), (7, 130))
            for variant in ("standard", "optimized")
            for batch in (1, 4)]
        keys = {self._keys(spec)["accel_layers"] for spec in specs}
        assert len(keys) == 1

    def test_default_geometry_aliases_explicit_backend_shape(self):
        base = get_backend("nangate15-booth").build_systolic_config()
        default = self._keys(None)
        explicit = self._keys(AcceleratorSpec(rows=base.rows,
                                              cols=base.cols))
        assert default == explicit

    def test_char_jobs_never_in_accel_point_cache_key(self):
        point = expand(make_sweep_spec("accel", scale="smoke"))[0]
        baseline = point_cache_key(point, point_config(point))
        sharded = point_cache_key(
            point, point_config(point, char_jobs=8, verbose=True))
        assert baseline == sharded

    def test_design_points_share_one_training_prefix(self):
        spec = make_sweep_spec(
            "accel", scale="smoke",
            array_shapes=("16x16", "32x32", None),
            hw_variants=("standard", "optimized"))
        points = expand(spec)
        assert len(points) == 6
        assert shared_prefix_count(points) == 1


# ----------------------------------------------------------------------
# the accel branch against the per-geometry trace it replaced
# ----------------------------------------------------------------------
#: Array shapes the branch is checked on; ``None`` is the backend's own.
ORACLE_SHAPES = ((16, 16), None, (20, 48), (7, 130))


def _synthetic_table() -> WeightPowerTable:
    """Every third weight characterized, so the lookup interpolates."""
    rng = np.random.default_rng(7)
    weights = np.arange(-127, 128, 3)
    dynamic = 180.0 + 2.0 * np.abs(weights) + 30.0 * rng.random(
        weights.size)
    return WeightPowerTable(weights=weights, power_uw=dynamic + 11.5,
                            dynamic_uw=dynamic, leakage_uw=11.5,
                            clock_period_ps=180.0)


@pytest.mark.parametrize("spec", NETWORK_SPECS,
                         ids=[s.network for s in NETWORK_SPECS])
def test_accel_branch_pickles_like_the_oracle(spec):
    """One shared trace, counts per geometry and power from the counts
    give the bytes of the old per-geometry composition, for every shape,
    variant and stream batch."""
    config = pipeline_config(spec, "smoke")
    ops = PipelineOps(config)
    model = ops.build_model()
    magnitude_prune(model, config.prune_fraction)
    pruned = {"state": model.state_dict()}
    table = _synthetic_table()
    scaling = scale_voltage(140.0, ops.systolic_config.clock_period_ps,
                            ops.voltage_model)
    layers = stages._stage_accel_layers(ops, {"pruned": pruned})
    for shape in ORACLE_SHAPES:
        rows, cols = shape if shape is not None else (None, None)
        for batch in (1, 4):
            point_ops = [
                PipelineOps(dataclasses.replace(config, accel=(
                    AcceleratorSpec(rows=rows, cols=cols, variant=variant,
                                    stream_batch=batch))))
                for variant in ("standard", "optimized")]
            schedule = stages._stage_accel_schedule(
                point_ops[0], {"accel_layers": layers})
            want_schedule = stage_oracle.accel_schedule(
                point_ops[0], {"pruned": pruned})
            for variant_ops in point_ops:
                got = stages._stage_accel_eval(variant_ops, {
                    "accel_schedule": schedule, "power_table": table,
                    "voltage_scaling": scaling})
                want = stage_oracle.accel_eval(variant_ops, {
                    "accel_schedule": want_schedule, "power_table": table,
                    "voltage_scaling": scaling})
                label = variant_ops.config.accel.describe()
                assert pickle.dumps(got) == pickle.dumps(want), label


# ----------------------------------------------------------------------
# sweep-spec plumbing
# ----------------------------------------------------------------------
class TestAccelSweepSpec:
    def test_defaults_are_the_papers_comparison(self):
        spec = make_sweep_spec("accel")
        assert spec.array_shapes == (None,)
        assert spec.hw_variants == ("standard", "optimized")
        assert spec.thresholds == (None,)
        assert spec.stream_batch == 1

    def test_thresholds_rejected(self):
        with pytest.raises(ValueError, match="no threshold axis"):
            make_sweep_spec("accel", thresholds=(900.0,))

    def test_accel_axes_rejected_for_threshold_experiments(self):
        with pytest.raises(ValueError, match="accel-only"):
            make_sweep_spec("fig8", array_shapes=("32x32",))
        with pytest.raises(ValueError, match="accel-only"):
            make_sweep_spec("fig9", hw_variants=("optimized",))
        with pytest.raises(ValueError, match="accel-only"):
            make_sweep_spec("table1", stream_batch=4)

    def test_normalized_defaults_round_trip(self):
        fig8 = make_sweep_spec("fig8")
        again = make_sweep_spec("fig8",
                                array_shapes=fig8.array_shapes,
                                hw_variants=fig8.hw_variants,
                                stream_batch=fig8.stream_batch)
        assert again == fig8

    def test_shape_axis_deduplicates_spellings(self):
        spec = make_sweep_spec(
            "accel", array_shapes=("32x32", (32, 32), "32", "16x16"))
        assert spec.array_shapes == ((32, 32), (16, 16))

    def test_mapping_round_trip(self):
        spec = sweep_spec_from_mapping({
            "experiment": "accel",
            "networks": ["lenet5"],
            "array_shapes": ["8x8", [16, 16], "hw"],
            "hw_variants": ["Optimized HW"],
            "stream_batch": 2,
            "scale": "smoke",
        })
        assert spec.array_shapes == ((8, 8), (16, 16), None)
        assert spec.hw_variants == ("optimized",)
        assert spec.stream_batch == 2

    def test_expansion_resolves_and_dedupes_default_geometry(self):
        # The backend's own 64x64 and an explicit "64x64" are the same
        # design point; expansion must collapse them.
        spec = make_sweep_spec("accel", array_shapes=(None, "64x64"),
                               hw_variants=("standard",))
        points = expand(spec)
        assert len(points) == 1
        assert points[0].accel.rows == 64
        assert points[0].accel.cols == 64


# ----------------------------------------------------------------------
# the accel sweep end to end (smoke scale, session-shared cache)
# ----------------------------------------------------------------------
class TestAccelSweepSmoke:
    @pytest.fixture(scope="class")
    def result(self, smoke_cache_dir):
        spec = make_sweep_spec(
            "accel", networks=(NETWORK_SPECS[0],), scale="smoke",
            array_shapes=("16x16", None))
        return spec, run_sweep(spec, jobs=1,
                               cache_dir=smoke_cache_dir)

    def test_one_row_per_design_point(self, result):
        spec, res = result
        assert len(res.rows) == 4
        labels = [row.accel for row in res.rows]
        assert labels == ["16x16/standard", "16x16/optimized",
                          "64x64/standard", "64x64/optimized"]
        for row in res.rows:
            assert row.skipped is None
            assert row.metrics["energy_uj"] > 0
            assert 0 < row.metrics["utilization_pct"] <= 100

    def test_optimized_beats_standard_per_shape(self, result):
        __, res = result
        by_label = {row.accel: row.metrics for row in res.rows}
        for shape in ("16x16", "64x64"):
            std = by_label[f"{shape}/standard"]
            opt = by_label[f"{shape}/optimized"]
            assert opt["power_mw"] <= std["power_mw"]
            assert opt["energy_uj"] <= std["energy_uj"]

    def test_variants_share_cycles_and_utilization(self, result):
        __, res = result
        by_label = {row.accel: row.metrics for row in res.rows}
        for shape in ("16x16", "64x64"):
            std = by_label[f"{shape}/standard"]
            opt = by_label[f"{shape}/optimized"]
            assert std["total_cycles"] == opt["total_cycles"]
            assert std["utilization_pct"] == opt["utilization_pct"]
            assert std["latency_us"] == opt["latency_us"]

    def test_warm_rerun_computes_nothing(self, result, smoke_cache_dir):
        spec, __ = result
        rerun = run_sweep(spec, jobs=1, cache_dir=smoke_cache_dir)
        assert all(row.cached for row in rerun.rows)
        assert rerun.cache_misses == 0

    def test_tidy_and_format_carry_the_design_point(self, result):
        from repro.experiments.sweep import format_sweep

        __, res = result
        record = res.tidy()[0]
        assert record["accel"] == "16x16/standard"
        text = format_sweep(res)
        assert "16x16/optimized" in text
        assert "energy/inference[uJ] by variant x array shape" in text

    def test_payload_reports_per_layer_rows(self, result):
        __, res = result
        payload = res.rows[0].payload
        assert payload["layers"], "expected per-layer breakdown"
        for layer in payload["layers"]:
            assert layer["macs"] <= (layer["cycles"]
                                     * payload["network"]["rows"]
                                     * payload["network"]["cols"])
        network = payload["network"]
        assert network["total_macs"] == sum(l["macs"]
                                            for l in payload["layers"])
