"""Tests for the hardware-backend registry, backend-keyed stage cache
and the sharded per-weight characterization."""

import dataclasses
import pickle

import numpy as np
import pytest

from oracles.netlists import read_output_bus
from repro.cells import VoltageModel, default_library
from repro.core.pipeline import POWER_PRUNING_GRAPH, PipelineConfig
from repro.core.stages import PipelineOps
from repro.hw import (
    DEFAULT_BACKEND_ID,
    HardwareBackend,
    get_backend,
    list_backends,
    register_backend,
)
from repro.netlist import build_mac_unit
from repro.power import (
    PartialSumBinner,
    TransitionDistribution,
    WeightPowerCharacterizer,
)
from repro.power.binning import BinnedTransitions
from repro.power.characterization import weight_seed_sequence
from repro.sim.logic import bus_inputs, evaluate
from repro.systolic import SystolicConfig


class TestRegistry:
    def test_at_least_four_builtins_default_first(self):
        ids = list_backends()
        assert len(ids) >= 4
        assert ids[0] == DEFAULT_BACKEND_ID
        for expected in ("nangate15-booth", "nangate15-array",
                         "nangate15-ripple", "scaled-45nm"):
            assert expected in ids

    def test_unknown_backend_rejected_with_choices(self):
        with pytest.raises(ValueError, match="nangate15-booth"):
            get_backend("tsmc3")

    def test_duplicate_registration_rejected(self):
        backend = get_backend(DEFAULT_BACKEND_ID)
        with pytest.raises(ValueError, match="already registered"):
            register_backend(backend)
        # explicit replacement is allowed and idempotent here
        assert register_backend(backend, replace=True) is backend

    def test_invalid_styles_rejected(self):
        with pytest.raises(ValueError, match="multiplier"):
            HardwareBackend("x", "bad", multiplier_style="wallace")
        with pytest.raises(ValueError, match="adder"):
            HardwareBackend("x", "bad", adder_style="carry_skip")

    def test_config_resolves_an_id_once_into_its_spec(self):
        assert PipelineConfig().backend is get_backend(DEFAULT_BACKEND_ID)
        config = PipelineConfig(backend="scaled-45nm")
        assert config.backend is get_backend("scaled-45nm")
        assert dataclasses.replace(config, seed=3).backend is \
            config.backend
        with pytest.raises(ValueError, match="unknown"):
            PipelineConfig(backend="no-such-backend")

    def test_unregistered_spec_keys_and_builds_without_the_registry(self):
        """A spec that travels in a task payload (as into a freshly
        spawned worker) is used as it is, never registered."""
        spec = HardwareBackend("test-spawned", "arrives via pickle",
                               multiplier_style="array")
        config = PipelineConfig(backend=spec)
        assert config.backend is spec
        assert PipelineOps(config).backend is spec
        assert POWER_PRUNING_GRAPH.keys(config) != \
            POWER_PRUNING_GRAPH.keys(PipelineConfig())
        assert "test-spawned" not in list_backends()

    def test_pickled_config_carries_its_spec(self):
        """What a worker unpickles keys and builds like the parent's
        config, with no registry lookup."""
        spec = HardwareBackend("test-pickled", "travels with the config",
                               energy_factor=1.3)
        config = PipelineConfig(backend=spec)
        copy = pickle.loads(pickle.dumps(config))
        assert copy.backend == spec
        assert POWER_PRUNING_GRAPH.keys(copy) == \
            POWER_PRUNING_GRAPH.keys(config)


class TestBackendsBuildWorkingHardware:
    @pytest.mark.parametrize("backend_id",
                             ["nangate15-booth", "nangate15-array",
                              "nangate15-ripple", "scaled-45nm"])
    def test_mac_arithmetic(self, backend_id):
        backend = get_backend(backend_id)
        mac = backend.build_mac()
        rng = np.random.default_rng(13)
        a = rng.integers(-128, 128, 400)
        w = rng.integers(-128, 128, 400)
        ps = rng.integers(-(1 << 21), 1 << 21, 400)
        feed = bus_inputs("act", a, mac.act_bits)
        feed.update(bus_inputs("w", w, mac.weight_bits))
        feed.update(bus_inputs("psum", ps, mac.psum_bits))
        values = evaluate(mac.full, feed)
        product = read_output_bus(mac.full, values, "product",
                                  mac.product_bits)
        result = read_output_bus(mac.full, values, "result",
                                 mac.psum_bits)
        np.testing.assert_array_equal(product, a * w)
        half = 1 << (mac.psum_bits - 1)
        expected = ((ps + a * w + half) % (1 << mac.psum_bits)) - half
        np.testing.assert_array_equal(result, expected)

    @pytest.mark.parametrize("backend_id",
                             ["nangate15-booth", "nangate15-array",
                              "nangate15-ripple", "scaled-45nm"])
    def test_library_and_models_build(self, backend_id):
        backend = get_backend(backend_id)
        library = backend.build_library()
        assert len(library) > 0
        assert library.nominal_voltage == backend.nominal_voltage
        voltage = backend.build_voltage_model()
        assert voltage.vdd_nom == backend.nominal_voltage
        systolic = backend.build_systolic_config()
        assert systolic.clock_period_ps == backend.clock_period_ps

    def test_adder_styles_differ_structurally(self):
        ks = get_backend("nangate15-booth").build_mac()
        ripple = get_backend("nangate15-ripple").build_mac()
        assert ks.adder.cell_counts() != ripple.adder.cell_counts()

    def test_scaled_45nm_scales_energy_not_delay(self):
        base = get_backend("nangate15-booth")
        scaled = get_backend("scaled-45nm")
        base_lib, scaled_lib = base.build_library(), scaled.build_library()
        for cell in base_lib:
            other = scaled_lib[cell.name]
            assert other.energy_fj > cell.energy_fj
            assert other.delay_ps == cell.delay_ps


class TestDefaultBackendMatchesLegacyHardware:
    """`nangate15-booth` must reproduce the pre-registry defaults."""

    def test_library_identical(self):
        built = get_backend(DEFAULT_BACKEND_ID).build_library()
        legacy = default_library()
        assert built.name == legacy.name
        assert built.nominal_voltage == legacy.nominal_voltage
        assert built.cells == legacy.cells

    def test_mac_identical(self):
        built = get_backend(DEFAULT_BACKEND_ID).build_mac()
        legacy = build_mac_unit()
        assert built.cell_counts() == legacy.cell_counts()
        assert built.style == legacy.style
        assert built.adder_style == legacy.adder_style
        assert (built.act_bits, built.weight_bits, built.product_bits,
                built.psum_bits) == (legacy.act_bits, legacy.weight_bits,
                                     legacy.product_bits, legacy.psum_bits)

    def test_voltage_and_systolic_identical(self):
        backend = get_backend(DEFAULT_BACKEND_ID)
        assert backend.build_voltage_model() == VoltageModel()
        assert backend.build_systolic_config() == SystolicConfig()

    def test_pipeline_ops_resolves_default_backend(self):
        ops = PipelineOps(PipelineConfig())
        assert ops.backend.backend_id == DEFAULT_BACKEND_ID
        assert ops.library.cells == default_library().cells
        assert ops.mac.cell_counts() == build_mac_unit().cell_counts()


class TestBackendKeyedStageCache:
    def _keys(self, **overrides):
        return POWER_PRUNING_GRAPH.keys(PipelineConfig(**overrides))

    def test_every_stage_key_differs_across_backends(self):
        """Cross-backend cache collisions are impossible by
        construction: the backend spec is hashed into every key."""
        by_backend = {bid: self._keys(backend=bid)
                      for bid in list_backends()}
        for name in POWER_PRUNING_GRAPH.names():
            keys = {by_backend[bid][name] for bid in by_backend}
            assert len(keys) == len(by_backend), name

    def test_default_backend_keys_stable(self):
        assert self._keys() == self._keys(backend=DEFAULT_BACKEND_ID)

    def test_char_jobs_never_in_keys(self):
        assert self._keys() == self._keys(char_jobs=8)

    def test_contexts_on_same_id_specs_keep_their_own_keys(self):
        """Two specs share an id: a context keys and builds its own
        spec, before and after the other context is made."""
        from repro.experiments.config import NETWORK_SPECS
        from repro.experiments.runner import ExperimentContext

        spec_a = HardwareBackend("custom", "user backend")
        spec_b = HardwareBackend("custom", "user backend",
                                 energy_factor=2.0)
        context_a = ExperimentContext(NETWORK_SPECS[0], "smoke",
                                      backend=spec_a)
        before = POWER_PRUNING_GRAPH.key("power_table", context_a.config)
        context_b = ExperimentContext(NETWORK_SPECS[0], "smoke",
                                      backend=spec_b)
        after = POWER_PRUNING_GRAPH.key("power_table", context_a.config)
        assert after == before
        assert context_a.runner.key("power_table") == before
        assert context_b.runner.key("power_table") != before
        assert context_a.runner.ops.backend is spec_a
        assert context_b.runner.ops.backend is spec_b

    def test_redefined_backend_spec_invalidates_keys(self):
        try:
            register_backend(HardwareBackend(
                "test-ephemeral", "for key test"))
            before = self._keys(backend="test-ephemeral")
            register_backend(
                HardwareBackend("test-ephemeral", "for key test",
                                energy_factor=1.5),
                replace=True)
            after = self._keys(backend="test-ephemeral")
            for name in POWER_PRUNING_GRAPH.names():
                assert before[name] != after[name], name
        finally:
            from repro.hw import registry
            registry._REGISTRY.pop("test-ephemeral", None)


@pytest.fixture(scope="module")
def tiny_characterizer():
    mac = build_mac_unit()
    lib = default_library()
    rng = np.random.default_rng(0)
    act_dist = TransitionDistribution.diagonal(256)
    stream = rng.integers(-(1 << 18), 1 << 18, 3000)
    binner = PartialSumBinner(n_bins=8).fit(stream, rng=rng)
    binned = BinnedTransitions.from_stream(binner, stream)
    return WeightPowerCharacterizer(mac, lib, act_dist, binned,
                                    n_samples=150)


class TestShardedCharacterization:
    def test_seed_sequence_keyed_on_value_not_order(self):
        a = weight_seed_sequence(7, -105).generate_state(4)
        b = weight_seed_sequence(7, -105).generate_state(4)
        c = weight_seed_sequence(7, 64).generate_state(4)
        d = weight_seed_sequence(8, -105).generate_state(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_sharded_bitwise_equal_to_serial(self, tiny_characterizer):
        weights = list(range(-127, 128, 16))
        serial = tiny_characterizer.characterize(weights, seed=5, jobs=1)
        sharded = tiny_characterizer.characterize(weights, seed=5, jobs=3)
        np.testing.assert_array_equal(serial.weights, sharded.weights)
        np.testing.assert_array_equal(serial.power_uw, sharded.power_uw)
        np.testing.assert_array_equal(serial.dynamic_uw,
                                      sharded.dynamic_uw)
        assert serial.energy_scale == sharded.energy_scale
        assert serial.leakage_uw == sharded.leakage_uw

    def test_result_independent_of_weight_subset(self, tiny_characterizer):
        raw = WeightPowerCharacterizer(
            tiny_characterizer.mac, tiny_characterizer.library,
            tiny_characterizer.act_transitions,
            tiny_characterizer.psum_transitions,
            n_samples=150, calibrate_to_uw=None)
        full = raw.characterize([-9, 0, 7, 31], seed=5)
        solo = raw.characterize([7], seed=5)
        assert full.power_of(7) == solo.power_of(7)
