"""Tests for the PowerPruning core: workloads, pruning, searches,
voltage scaling and reporting."""

import numpy as np
import pytest

from repro.core import (
    LayerWorkload,
    PipelineConfig,
    PowerPruner,
    PowerPruningReport,
    delay_threshold_search,
    extract_workloads,
    format_table1,
    magnitude_prune,
    power_threshold_search,
    scale_voltage,
)
from repro.core.power_selection import PowerSelectionOutcome
from repro.core.workloads import largest_conv_workloads
from repro.data import cifar10_like
from repro.models import LeNet5
from repro.nn import Tensor, Trainer, TrainingConfig, WeightRestriction
from repro.power.characterization import WeightPowerTable
from repro.power.estimator import PowerBreakdown
from repro.systolic import SystolicConfig
from repro.timing import WeightTimingTable


@pytest.fixture(scope="module")
def trained_lenet():
    dataset = cifar10_like(n_train=300, n_test=120, seed=5)
    model = LeNet5(width_mult=0.5)
    trainer = Trainer(model, TrainingConfig(epochs=3, batch_size=32,
                                            lr=0.05))
    trainer.fit(dataset.x_train, dataset.y_train)
    accuracy = trainer.evaluate(dataset.x_test, dataset.y_test)
    return model, dataset, accuracy


class TestWorkloads:
    def test_extract_all_layers(self, trained_lenet):
        model, dataset, __ = trained_lenet
        workloads = extract_workloads(model, dataset.x_test[:4])
        assert len(workloads) == 5  # 2 convs + 3 dense
        for workload in workloads:
            k, n = workload.weights.shape
            assert workload.schedule.k == k
            assert workload.schedule.n == n

    def test_activation_matrices_align(self, trained_lenet):
        model, dataset, __ = trained_lenet
        workloads = extract_workloads(model, dataset.x_test[:4])
        for workload in workloads:
            assert workload.activations is not None
            assert workload.activations.shape[0] == \
                workload.weights.shape[0]
            assert np.abs(workload.activations).max() <= 128

    def test_capture_can_be_disabled(self, trained_lenet):
        model, dataset, __ = trained_lenet
        workloads = extract_workloads(model, dataset.x_test[:2],
                                      capture_activations=False)
        assert all(w.activations is None for w in workloads)

    def test_weights_are_int8_codes(self, trained_lenet):
        model, dataset, __ = trained_lenet
        workloads = extract_workloads(model, dataset.x_test[:2],
                                      capture_activations=False)
        for workload in workloads:
            assert workload.weights.min() >= -127
            assert workload.weights.max() <= 127

    def test_largest_conv_selection(self, trained_lenet):
        model, dataset, __ = trained_lenet
        workloads = extract_workloads(model, dataset.x_test[:2],
                                      capture_activations=False)
        top = largest_conv_workloads(workloads, top=2)
        assert len(top) == 2
        assert top[0].macs >= top[1].macs
        assert top[0].macs == max(w.macs for w in workloads)


class TestMagnitudePrune:
    def test_sparsity_achieved(self):
        model = LeNet5(width_mult=0.5)
        sparsities = magnitude_prune(model, 0.6)
        assert sparsities  # at least one layer pruned
        for sparsity in sparsities.values():
            assert sparsity == pytest.approx(0.6, abs=0.1)

    def test_last_layer_skipped(self):
        model = LeNet5(width_mult=0.5)
        magnitude_prune(model, 0.5)
        assert model.quantized_layers()[-1].weight_mask is None

    def test_zero_codes_after_pruning(self):
        model = LeNet5(width_mult=0.5)
        magnitude_prune(model, 0.7)
        layer = model.quantized_layers()[0]
        codes, __ = layer.quantized_weights()
        assert (codes == 0).mean() >= 0.6


def _toy_power_table():
    weights = np.arange(-127, 128)
    power = 400.0 + 5.0 * np.abs(weights)
    power[127] = 150.0  # zero weight cheapest
    return WeightPowerTable(
        weights=weights, power_uw=power, dynamic_uw=power - 10.0,
        leakage_uw=10.0, clock_period_ps=180.0)


class TestPowerThresholdSearch:
    def _retrain_stub(self, accuracies):
        """Pure retrain stub: accuracy keyed on the restriction's size.

        The toy table keeps 201/181/161 weights at 900/850/800 µW; the
        searches may retrain their steps in any order, in forked
        children.
        """
        def retrain(model):
            restriction = model.quantized_layers()[0].weight_restriction
            return accuracies.get(len(restriction), 0.0)

        return retrain

    def test_accepts_until_drop(self):
        model = LeNet5(width_mult=0.25)
        table = _toy_power_table()
        outcome = power_threshold_search(
            model, table,
            self._retrain_stub({201: 0.90, 181: 0.89, 161: 0.70}),
            baseline_accuracy=0.90,
            thresholds=(900.0, 850.0, 800.0), max_drop=0.03)
        assert outcome.threshold_uw == 850.0
        assert len(outcome.history) == 3
        # the model keeps the accepted restriction
        layer = model.quantized_layers()[0]
        assert layer.weight_restriction is not None
        assert outcome.n_weights == table.select_below(850.0).size

    def test_all_fail_returns_unrestricted(self):
        model = LeNet5(width_mult=0.25)
        table = _toy_power_table()
        outcome = power_threshold_search(
            model, table, self._retrain_stub({201: 0.10}),
            baseline_accuracy=0.90, thresholds=(900.0, 850.0),
            max_drop=0.03)
        assert outcome.threshold_uw is None
        assert outcome.accuracy == 0.90
        assert model.quantized_layers()[0].weight_restriction is None

    def test_history_records_counts(self):
        model = LeNet5(width_mult=0.25)
        table = _toy_power_table()
        outcome = power_threshold_search(
            model, table, self._retrain_stub({201: 0.9, 161: 0.9}),
            baseline_accuracy=0.9, thresholds=(900.0, 800.0),
            max_drop=0.05)
        thresholds = [h[0] for h in outcome.history]
        counts = [h[1] for h in outcome.history]
        assert thresholds == [900.0, 800.0]
        assert counts[0] > counts[1]


def _toy_timing_table():
    """Weights -8..8; a threshold removes exactly the weights above it.

    Weights 5..8 each have one slow combo on the protected zero
    activation, so 170/160/150/140 ps remove 8/7-8/6-8/5-8.  Weight
    -3's 5->9 transition forces a random removal of the weight or an
    activation from 150 ps down.
    """
    slow = [(w, 0, 0, 135.0 + 10.0 * (w - 4)) for w in range(5, 9)]
    slow.append((-3, 5, 9, 155.0))
    combo_w, combo_f, combo_t, combo_d = (np.array(c) for c in zip(*slow))
    weights = np.arange(-8, 9)
    max_delay = np.full(weights.size, 120.0)
    for weight, __, __, delay in slow:
        max_delay[weight + 8] = delay
    return WeightTimingTable(
        weights=weights, max_delay_ps=max_delay, combo_weight=combo_w,
        combo_act_from=combo_f, combo_act_to=combo_t,
        combo_delay_ps=combo_d, floor_ps=90.0, time_scale=1.0,
        psum_path_ps=100.0)


class TestDelayThresholdSearch:
    def test_accepts_every_passing_step(self):
        table = _toy_timing_table()
        outcome = delay_threshold_search(
            LeNet5(width_mult=0.25), table,
            candidate_weights=table.weights, retrain=lambda model: 0.9,
            original_accuracy=0.9, n_restarts=2)
        assert outcome.threshold_ps == 140.0
        assert [h[:2] for h in outcome.history[:2]] == [(170.0, 16),
                                                        (160.0, 15)]
        assert outcome.selection.weights.max() == 4

    def test_no_pass_restores_the_entry_restriction(self):
        # Restrictions are not in the state dict; the model used to
        # keep the restriction of the last failed step.
        model = LeNet5(width_mult=0.25)
        table = _toy_timing_table()
        entry = WeightRestriction(table.weights)
        model.set_weight_restriction(entry)
        outcome = delay_threshold_search(
            model, table, candidate_weights=table.weights,
            retrain=lambda model: 0.0, original_accuracy=0.9,
            n_restarts=2)
        assert outcome.threshold_ps is None
        assert [h[0] for h in outcome.history] == [170.0]
        for layer in model.quantized_layers():
            assert layer.weight_restriction is entry


class TestVoltageScaling:
    def test_table1_anchor(self):
        outcome = scale_voltage(140.0, 180.0)
        assert outcome.vdd == 0.71
        assert outcome.delay_reduction_ps == pytest.approx(40.0)
        assert outcome.scaling_factor_label == "0.71/0.8"

    def test_no_slack(self):
        outcome = scale_voltage(180.0, 180.0)
        assert outcome.vdd == 0.8
        assert outcome.dynamic_scale == pytest.approx(1.0)

    def test_scales_below_one(self):
        outcome = scale_voltage(150.0, 180.0)
        assert outcome.dynamic_scale < 1.0
        assert outcome.leakage_scale < outcome.dynamic_scale


class TestReport:
    def _report(self):
        def pb(dyn, leak):
            return PowerBreakdown(dynamic_uw=dyn, leakage_uw=leak)

        return PowerPruningReport(
            network="lenet5", dataset="cifar10",
            accuracy_orig=0.807, accuracy_prop=0.784,
            power_std_orig=pb(240_000, 41_600),
            power_std_prop=pb(180_000, 41_600),
            power_std_prop_vs=pb(120_000, 32_100),
            power_opt_orig=pb(270_000, 10_400),
            power_opt_prop=pb(90_000, 10_400),
            power_opt_prop_vs=pb(63_000, 10_100),
            n_selected_weights=32, n_selected_activations=176,
            max_delay_reduction_ps=40.0, voltage_label="0.71/0.8",
        )

    def test_reduction_columns(self):
        report = self._report()
        assert report.reduction_std == pytest.approx(46.0, abs=1.0)
        assert report.reduction_opt == pytest.approx(73.9, abs=1.0)

    def test_vs_contribution_positive(self):
        report = self._report()
        assert report.vs_contribution_std > 0
        assert report.vs_contribution_opt > 0

    def test_format_table(self):
        table = format_table1([self._report()])
        assert "lenet5-cifar10" in table
        assert "0.71/0.8" in table
        assert "Wei." in table

    def test_row_width_matches_header(self):
        from repro.core.report import TABLE1_HEADER
        assert len(self._report().row()) == len(TABLE1_HEADER)


@pytest.mark.slow
class TestPipelineEndToEnd:
    def test_lenet_smoke_run(self):
        config = PipelineConfig(
            network="lenet5", dataset="cifar10", width_mult=0.5,
            n_train=500, n_test=200, baseline_epochs=4, retrain_epochs=1,
            char_weight_step=16, char_samples=400,
            timing_transitions=2000, n_restarts=3,
        )
        report = PowerPruner(config).run()
        # The paper's qualitative claims at any scale:
        assert report.accuracy_orig > 0.5
        assert report.reduction_opt > 20.0
        assert report.reduction_std > 10.0
        assert report.reduction_opt > report.reduction_std
        assert report.power_opt_orig.total_uw < \
            report.power_std_orig.total_uw
        assert report.n_selected_weights >= 1
        assert 0 < report.max_delay_reduction_ps <= 80.0
