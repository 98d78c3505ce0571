"""Tests for the experiment harness (configs, runner, figure modules)."""

import numpy as np
import pytest

from repro.experiments.config import (
    NETWORK_SPECS,
    NETWORK_TRAINING,
    SCALES,
    get_scale,
    pipeline_config,
)
from repro.experiments.runner import ExperimentContext
from repro.experiments import fig2, fig3, fig4, fig7, table1


class TestScaleConfig:
    def test_all_scales_defined(self):
        assert set(SCALES) == {"smoke", "ci", "paper"}

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            get_scale("huge")

    def test_paper_scale_matches_paper_parameters(self):
        paper = get_scale("paper")
        assert paper.char_weight_step == 1      # all 255 weight values
        assert paper.char_samples == 10000      # Sec. III-A3
        assert paper.timing_transitions is None  # full 2^16 enumeration
        assert paper.n_restarts == 20            # Sec. IV
        assert paper.width_mult == 1.0

    def test_scales_are_ordered_by_fidelity(self):
        smoke, ci, paper = (get_scale(s) for s in ("smoke", "ci",
                                                   "paper"))
        assert smoke.char_samples < ci.char_samples < paper.char_samples
        assert smoke.n_train < ci.n_train < paper.n_train

    def test_four_network_specs(self):
        assert len(NETWORK_SPECS) == 4
        names = [spec.network for spec in NETWORK_SPECS]
        assert names == ["lenet5", "resnet20", "resnet50",
                         "efficientnet-b0-lite"]
        datasets = [spec.dataset for spec in NETWORK_SPECS]
        assert datasets == ["cifar10", "cifar10", "cifar100", "imagenet"]

    def test_pipeline_config_propagates_scale(self):
        config = pipeline_config(NETWORK_SPECS[0], "smoke")
        smoke = get_scale("smoke")
        assert config.n_train == smoke.n_train
        assert config.char_samples == smoke.char_samples
        assert config.network == "lenet5"

    def test_per_network_training_overrides(self):
        assert set(NETWORK_TRAINING) == {spec.network
                                         for spec in NETWORK_SPECS}
        config = pipeline_config(NETWORK_SPECS[1], "smoke")
        assert config.lr == NETWORK_TRAINING["resnet20"]["lr"]


class TestPaperReferenceData:
    def test_table1_reference_rows(self):
        assert set(table1.PAPER_TABLE1) == {spec.label
                                            for spec in NETWORK_SPECS}
        lenet = table1.PAPER_TABLE1["LeNet-5-CIFAR-10"]
        assert lenet["opt_red"] == 73.9  # the headline number
        assert lenet["voltage"] == "0.71/0.8"

    def test_fig2_anchors(self):
        assert fig2.PAPER_ANCHORS_UW[-105] == 1066.0
        assert fig2.PAPER_ANCHORS_UW[-2] == 596.0

    def test_fig3_anchors(self):
        assert fig3.PAPER_MAX_DELAY_PS[-105] == 179.0
        assert fig3.PAPER_MAX_DELAY_PS[64] == 134.0


@pytest.mark.slow
class TestExperimentContext:
    @pytest.fixture(scope="class")
    def context(self):
        return ExperimentContext(NETWORK_SPECS[0], "smoke", seed=1)

    def test_stages_are_cached(self, context):
        assert context.power_table is context.power_table
        assert context.stats is context.stats
        assert context.model is context.model

    def test_baseline_accuracies_recorded(self, context):
        assert 0.0 <= context.accuracy_orig <= 1.0
        assert 0.0 <= context.accuracy_pruned <= 1.0

    def test_reset_model_clears_restrictions(self, context):
        from repro.nn.restrict import WeightRestriction

        model = context.model
        model.set_weight_restriction(WeightRestriction([0, 1]))
        model = context.reset_model()
        assert all(l.weight_restriction is None
                   for l in model.quantized_layers())

    def test_timing_table_cached_by_candidates(self, context):
        weights = context.power_table.select_below(900.0)
        first = context.timing_table(weights)
        second = context.timing_table(list(weights))
        assert first is second


@pytest.mark.slow
class TestFigureRuns:
    def test_fig3_smoke(self):
        result = fig3.run("smoke")
        delays = result.max_delays()
        assert delays[-105] == pytest.approx(180.0, abs=1.0)
        assert delays[64] < delays[-105]

    def test_fig2_and_fig4_share_context_shape(self):
        result = fig2.run("smoke")
        table = result.table
        assert table.power_of(0) == table.power_uw.min()
        assert table.power_uw.max() == pytest.approx(1066.0)

        result4 = fig4.run("smoke")
        summary = result4.summary()
        assert summary["act_diagonal_mass_16"] > 0.2
        assert result4.psum_binned.distribution.n_codes == 50

    def test_fig7_bars_are_the_table1_row(self, smoke_cache_dir):
        lenet5 = NETWORK_SPECS[0]
        result = fig7.run("smoke", specs=(lenet5,),
                          cache_dir=smoke_cache_dir)
        (report,) = table1.run("smoke", specs=(lenet5,),
                               cache_dir=smoke_cache_dir)
        bars = {bar.stage: bar for bar in result.bars[lenet5.label]}
        assert list(bars) == ["Baseline", "Pruned", "Proposed"]
        assert bars["Baseline"].power == report.power_opt_orig
        assert bars["Baseline"].accuracy == report.accuracy_orig
        assert bars["Proposed"].power == report.power_opt_prop_vs
        assert bars["Proposed"].accuracy == report.accuracy_prop
        pruned = report.extras["pruned"]
        assert bars["Pruned"].power == pruned["power_opt"]
        assert bars["Pruned"].accuracy == pruned["accuracy"]
