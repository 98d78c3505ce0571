"""The end-to-end PowerPruning flow (training -> Table I row).

Stages, mirroring Sec. III-C:

1. Train the 8-bit QAT baseline and measure its accuracy and power.
2. Conventional magnitude pruning + retraining.
3. Characterize per-weight MAC power from the network's own operand
   statistics; iteratively lower the power threshold with retraining.
4. Characterize per-weight timing; iteratively lower the delay threshold
   selecting weights *and* activations, with retraining.
5. Scale the supply voltage into the freed timing slack.
6. Estimate Standard-HW / Optimized-HW power of the final network.

The flow itself lives in :mod:`repro.core.stages` as an explicit stage
graph; :class:`PowerPruner` composes it through a content-addressed
:class:`~repro.core.artifacts.ArtifactStore`, so repeated runs — and
any experiment sharing the store or an on-disk cache directory — reuse
every unchanged stage prefix instantly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.artifacts import ArtifactStore
from repro.core.delay_selection import DEFAULT_THRESHOLDS_PS
from repro.core.power_selection import DEFAULT_THRESHOLDS_UW
from repro.core.report import PowerPruningReport
from repro.core.stages import (
    PipelineOps,
    StageRunner,
    build_power_pruning_graph,
)
from repro.hw import DEFAULT_BACKEND_ID
from repro.systolic.spec import AcceleratorSpec

#: Weight values referenced throughout the paper's figures; always
#: characterized regardless of the CI-scale stride.
CHAR_ANCHOR_WEIGHTS = (-105, -64, -2, -1, 0, 1, 2, 64, 105, 127)

#: One shared, immutable graph instance — stages are stateless, so every
#: pruner/runner can reuse it.
POWER_PRUNING_GRAPH = build_power_pruning_graph()


@dataclass(frozen=True)
class PipelineConfig:
    """Scale and hyper-parameters of one pipeline run.

    The defaults are the CI scale: everything runs on a CPU in about a
    minute per network.  ``paper`` values are noted per field.

    Frozen: a stage runner keys each stage once per config, so a
    variant is a new config (``dataclasses.replace``), never an edit.
    """

    network: str = "lenet5"
    dataset: str = "cifar10"
    #: Hardware backend id (see :mod:`repro.hw`); participates in every
    #: stage cache key, so artifacts from different backends can never
    #: collide in a shared store.
    backend: str = DEFAULT_BACKEND_ID
    #: Processes to shard per-weight characterization over (0 = all
    #: cores).  Sharding is bit-for-bit equal to a serial run, so this
    #: knob is deliberately absent from all stage cache keys.
    char_jobs: int = 1
    num_classes: int = 10
    width_mult: float = 0.5          # paper: 1.0
    depth_mult: float = 1.0
    n_train: int = 800               # paper: full dataset
    n_test: int = 300
    baseline_epochs: int = 5         # paper: full training schedules
    retrain_epochs: int = 2
    batch_size: int = 32
    lr: float = 0.05
    lr_decay_epochs: tuple = ()
    prune_fraction: float = 0.5
    char_weight_step: int = 4        # paper: 1 (all 255 values)
    char_samples: int = 1500         # paper: 10000
    timing_transitions: Optional[int] = 8000   # paper: None (all 2^16)
    timing_floor_ps: float = 100.0
    power_thresholds_uw: Sequence[float] = DEFAULT_THRESHOLDS_UW
    delay_thresholds_ps: Sequence[float] = DEFAULT_THRESHOLDS_PS
    power_max_drop: float = 0.03
    delay_max_drop_fraction: float = 0.05
    n_restarts: int = 20
    stats_layers: int = 3
    stats_batch: int = 16
    clock_power_uw: float = 80.0
    refine_power_with_filtered_activations: bool = False
    #: Accelerator design point evaluated by the ``accel_schedule`` /
    #: ``accel_eval`` stages.  ``None`` means the backend's own
    #: geometry on Standard HW; deliberately keyed ONLY into the
    #: ``accel_*`` stage keys (via :attr:`accel_geometry` /
    #: :attr:`accel_point`), so sweeping the accelerator design space
    #: shares the whole training/characterization prefix.
    accel: Optional[AcceleratorSpec] = None
    seed: int = 0
    verbose: bool = False

    def accel_spec(self) -> AcceleratorSpec:
        """The accelerator design point, defaulted when unset."""
        return self.accel if self.accel is not None else AcceleratorSpec()

    def _resolved_accel(self) -> AcceleratorSpec:
        """Spec with ``None`` geometry resolved against the backend, so
        an explicit 64x64 request and the default geometry of a 64x64
        backend hash to the same ``accel_*`` keys."""
        from repro.hw import get_backend
        base = get_backend(self.backend).build_systolic_config()
        return self.accel_spec().resolved(base)

    @property
    def accel_geometry(self) -> Dict[str, object]:
        """``accel_schedule`` key payload: geometry + mapping only —
        the hardware variants share one schedule and its counts."""
        return self._resolved_accel().geometry_payload()

    @property
    def accel_point(self) -> Dict[str, object]:
        """``accel_eval`` key payload: geometry + mapping + variant."""
        return self._resolved_accel().key_payload()

    def char_weights(self) -> Tuple[int, ...]:
        """Weight values to characterize (stride-reduced at CI scale).

        The result is cached on the config — stage-key hashing and
        repeated characterizations hit the same tuple.
        """
        cached = self.__dict__.get("_char_weights")
        if cached is None:
            weights = set(range(-127, 128, max(1, self.char_weight_step)))
            weights.update(CHAR_ANCHOR_WEIGHTS)
            cached = self.__dict__["_char_weights"] = tuple(
                sorted(weights))
        return cached


class PowerPruner:
    """Runs the full PowerPruning flow for one network/dataset pair.

    Args:
        config: Scale and hyper-parameters; CI defaults when omitted.
        cache_dir: Optional on-disk artifact cache — runs (and worker
            processes) pointing at the same directory share every
            unchanged stage.
        store: An existing :class:`ArtifactStore` to share in-process;
            overrides ``cache_dir``.
    """

    def __init__(self, config: Optional[PipelineConfig] = None,
                 cache_dir=None,
                 store: Optional[ArtifactStore] = None) -> None:
        self.config = config or PipelineConfig()
        self.graph = POWER_PRUNING_GRAPH
        self.ops = PipelineOps(self.config)
        self.store = store if store is not None else ArtifactStore(
            cache_dir)
        self.artifacts: Dict[str, object] = {}

    def runner(self) -> StageRunner:
        """A stage runner over this pruner's config and store."""
        return StageRunner(self.graph, self.ops, self.store)

    # ------------------------------------------------------------------
    # helper stages (compatibility wrappers around the ops backend)
    # ------------------------------------------------------------------
    def collect_statistics(self, model, dataset):
        """Run the network's hottest layers through the array, collecting
        the Fig. 4 transition statistics."""
        return self.ops.collect_statistics(model, dataset)

    def characterize_power(self, stats):
        """Per-weight power table from measured operand statistics."""
        return self.ops.characterize_power(stats)

    def characterize_timing(self, candidate_weights):
        """Per-weight timing table for the power-selected candidates."""
        return self.ops.characterize_timing(candidate_weights)

    def measure_power(self, model, table, vdd=None):
        """(Standard HW, Optimized HW) average power of the network."""
        return self.ops.measure_power(model, table, vdd=vdd)

    # ------------------------------------------------------------------
    # the full flow
    # ------------------------------------------------------------------
    def run(self) -> PowerPruningReport:
        """Execute (or resume from cache) every stage; return the report.

        Stage outputs are mirrored into :attr:`artifacts` under their
        historical names.
        """
        runner = self.runner()
        report = runner.get("report")

        power = runner.get("power_measurement")
        self.artifacts.update({
            "accuracy_orig": runner.get("baseline")["accuracy"],
            "operand_stats": runner.get("operand_stats"),
            "power_table": runner.get("power_table"),
            "power_selection": runner.get("power_selection")["outcome"],
            "timing_table": runner.get("timing_table"),
            "delay_selection": runner.get("delay_selection")["outcome"],
            "voltage_scaling": runner.get("voltage_scaling"),
            "pruned": report.extras["pruned"],
        })
        if power["filtered_table"] is not None:
            self.artifacts["power_table_filtered"] = power[
                "filtered_table"]
        return report
