"""Shared experiment context on top of the pipeline stage graph.

Several figures reuse the same expensive prefix (train the baseline,
collect operand statistics, characterize weight power).  The context is
a thin view over :class:`repro.core.stages.StageRunner`: every stage is
computed once per (network, scale, seed) through the content-addressed
artifact store — in memory always, and on disk when ``cache_dir`` is
given, so figure sweeps, Table I rows and worker processes all share
the same artifacts.

Unification note: the pre-stage-graph context re-implemented the
training prefix with two deliberate-looking but divergent choices —
operand statistics were collected from the *pruned* model (the
pipeline uses the baseline, per Sec. III-C's step order) and the
baseline trainer ignored ``lr_decay_epochs``.  Both now follow the
pipeline's single implementation, so figure-experiment numbers shifted
slightly at fixed seeds; the paper-anchored calibrations and all
qualitative claims are unaffected (see tests).
"""

from __future__ import annotations

from typing import Optional

from repro.core.artifacts import ArtifactStore, hash_key
from repro.core.pipeline import PipelineConfig, PowerPruner
from repro.core.report import PowerPruningReport
from repro.core.stages import backend_key_payload
from repro.experiments.config import NetworkSpec, pipeline_config
from repro.hw import DEFAULT_BACKEND_ID
from repro.nn.layers import Module
from repro.power.characterization import WeightPowerTable
from repro.systolic import TransitionStatsCollector
from repro.timing.profile import WeightTimingTable

#: Version of :meth:`ExperimentContext.timing_table` artifacts.  v2:
#: per-weight child RNG transition subsampling (order/shard
#: independent).
TIMING_CANDIDATES_VERSION = "2"


class ExperimentContext:
    """Cached pipeline stages for one network/dataset at one scale.

    Args:
        spec: The network/dataset pair.
        scale: Experiment scale (``smoke``/``ci``/``paper``).
        seed: Seed threaded through every stage.
        verbose: Log stage execution.
        cache_dir: Optional on-disk artifact cache shared across
            contexts, runs and processes.
        store: An existing :class:`ArtifactStore` to share in-process;
            overrides ``cache_dir``.
        backend: Hardware-backend id or spec (see :mod:`repro.hw`);
            keys every stage artifact, so contexts on different
            backends can share a store without ever colliding.
        char_jobs: Processes to shard per-weight characterization over.
        accel: Optional :class:`~repro.systolic.spec.AcceleratorSpec`
            design point for :meth:`accel_eval`; keys only the
            ``accel_*`` stages.
    """

    def __init__(self, spec: NetworkSpec, scale: str = "ci",
                 seed: int = 0, verbose: bool = False,
                 cache_dir=None,
                 store: Optional[ArtifactStore] = None,
                 backend=DEFAULT_BACKEND_ID,
                 char_jobs: int = 1,
                 accel=None) -> None:
        self.spec = spec
        self.scale = scale
        self.config: PipelineConfig = pipeline_config(
            spec, scale, seed=seed, verbose=verbose, backend=backend,
            char_jobs=char_jobs,
            accel=accel)
        self.pruner = PowerPruner(self.config, cache_dir=cache_dir,
                                  store=store)
        self.runner = self.pruner.runner()
        self._model: Optional[Module] = None

    @property
    def store(self) -> ArtifactStore:
        return self.runner.store

    # ------------------------------------------------------------------
    # cached stages
    # ------------------------------------------------------------------
    @property
    def dataset(self):
        return self.runner.get("dataset")

    @property
    def model(self) -> Module:
        """Baseline-trained, conventionally pruned, retrained model."""
        if self._model is None:
            self._model = self.runner.ops.model_from_state(
                self.runner.get("pruned")["state"])
        return self._model

    @property
    def accuracy_orig(self) -> float:
        return self.runner.get("baseline")["accuracy"]

    @property
    def accuracy_pruned(self) -> float:
        return self.runner.get("pruned")["accuracy"]

    def reset_model(self) -> Module:
        """Restore the model to its pruned-baseline state."""
        model = self.model
        model.load_state_dict(self.runner.get("pruned")["state"])
        model.set_weight_restriction(None)
        model.set_activation_filter(None)
        return model

    @property
    def stats(self) -> TransitionStatsCollector:
        return self.runner.get("operand_stats")

    @property
    def power_table(self) -> WeightPowerTable:
        return self.runner.get("power_table")

    def accel_eval(self) -> dict:
        """Accelerator-level evaluation of the configured design point
        (per-layer rows + network summary; see ``accel_eval`` stage)."""
        return self.runner.get("accel_eval")

    def timing_table_key(self, candidate_weights) -> str:
        """Cache key of :meth:`timing_table` for a candidate set.

        ``char_jobs`` is deliberately absent: sharded characterization
        is bit-for-bit identical to serial, so the artifact must be
        shared across any sharding choice.
        """
        candidates = tuple(sorted(int(w) for w in candidate_weights))
        config = self.config
        return hash_key({
            "stage": "timing_table/candidates",
            "version": TIMING_CANDIDATES_VERSION,
            "backend": backend_key_payload(config),
            "config": {
                "timing_transitions": config.timing_transitions,
                "timing_floor_ps": config.timing_floor_ps,
                "seed": config.seed,
            },
            "candidates": candidates,
        })

    def timing_table(self, candidate_weights) -> WeightTimingTable:
        """Timing table for an arbitrary candidate set.

        Sweeps probe candidate sets that differ from the pipeline's own
        power selection, so this is keyed directly on the candidates
        (plus the timing config fields) in the same artifact store.
        ``char_jobs`` shards the per-weight analyses across processes
        without changing a bit of the result.
        """
        candidates = tuple(sorted(int(w) for w in candidate_weights))
        return self.store.get_or_compute(
            self.timing_table_key(candidates),
            lambda: self.runner.ops.characterize_timing(list(candidates)),
        )

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def retrain(self, model: Module) -> float:
        """Retrain in place, return test accuracy."""
        return self.runner.ops.retrain_fn(self.dataset)(model)

    def measure_power(self, model: Module, vdd: Optional[float] = None):
        """(Standard HW, Optimized HW) power of ``model``."""
        return self.runner.ops.measure_power(model, self.power_table,
                                             vdd=vdd)

    def report(self) -> PowerPruningReport:
        """The full pipeline's Table I report (cached end to end)."""
        return self.pruner.run()
