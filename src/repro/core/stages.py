"""The PowerPruning flow as an explicit stage graph.

Each :class:`Stage` declares the configuration fields it reads and the
upstream stages it consumes; :class:`StageGraph` derives from those a
content-addressed key per stage (see :mod:`repro.core.artifacts`), and
:class:`StageRunner` executes stages on demand through an
:class:`~repro.core.artifacts.ArtifactStore` so every unchanged prefix
of the graph is reused instantly — across pipeline runs, threshold
sweeps, figure experiments and worker processes.

The graph (paper Sec. III-C)::

    dataset ──► baseline ──► pruned ──► power_selection ─► timing_table
                   │            │             │                 │
                   └─► operand_stats ─► power_table ────────────┤
                                              │                 ▼
                                              │          delay_selection
                                              │                 │
                                              │         voltage_scaling
                                              └────────┬────────┘
                                                       ▼
                                             power_measurement ─► report

``dataset`` also feeds the stages that train or read test images:
``pruned``, ``operand_stats``, ``power_selection`` and
``delay_selection``.

Plus the accelerator-evaluation branch (keyed on the
:class:`~repro.systolic.spec.AcceleratorSpec` design point only, so a
design-space sweep shares the whole training/characterization prefix)::

    pruned ──► accel_layers ──► accel_schedule ──► accel_eval
                                  (geometry)   (power_table,
                                                voltage_scaling, variant)

``accel_layers`` traces the pruned model once for every design point;
``accel_schedule`` tiles it and counts each layer's stationary values
once per geometry, for both hardware variants.  ``power_measurement``
and ``accel_layers`` trace layer geometry on one zero image
(:meth:`PipelineOps.trace_layers`), so they never build the dataset.

Stage outputs are plain picklable values; stages that conceptually
produce "the model" return its ``state_dict`` plus the active
weight/activation restriction, and downstream stages rebuild the live
module from that record.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.artifacts import ArtifactStore, hash_key
from repro.core.delay_selection import delay_threshold_search
from repro.core.power_selection import power_threshold_search
from repro.core.pruning import magnitude_prune
from repro.core.report import PowerPruningReport
from repro.core.voltage_scaling import scale_voltage
from repro.core.workloads import extract_workloads, largest_conv_workloads

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import PipelineConfig

__all__ = [
    "Stage",
    "StageGraph",
    "StageRunner",
    "PipelineOps",
    "shared_stage_keys",
    "build_power_pruning_graph",
]


# ----------------------------------------------------------------------
# generic machinery
# ----------------------------------------------------------------------
StageFn = Callable[["PipelineOps", Dict[str, Any]], Any]


@lru_cache(maxsize=None)
def _malloc_trim() -> Optional[Callable[[int], int]]:
    """The C library's ``malloc_trim`` (glibc), or ``None``."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def _release_freed_heap() -> None:
    """Hand the heap's free pages back to the OS (no-op off glibc)."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def shared_stage_keys(config: "PipelineConfig",
                      names: Optional[Sequence[str]] = None
                      ) -> Dict[str, str]:
    """Cache keys of the named pipeline stages under ``config``.

    This is the sweep engine's dedup primitive: two grid points whose
    configs produce the same key for a stage will share that stage's
    artifact in a common store, so a sweep can count (and a test can
    assert) exactly which prefixes of the graph are computed once per
    backend rather than once per grid point.  Defaults to every stage.
    """
    from repro.core.pipeline import POWER_PRUNING_GRAPH

    memo: Dict[str, str] = {}
    if names is None:
        names = POWER_PRUNING_GRAPH.names()
    return {name: POWER_PRUNING_GRAPH.key(name, config, memo)
            for name in names}


@dataclass(frozen=True)
class Stage:
    """One typed node of the pipeline graph.

    Attributes:
        name: Unique stage name.
        fn: ``fn(ops, inputs)`` computing the output; ``inputs`` maps
            each dependency name to its artifact.
        deps: Upstream stage names.
        fields: Configuration fields whose values feed the stage key —
            change one and this stage (plus everything downstream)
            recomputes while the rest of the graph stays cached.
        version: Bump to invalidate cached outputs after a code change.
        persist: ``False`` keeps the output in the memory layer only —
            for artifacts that are large but cheap to regenerate.
    """

    name: str
    fn: StageFn
    deps: Tuple[str, ...] = ()
    fields: Tuple[str, ...] = ()
    version: str = "1"
    persist: bool = True


class StageGraph:
    """A registry of stages with content-addressed keying.

    Stages must be added dependencies-first, which also guarantees the
    graph is acyclic.
    """

    def __init__(self) -> None:
        self._stages: Dict[str, Stage] = {}
        self._fingerprint: Optional[str] = None

    def add(self, stage: Stage) -> Stage:
        if stage.name in self._stages:
            raise ValueError(f"duplicate stage {stage.name!r}")
        missing = [d for d in stage.deps if d not in self._stages]
        if missing:
            raise ValueError(
                f"stage {stage.name!r} depends on unknown stages "
                f"{missing}; add dependencies first")
        self._stages[stage.name] = stage
        self._fingerprint = None
        return stage

    def __getitem__(self, name: str) -> Stage:
        return self._stages[name]

    def __contains__(self, name: str) -> bool:
        return name in self._stages

    def __iter__(self) -> Iterator[Stage]:
        return iter(self._stages.values())

    def names(self) -> List[str]:
        """Stage names in (topological) insertion order."""
        return list(self._stages)

    def fingerprint(self) -> str:
        """Hash of every stage's name, version, deps and fields.

        Results cached outside the stage keys (finished sweep points)
        hash it, so a version bump or a rewired stage invalidates them
        too.  Computed once per graph.
        """
        if self._fingerprint is None:
            self._fingerprint = hash_key([
                (s.name, s.version, s.deps, s.fields)
                for s in self._stages.values()])
        return self._fingerprint

    def key(self, name: str, config: "PipelineConfig",
            _memo: Optional[Dict[str, str]] = None) -> str:
        """Content-addressed artifact key of ``name`` under ``config``.

        The hardware backend's full spec participates in *every* stage
        key unconditionally — not just in stages that read hardware —
        so artifacts produced under different backends can never
        collide in a shared store, by construction.  The deliberate
        cost is that hardware-independent prefixes (dataset, baseline
        training) are not shared across backends: correctness of a
        shared cache is guaranteed by key derivation alone, with no
        per-stage judgement calls about what "reads hardware" to drift
        out of date as stages evolve.
        """
        memo = _memo if _memo is not None else {}
        if name in memo:
            return memo[name]
        stage = self._stages[name]
        payload = {
            "stage": stage.name,
            "version": stage.version,
            "backend": config.backend.key_payload(),
            "config": {f: getattr(config, f) for f in stage.fields},
            "deps": {d: self.key(d, config, memo) for d in stage.deps},
        }
        memo[name] = hash_key(payload)
        return memo[name]

    def keys(self, config: "PipelineConfig") -> Dict[str, str]:
        """All stage keys under ``config`` (shared memo, one pass)."""
        memo: Dict[str, str] = {}
        for name in self._stages:
            self.key(name, config, memo)
        return memo


class StageRunner:
    """Executes a stage graph through an artifact store.

    Args:
        graph: The stage graph.
        ops: Backend the stage functions run against (holds the config
            and the hardware models).
        store: Artifact store; a fresh memory-only store by default.
    """

    def __init__(self, graph: StageGraph, ops: "PipelineOps",
                 store: Optional[ArtifactStore] = None) -> None:
        self.graph = graph
        self.ops = ops
        self.store = store if store is not None else ArtifactStore()
        #: Stage keys computed so far.  The config is frozen, so one
        #: pass over the dependency tree serves every later ``get``.
        self._keys: Dict[str, str] = {}

    @property
    def config(self) -> "PipelineConfig":
        return self.ops.config

    def key(self, name: str) -> str:
        return self.graph.key(name, self.ops.config, self._keys)

    def get(self, name: str) -> Any:
        """The artifact of ``name``, computing missing prefixes."""
        stage = self.graph[name]

        def compute() -> Any:
            inputs = {dep: self.get(dep) for dep in stage.deps}
            self.ops.log(f"stage {name}: computing")
            value = stage.fn(self.ops, inputs)
            # A stage over a memory-only input (the dataset) trains or
            # runs the network on it, and frees the process's largest
            # temporaries.  glibc keeps freed heap resident while its
            # top free block is under the trim threshold (twice the
            # largest block it has unmapped), so how much a process kept
            # depended on heap layout: ~0 or ~40 MB after the lenet5
            # prefix, run to run.  Only after these stages: the next
            # stage faults the released pages back in, which cost the
            # millisecond accel stages 16-34% of a service job's latency.
            if any(not self.graph[dep].persist for dep in stage.deps):
                _release_freed_heap()
            return value

        return self.store.get_or_compute(self.key(name), compute,
                                         persist=stage.persist)


# ----------------------------------------------------------------------
# the PowerPruning backend
# ----------------------------------------------------------------------
class PipelineOps:
    """Stateless-ish backend the stage functions run against.

    Owns the configuration plus the shared hardware models (cell
    library, MAC netlist, systolic/voltage models), each built from the
    config's hardware backend (see :mod:`repro.hw`) on first use, and
    provides the operations stages compose.  A stage that never reads
    the netlist (the accelerator branch, any cache hit) never builds
    it.  All randomness is seeded from the config, so every operation
    is a pure function of its arguments.
    """

    def __init__(self, config: "PipelineConfig") -> None:
        self.config = config
        self.backend = config.backend

    @cached_property
    def library(self):
        return self.backend.build_library()

    @cached_property
    def mac(self):
        return self.backend.build_mac()

    @cached_property
    def systolic_config(self):
        return self.backend.build_systolic_config()

    @cached_property
    def voltage_model(self):
        return self.backend.build_voltage_model()

    def log(self, message: str) -> None:
        if self.config.verbose:
            print(f"[powerpruner] {message}")

    # -- dataset / model ----------------------------------------------
    def build_dataset(self):
        from repro.data import load_dataset

        config = self.config
        kwargs = {"n_train": config.n_train, "n_test": config.n_test}
        if config.dataset in ("cifar100", "imagenet"):
            kwargs["num_classes"] = config.num_classes
        return load_dataset(config.dataset, **kwargs)

    def build_model(self):
        from repro.models import build_model
        from repro.nn.layers import seed_init

        config = self.config
        seed_init(config.seed)  # bitwise-reproducible initialization
        return build_model(config.network, num_classes=config.num_classes,
                           width_mult=config.width_mult,
                           depth_mult=config.depth_mult)

    def model_from_state(self, state: dict,
                         weight_restriction=None,
                         activation_filter=None):
        """Rebuild a live module from a stage's model record."""
        from repro.nn.restrict import ActivationFilter, WeightRestriction

        model = self.build_model()
        model.load_state_dict(state)
        if weight_restriction is not None:
            model.set_weight_restriction(
                WeightRestriction(weight_restriction))
        if activation_filter is not None:
            model.set_activation_filter(
                ActivationFilter(activation_filter))
        return model

    # -- training ------------------------------------------------------
    def trainer(self, model, epochs: int):
        from repro.nn import Trainer, TrainingConfig

        config = self.config
        decay = tuple(e for e in config.lr_decay_epochs if e < epochs)
        return Trainer(model, TrainingConfig(
            epochs=epochs, batch_size=config.batch_size, lr=config.lr,
            lr_decay_epochs=decay, seed=config.seed, verbose=False))

    def retrain_fn(self, dataset):
        def retrain(model) -> float:
            trainer = self.trainer(model, self.config.retrain_epochs)
            trainer.fit(dataset.x_train, dataset.y_train)
            return trainer.evaluate(dataset.x_test, dataset.y_test)

        return retrain

    # -- characterization ---------------------------------------------
    def collect_statistics(self, model, dataset):
        """Fig. 4 transition statistics from the hottest layers."""
        from repro.systolic import SystolicArray, TransitionStatsCollector

        sample = dataset.x_test[:self.config.stats_batch]
        workloads = extract_workloads(model, sample, self.systolic_config)
        stats = TransitionStatsCollector(
            act_bits=self.systolic_config.act_bits,
            psum_bits=self.systolic_config.psum_bits,
            seed=self.config.seed,
        )
        array = SystolicArray(self.systolic_config)
        hottest = largest_conv_workloads(workloads,
                                         top=self.config.stats_layers)
        for workload in hottest:
            if workload.activations is None:
                continue
            array.run_layer(workload.weights, workload.activations,
                            stats=stats)
        return stats

    def characterize_power(self, stats):
        """Per-weight power table from measured operand statistics.

        ``config.char_jobs`` shards the per-weight simulations across
        processes, each shard batching its weights into one-launch
        megabatch evaluations; both are bit-for-bit identical to the
        serial per-weight loop, which is why ``char_jobs`` takes no
        part in the stage cache key.
        """
        from repro.power import WeightPowerCharacterizer

        act_dist = stats.activation_distribution()
        binned = stats.binned_psum_transitions(n_bins=50,
                                               seed=self.config.seed)
        characterizer = WeightPowerCharacterizer(
            self.mac, self.library, act_dist, binned,
            clock_period_ps=self.systolic_config.clock_period_ps,
            n_samples=self.config.char_samples,
            calibrate_to_uw=self.backend.power_anchor_uw,
        )
        return characterizer.characterize(
            self.config.char_weights(), seed=self.config.seed,
            jobs=getattr(self.config, "char_jobs", 1))

    def characterize_timing(self, candidate_weights: Sequence[int]):
        """Per-weight timing table for the power-selected candidates.

        ``config.char_jobs`` shards the per-weight dynamic timing
        analyses across processes, each shard concatenating its
        weights into flat one-launch DTA streams; each weight
        subsamples its transitions from its own ``(seed, weight)``-keyed
        RNG, so sharding is bit-for-bit neutral and takes no part in
        the stage cache key.
        """
        from repro.timing import WeightDelayProfiler, WeightTimingTable

        profiler = WeightDelayProfiler(self.mac, self.library)
        return WeightTimingTable.characterize(
            profiler, weights=candidate_weights,
            n_transitions=self.config.timing_transitions,
            seed=self.config.seed,
            floor_ps=self.config.timing_floor_ps,
            calibrate_to_ps=self.backend.delay_anchor_ps,
            jobs=getattr(self.config, "char_jobs", 1),
        )

    def recharacterize_filtered(self, allowed_activations, stats,
                                base_table):
        """Power table refined under the activation filter (extension).

        Once activation selection removes values, transitions into or
        out of removed codes can no longer occur, lowering the
        effective switching activity.  The refined table keeps the base
        table's calibration so the numbers stay comparable.
        """
        from repro.power import WeightPowerCharacterizer
        from repro.power.characterization import WeightPowerTable
        from repro.power.transitions import value_to_code

        act_dist = stats.activation_distribution()
        binned = stats.binned_psum_transitions(n_bins=50,
                                               seed=self.config.seed)
        codes = value_to_code(np.asarray(allowed_activations),
                              self.systolic_config.act_bits)
        restricted = act_dist.restricted(codes)
        characterizer = WeightPowerCharacterizer(
            self.mac, self.library, restricted, binned,
            clock_period_ps=self.systolic_config.clock_period_ps,
            n_samples=self.config.char_samples,
            calibrate_to_uw=None,
        )
        table = characterizer.characterize(
            self.config.char_weights(), seed=self.config.seed,
            jobs=getattr(self.config, "char_jobs", 1))
        return WeightPowerTable(
            weights=table.weights,
            power_uw=table.dynamic_uw * base_table.energy_scale
            + table.leakage_uw,
            dynamic_uw=table.dynamic_uw * base_table.energy_scale,
            leakage_uw=table.leakage_uw,
            clock_period_ps=table.clock_period_ps,
            energy_scale=base_table.energy_scale,
        )

    # -- accelerator evaluation ---------------------------------------
    def accel_design(self):
        """``(spec, config)`` of the configured accelerator point.

        The spec's ``None`` geometry resolves against the backend's own
        systolic configuration, mirroring how the stage-key payloads
        (:attr:`PipelineConfig.accel_geometry` / ``accel_point``)
        resolve it.
        """
        from repro.systolic.spec import AcceleratorSpec

        spec = getattr(self.config, "accel", None)
        if spec is None:
            spec = AcceleratorSpec()
        return spec, spec.resolve_config(self.systolic_config)

    # -- measurement ---------------------------------------------------
    def trace_layers(self, model, systolic_config):
        """Every layer's weights and tile schedule on the array.

        Without captured activations these depend only on the input
        shape, so one zero image of the datasets' shape stands in for
        test data and the dataset is never built.
        """
        from repro.data import IMAGE_SHAPE

        sample = np.zeros((1,) + IMAGE_SHAPE, dtype=np.float32)
        return extract_workloads(model, sample, systolic_config,
                                 capture_activations=False)

    def measure_power(self, model, table, vdd=None):
        """(Standard HW, Optimized HW) average power of the network."""
        from repro.systolic import (
            OPTIMIZED_HW,
            STANDARD_HW,
            ArrayPowerModel,
            MacPowerParams,
        )

        workloads = self.trace_layers(model, self.systolic_config)
        power_model = ArrayPowerModel(
            self.systolic_config,
            MacPowerParams(table=table,
                           clock_power_uw=self.config.clock_power_uw),
            voltage_model=self.voltage_model,
        )
        layers = [(w.schedule, w.weights) for w in workloads]
        return (power_model.network_power(layers, STANDARD_HW, vdd=vdd),
                power_model.network_power(layers, OPTIMIZED_HW, vdd=vdd))


# ----------------------------------------------------------------------
# stage implementations
# ----------------------------------------------------------------------
def _stage_dataset(ops: PipelineOps, inputs: Dict[str, Any]):
    return ops.build_dataset()


def _stage_baseline(ops: PipelineOps, inputs: Dict[str, Any]):
    dataset = inputs["dataset"]
    model = ops.build_model()
    trainer = ops.trainer(model, ops.config.baseline_epochs)
    trainer.fit(dataset.x_train, dataset.y_train)
    accuracy = trainer.evaluate(dataset.x_test, dataset.y_test)
    ops.log(f"baseline accuracy {accuracy:.3f}")
    return {"state": model.state_dict(), "accuracy": accuracy}


def _stage_pruned(ops: PipelineOps, inputs: Dict[str, Any]):
    model = ops.model_from_state(inputs["baseline"]["state"])
    sparsities = magnitude_prune(model, ops.config.prune_fraction)
    accuracy = ops.retrain_fn(inputs["dataset"])(model)
    ops.log(f"pruned accuracy {accuracy:.3f}")
    return {"state": model.state_dict(), "accuracy": accuracy,
            "sparsities": sparsities}


def _stage_operand_stats(ops: PipelineOps, inputs: Dict[str, Any]):
    model = ops.model_from_state(inputs["baseline"]["state"])
    return ops.collect_statistics(model, inputs["dataset"])


def _stage_power_table(ops: PipelineOps, inputs: Dict[str, Any]):
    return ops.characterize_power(inputs["operand_stats"])


def _stage_power_selection(ops: PipelineOps, inputs: Dict[str, Any]):
    config = ops.config
    pruned = inputs["pruned"]
    model = ops.model_from_state(pruned["state"])
    outcome = power_threshold_search(
        model, inputs["power_table"],
        ops.retrain_fn(inputs["dataset"]),
        baseline_accuracy=pruned["accuracy"],
        thresholds=config.power_thresholds_uw,
        max_drop=config.power_max_drop,
    )
    ops.log(f"power threshold {outcome.threshold_uw} -> "
            f"{outcome.n_weights} weights, accuracy "
            f"{outcome.accuracy:.3f}")
    restriction = (outcome.allowed_weights
                   if outcome.threshold_uw is not None else None)
    return {"outcome": outcome, "state": model.state_dict(),
            "restriction": restriction}


def _stage_timing_table(ops: PipelineOps, inputs: Dict[str, Any]):
    outcome = inputs["power_selection"]["outcome"]
    return ops.characterize_timing(outcome.allowed_weights)


def _stage_delay_selection(ops: PipelineOps, inputs: Dict[str, Any]):
    config = ops.config
    selected = inputs["power_selection"]
    model = ops.model_from_state(
        selected["state"], weight_restriction=selected["restriction"])
    outcome = delay_threshold_search(
        model, inputs["timing_table"],
        candidate_weights=selected["outcome"].allowed_weights,
        retrain=ops.retrain_fn(inputs["dataset"]),
        original_accuracy=inputs["baseline"]["accuracy"],
        thresholds=config.delay_thresholds_ps,
        max_drop_fraction=config.delay_max_drop_fraction,
        n_restarts=config.n_restarts, seed=config.seed,
    )
    ops.log(f"delay threshold {outcome.threshold_ps} -> "
            f"accuracy {outcome.accuracy:.3f}")
    if outcome.selection is not None:
        weights = outcome.selection.weights
        activations = outcome.selection.activations
    else:
        # No threshold passed: the network keeps the power-selection
        # restriction and stays unfiltered.
        weights = selected["restriction"]
        activations = None
    return {"outcome": outcome, "state": model.state_dict(),
            "weights": weights, "activations": activations}


def _stage_voltage_scaling(ops: PipelineOps, inputs: Dict[str, Any]):
    outcome = inputs["delay_selection"]["outcome"]
    # The paper reads the achieved max delay at its 10 ps search
    # granularity, i.e. the accepted threshold, not the exact
    # surviving-combo maximum.
    achieved = (outcome.threshold_ps if outcome.threshold_ps is not None
                else outcome.max_delay_ps)
    return scale_voltage(achieved, ops.systolic_config.clock_period_ps,
                         ops.voltage_model)


def _stage_power_measurement(ops: PipelineOps, inputs: Dict[str, Any]):
    config = ops.config
    table = inputs["power_table"]
    scaling = inputs["voltage_scaling"]
    selected = inputs["delay_selection"]

    baseline_model = ops.model_from_state(inputs["baseline"]["state"])
    std_orig, opt_orig = ops.measure_power(baseline_model, table)

    pruned_model = ops.model_from_state(inputs["pruned"]["state"])
    std_pruned, opt_pruned = ops.measure_power(pruned_model, table)

    final_model = ops.model_from_state(
        selected["state"],
        weight_restriction=selected["weights"],
        activation_filter=selected["activations"],
    )
    final_table = table
    filtered_table = None
    if (config.refine_power_with_filtered_activations
            and selected["outcome"].selection is not None):
        filtered_table = ops.recharacterize_filtered(
            selected["activations"], inputs["operand_stats"], table)
        final_table = filtered_table
    std_prop, opt_prop = ops.measure_power(final_model, final_table)
    std_vs, opt_vs = ops.measure_power(final_model, final_table,
                                       vdd=scaling.vdd)
    return {
        "std_orig": std_orig, "opt_orig": opt_orig,
        "std_pruned": std_pruned, "opt_pruned": opt_pruned,
        "std_prop": std_prop, "opt_prop": opt_prop,
        "std_prop_vs": std_vs, "opt_prop_vs": opt_vs,
        "filtered_table": filtered_table,
    }


def _stage_report(ops: PipelineOps, inputs: Dict[str, Any]):
    config = ops.config
    power = inputs["power_measurement"]
    power_outcome = inputs["power_selection"]["outcome"]
    delay_outcome = inputs["delay_selection"]["outcome"]
    scaling = inputs["voltage_scaling"]

    if delay_outcome.selection is not None:
        n_weights = delay_outcome.selection.n_weights
        n_acts = delay_outcome.selection.n_activations
    else:
        n_weights = power_outcome.n_weights
        n_acts = 1 << ops.systolic_config.act_bits

    return PowerPruningReport(
        network=config.network,
        dataset=config.dataset,
        accuracy_orig=inputs["baseline"]["accuracy"],
        accuracy_prop=delay_outcome.accuracy,
        power_std_orig=power["std_orig"],
        power_std_prop=power["std_prop"],
        power_std_prop_vs=power["std_prop_vs"],
        power_opt_orig=power["opt_orig"],
        power_opt_prop=power["opt_prop"],
        power_opt_prop_vs=power["opt_prop_vs"],
        n_selected_weights=n_weights,
        n_selected_activations=n_acts,
        max_delay_reduction_ps=scaling.delay_reduction_ps,
        voltage_label=scaling.scaling_factor_label,
        power_threshold_uw=power_outcome.threshold_uw,
        delay_threshold_ps=delay_outcome.threshold_ps,
        extras={"pruned": {
            "accuracy": inputs["pruned"]["accuracy"],
            "power_std": power["std_pruned"],
            "power_opt": power["opt_pruned"],
        }},
    )


def _stage_accel_layers(ops: PipelineOps, inputs: Dict[str, Any]):
    """Every layer of the pruned model: name, weights, matmul shape.

    None of it depends on the array, so every geometry and hardware
    variant shares this one trace.
    """
    model = ops.model_from_state(inputs["pruned"]["state"])
    return [{"name": workload.name, "weights": workload.weights,
             "shape": (workload.schedule.k, workload.schedule.n,
                       workload.schedule.m)}
            for workload in ops.trace_layers(model, ops.systolic_config)]


def _stage_accel_schedule(ops: PipelineOps, inputs: Dict[str, Any]):
    """The traced layers tiled onto the configured array geometry.

    Keyed on the spec's geometry/mapping payload only.  Each layer's
    cycle-weighted occupancy counts are taken here, once: Standard and
    Optimized HW read the same counts, so sweeping the variant axis
    reuses this artifact.
    """
    from repro.systolic.energy import schedule_value_counts
    from repro.systolic.mapping import schedule_matmul

    spec, config = ops.accel_design()
    layers = []
    for layer in inputs["accel_layers"]:
        k, n, m = layer["shape"]
        # Stream `stream_batch` inferences through each stationary tile
        # load; per-inference metrics divide back out later.
        schedule = schedule_matmul(k, n, m * spec.stream_batch, config)
        layers.append({
            "name": layer["name"], "schedule": schedule,
            "counts": schedule_value_counts(schedule, layer["weights"]),
        })
    return {"rows": config.rows, "cols": config.cols,
            "inferences": spec.stream_batch, "layers": layers}


def _stage_accel_eval(ops: PipelineOps, inputs: Dict[str, Any]):
    """Array-level utilization/power/energy/latency of the design point.

    Applies the hardware variant's gating semantics to the cached
    occupancy counts via :class:`~repro.systolic.energy.ArrayPowerModel`,
    at nominal supply and at the ``voltage_scaling`` operating point;
    the network totals combine the layers' nominal powers.  Per-layer
    rows plus a network-level summary; ``latency_us`` / ``energy_uj``
    are per inference (``stream_batch`` divides out).
    """
    from repro.systolic import ArrayPowerModel, MacPowerParams

    spec, config = ops.accel_design()
    variant = spec.hardware_variant()
    vdd = inputs["voltage_scaling"].vdd
    schedule_out = inputs["accel_schedule"]
    inferences = schedule_out["inferences"]
    model = ArrayPowerModel(
        config,
        MacPowerParams(table=inputs["power_table"],
                       clock_power_uw=ops.config.clock_power_uw),
        voltage_model=ops.voltage_model,
    )
    period_s = config.clock_period_ps * 1e-12

    layer_rows = []
    nominal = []
    for layer in schedule_out["layers"]:
        schedule, counts = layer["schedule"], layer["counts"]
        power = model.power_from_counts(counts, variant)
        power_vs = model.power_from_counts(counts, variant, vdd=vdd)
        cycles = schedule.total_cycles
        time_s = cycles * period_s
        layer_rows.append({
            "layer": layer["name"],
            "k": schedule.k, "n": schedule.n, "m": schedule.m,
            "tiles": len(schedule), "cycles": cycles,
            "macs": schedule.total_macs,
            "utilization": schedule.utilization,
            "power": power, "power_vs": power_vs,
            "latency_us": time_s / inferences * 1e6,
            "energy_uj": power.total_uw * time_s / inferences,
            "energy_vs_uj": power_vs.total_uw * time_s / inferences,
        })
        nominal.append((power, cycles))

    power = model.combine(nominal)
    power_vs = model.combine(nominal, vdd=vdd)
    total_cycles = sum(row["cycles"] for row in layer_rows)
    total_macs = sum(row["macs"] for row in layer_rows)
    time_s = total_cycles * period_s
    network = {
        "rows": config.rows, "cols": config.cols,
        "variant": spec.variant, "stream_batch": spec.stream_batch,
        "vdd": vdd,
        "total_cycles": total_cycles, "total_macs": total_macs,
        "utilization": total_macs / (total_cycles * config.n_pes),
        "power": power, "power_vs": power_vs,
        "latency_us": time_s / inferences * 1e6,
        "energy_uj": power.total_uw * time_s / inferences,
        "energy_vs_uj": power_vs.total_uw * time_s / inferences,
    }
    ops.log(f"accel {config.rows}x{config.cols}/{spec.variant}: "
            f"util {network['utilization']:.3f}, "
            f"{network['energy_uj']:.3f} uJ/inference")
    return {"layers": layer_rows, "network": network}


#: Training fields shared by every stage that retrains the network.
_RETRAIN_FIELDS = ("retrain_epochs", "batch_size", "lr",
                   "lr_decay_epochs", "seed")


def build_power_pruning_graph() -> StageGraph:
    """The full PowerPruning flow as a typed stage graph."""
    graph = StageGraph()
    graph.add(Stage(
        "dataset", _stage_dataset,
        fields=("dataset", "num_classes", "n_train", "n_test"),
        # Synthetic data is seed-deterministic and cheap to regenerate;
        # pickling paper-scale arrays to disk would dwarf every other
        # artifact for zero saved work.
        persist=False,
    ))
    graph.add(Stage(
        "baseline", _stage_baseline, deps=("dataset",),
        fields=("network", "num_classes", "width_mult", "depth_mult",
                "baseline_epochs", "batch_size", "lr",
                "lr_decay_epochs", "seed"),
    ))
    graph.add(Stage(
        "pruned", _stage_pruned, deps=("dataset", "baseline"),
        fields=("prune_fraction",) + _RETRAIN_FIELDS,
    ))
    graph.add(Stage(
        "operand_stats", _stage_operand_stats,
        deps=("dataset", "baseline"),
        fields=("stats_batch", "stats_layers", "seed"),
    ))
    graph.add(Stage(
        "power_table", _stage_power_table, deps=("operand_stats",),
        fields=("char_weight_step", "char_samples", "seed"),
        # v2: per-weight child RNG seeding (order/shard independent).
        version="2",
    ))
    graph.add(Stage(
        "power_selection", _stage_power_selection,
        deps=("dataset", "pruned", "power_table"),
        fields=("power_thresholds_uw", "power_max_drop")
        + _RETRAIN_FIELDS,
    ))
    graph.add(Stage(
        "timing_table", _stage_timing_table, deps=("power_selection",),
        fields=("timing_transitions", "timing_floor_ps", "seed"),
        # v2: per-weight child RNG transition subsampling
        # (order/shard independent).
        version="2",
    ))
    graph.add(Stage(
        "delay_selection", _stage_delay_selection,
        deps=("dataset", "baseline", "power_selection", "timing_table"),
        fields=("delay_thresholds_ps", "delay_max_drop_fraction",
                "n_restarts") + _RETRAIN_FIELDS,
    ))
    graph.add(Stage(
        "voltage_scaling", _stage_voltage_scaling,
        deps=("delay_selection",),
    ))
    graph.add(Stage(
        "power_measurement", _stage_power_measurement,
        deps=("baseline", "pruned", "operand_stats",
              "power_table", "delay_selection", "voltage_scaling"),
        fields=("clock_power_uw",
                "refine_power_with_filtered_activations",
                "char_weight_step", "char_samples", "seed"),
    ))
    graph.add(Stage(
        "report", _stage_report,
        deps=("baseline", "pruned", "power_selection", "delay_selection",
              "voltage_scaling", "power_measurement"),
        fields=("network", "dataset"),
    ))
    # Accelerator-evaluation branch.  `accel_geometry`/`accel_point`
    # are the resolved AcceleratorSpec payloads — the ONLY place the
    # design point enters any key, so geometry sweeps share the whole
    # training/characterization prefix and the `accel_layers` trace
    # (their keys identical across array shapes, by construction).
    graph.add(Stage(
        "accel_layers", _stage_accel_layers, deps=("pruned",),
    ))
    graph.add(Stage(
        "accel_schedule", _stage_accel_schedule, deps=("accel_layers",),
        fields=("accel_geometry",),
        # v2: tiles the shared trace and stores occupancy counts, not
        # weights.  v3: a schedule pickles as its grid (config, k, n,
        # m); v2 artifacts name a tile class that no longer exists.
        version="3",
    ))
    graph.add(Stage(
        "accel_eval", _stage_accel_eval,
        deps=("accel_schedule", "power_table", "voltage_scaling"),
        fields=("accel_point", "clock_power_uw"),
        # v2: power from the stored counts.
        version="2",
    ))
    return graph
