"""Declarative sweep engine over backends × networks × thresholds × seeds.

The paper's headline results are sweeps — the Fig. 8/9 threshold curves
and the Table I trade-off — and the :mod:`repro.hw` registry multiplies
every one of them by a backend axis.  Instead of each figure hand-rolling
its own loop, a :class:`SweepSpec` declares the grid, :func:`expand`
turns it into a deduplicated list of :class:`SweepPoint` tasks, and
:func:`run_sweep` flattens those into the
:func:`~repro.experiments.parallel.parallel_map` process pool.

The ``accel`` experiment swaps the threshold axis for the accelerator
design space: ``array_shapes x hw_variants``
(:class:`~repro.systolic.spec.AcceleratorSpec` points evaluated by the
``accel_*`` pipeline stages).  Accelerator points key only the
``accel_*`` stage keys, so every design point of one (backend, network,
seed) shares the whole training/characterization prefix and the
``accel_layers`` trace of the pruned model — and Standard vs Optimized
HW of one geometry additionally share the ``accel_schedule`` tile
counts.

Caching makes the grid cheap where it overlaps:

* every pipeline stage is content-addressed (see
  :mod:`repro.core.stages`), so grid points that differ only in their
  threshold share the whole training/characterization prefix — computed
  once per (backend, network, seed), not once per grid point;
* on top of that, each finished grid point is itself stored under a
  sweep-level key (:func:`point_cache_key`), so re-running a sweep — or
  a larger sweep containing it — skips even the per-point retraining;
* tasks are scheduled round-robin across (backend, network, seed)
  prefix groups, so parallel workers warm *different* prefixes instead
  of racing to compute the same one.

``fig8``/``fig9``/``table1``/``backends`` are thin adapters over this
module; the ``sweep`` CLI subcommand exposes the full grid directly
(``python -m repro sweep --help``), including multi-backend overlays
the per-figure mains cannot express.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.artifacts import ArtifactStore, hash_key
from repro.core.pipeline import POWER_PRUNING_GRAPH, PipelineConfig
from repro.core.stages import shared_stage_keys
from repro.experiments.config import (
    NETWORK_SPECS,
    NetworkSpec,
    pipeline_config,
)
from repro.experiments.parallel import (
    ParallelTaskError,
    default_jobs,
    parallel_map,
)
from repro.experiments.runner import (
    TIMING_CANDIDATES_VERSION,
    ExperimentContext,
)
from repro.experiments.stats import (
    AggregateRow,
    aggregate_cell,
    aggregate_rows,
)
from repro.hw import DEFAULT_BACKEND_ID, HardwareBackend, get_backend
from repro.systolic.spec import (
    AcceleratorSpec,
    normalize_variant,
    parse_array_shape,
)

__all__ = [
    "SweepSpec",
    "SweepPoint",
    "SweepRow",
    "SweepResult",
    "AggregateRow",
    "make_sweep_spec",
    "load_sweep_file",
    "load_spec_mapping",
    "sweep_spec_from_mapping",
    "expand",
    "point_config",
    "point_cache_key",
    "run_sweep",
    "format_sweep",
    "fig9_weight_threshold",
    "resolve_network",
    "sweep_experiments",
]

#: Default threshold axes, matching the paper's figures.
DEFAULT_THRESHOLDS: Dict[str, Tuple[Optional[float], ...]] = {
    "table1": (None,),
    "fig8": (None, 900.0, 850.0, 825.0, 800.0),
    "fig9": (180.0, 170.0, 160.0, 150.0, 140.0),
}

#: Experiments without a threshold axis.
_NO_THRESHOLD_EXPERIMENTS = ("table1", "accel")

#: Default hardware-variant axis of the ``accel`` experiment — the
#: paper's Standard vs Optimized HW comparison.
DEFAULT_HW_VARIANTS: Tuple[str, ...] = ("standard", "optimized")

#: The hardware-independent-per-threshold prefix of the stage graph:
#: grid points that differ only in their threshold axis share these
#: stages' cache keys by construction.
SHARED_PREFIX_STAGES: Tuple[str, ...] = (
    "dataset", "baseline", "pruned", "operand_stats", "power_table",
)


def fig9_weight_threshold(spec: NetworkSpec, scale: str) -> float:
    """825 µW for the CIFAR networks, 900 µW for EfficientNet (paper).

    At smoke scale only every 16th weight value is characterized, so the
    paper's 825 µW would leave too few values to train at all; the sweep
    then uses the looser 900 µW point (the delay axis is what Fig. 9
    studies).
    """
    if scale == "smoke" or spec.network == "efficientnet-b0-lite":
        return 900.0
    return 825.0


def resolve_network(name: Union[str, NetworkSpec]) -> NetworkSpec:
    """A :class:`NetworkSpec` from a spec, network name, or row label."""
    if isinstance(name, NetworkSpec):
        return name
    lowered = str(name).lower()
    for spec in NETWORK_SPECS:
        if lowered in (spec.network.lower(), spec.label.lower()):
            return spec
    choices = sorted(spec.network for spec in NETWORK_SPECS)
    raise ValueError(f"unknown network {name!r}; choose from {choices}")


# ----------------------------------------------------------------------
# grid declaration and expansion
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepSpec:
    """One declarative sweep grid (already normalized).

    Build via :func:`make_sweep_spec` (or :func:`load_sweep_file`),
    which validates the experiment, resolves network names, applies the
    per-experiment threshold rules and deduplicates every axis.
    """

    experiment: str
    backends: Tuple[Union[str, HardwareBackend], ...] = (
        DEFAULT_BACKEND_ID,)
    networks: Tuple[NetworkSpec, ...] = (NETWORK_SPECS[0],)
    thresholds: Tuple[Optional[float], ...] = (None,)
    seeds: Tuple[int, ...] = (0,)
    scale: str = "ci"
    #: Accelerator axes (``accel`` experiment only): array geometries
    #: (``None`` = the backend's own), hardware variants, and the
    #: mapping knob applied to every design point.
    array_shapes: Tuple[Optional[Tuple[int, int]], ...] = (None,)
    hw_variants: Tuple[str, ...] = ("standard",)
    stream_batch: int = 1

    def describe(self) -> str:
        line = (f"{self.experiment} | scale {self.scale} | "
                f"{len(self.backends)} backend(s) x "
                f"{len(self.networks)} network(s) x ")
        if self.experiment == "accel":
            line += (f"{len(self.array_shapes)} shape(s) x "
                     f"{len(self.hw_variants)} variant(s) x ")
        else:
            line += f"{len(self.thresholds)} threshold(s) x "
        line += f"{len(self.seeds)} seed(s)"
        return line


def make_sweep_spec(experiment: str,
                    backends: Optional[Sequence] = None,
                    networks: Optional[Sequence] = None,
                    thresholds: Optional[
                        Sequence[Optional[float]]] = None,
                    seeds: Optional[Sequence[int]] = None,
                    scale: str = "ci",
                    array_shapes: Optional[Sequence] = None,
                    hw_variants: Optional[Sequence[str]] = None,
                    stream_batch: int = 1) -> SweepSpec:
    """Validate and normalize a sweep grid.

    Args:
        experiment: One of :func:`sweep_experiments`.
        backends: Registry ids and/or :class:`HardwareBackend` specs.
        networks: :class:`NetworkSpec` objects, network names or labels.
        thresholds: Power thresholds in µW for ``fig8`` (``None`` = no
            restriction), delay thresholds in ps for ``fig9`` (sorted
            descending, as the paper sweeps them); ``table1`` and
            ``accel`` have no threshold axis.
        seeds: Pipeline seeds.
        scale: Experiment scale (``smoke``/``ci``/``paper``).
        array_shapes: ``accel`` only — array geometries, in any
            spelling :func:`~repro.systolic.spec.parse_array_shape`
            accepts (``"32x32"``, ``(32, 32)``, ``None`` = the
            backend's own geometry).  Default: the backend geometry.
        hw_variants: ``accel`` only — hardware variants
            (``standard``/``optimized``).  Default: both.
        stream_batch: ``accel`` only — inferences streamed per
            stationary tile load, applied to every design point.
    """
    if experiment not in _POINT_RUNNERS:
        raise ValueError(f"unknown sweep experiment {experiment!r}; "
                         f"choose from {sweep_experiments()}")
    backend_axis = tuple(dict.fromkeys(
        backends if backends else (DEFAULT_BACKEND_ID,)))
    network_axis = tuple(dict.fromkeys(
        resolve_network(n)
        for n in (networks if networks else (NETWORK_SPECS[0],))))
    seed_axis = tuple(dict.fromkeys(
        int(s) for s in (seeds if seeds is not None else (0,))))
    if not seed_axis:
        raise ValueError("at least one seed is required")

    if experiment in _NO_THRESHOLD_EXPERIMENTS:
        if thresholds not in (None, (), (None,)) \
                and tuple(thresholds) != (None,):
            raise ValueError(f"{experiment} has no threshold axis")
        threshold_axis: Tuple[Optional[float], ...] = (None,)
    else:
        given = (tuple(thresholds) if thresholds
                 else DEFAULT_THRESHOLDS[experiment])
        normalized = tuple(
            None if t is None else float(t) for t in given)
        if experiment == "fig9":
            if any(t is None for t in normalized):
                raise ValueError(
                    "fig9 delay thresholds must be numbers (ps)")
            normalized = tuple(sorted(set(normalized), reverse=True))
        else:
            normalized = tuple(dict.fromkeys(normalized))
        if not normalized:
            raise ValueError("at least one threshold is required")
        threshold_axis = normalized

    if experiment == "accel":
        shape_axis = tuple(dict.fromkeys(
            parse_array_shape(s)
            for s in (array_shapes if array_shapes else (None,))))
        variant_axis = tuple(dict.fromkeys(
            normalize_variant(v)
            for v in (hw_variants if hw_variants
                      else DEFAULT_HW_VARIANTS)))
        if int(stream_batch) < 1:
            raise ValueError("stream_batch must be >= 1")
    else:
        # The normalized defaults round-trip (a non-accel SweepSpec's
        # own fields fed back in); anything else is a real axis request
        # on an experiment that has no such axis.
        if array_shapes and tuple(array_shapes) != (None,):
            raise ValueError(
                "array_shapes is an accel-only axis; use "
                "experiment='accel'")
        if hw_variants and tuple(hw_variants) != ("standard",):
            raise ValueError(
                "hw_variants is an accel-only axis; use "
                "experiment='accel'")
        if int(stream_batch) != 1:
            raise ValueError("stream_batch is an accel-only knob")
        shape_axis = (None,)
        variant_axis = ("standard",)

    return SweepSpec(experiment=experiment, backends=backend_axis,
                     networks=network_axis, thresholds=threshold_axis,
                     seeds=seed_axis, scale=scale,
                     array_shapes=shape_axis, hw_variants=variant_axis,
                     stream_batch=int(stream_batch))


def sweep_spec_from_mapping(data: Mapping[str, Any],
                            source: str = "sweep spec") -> SweepSpec:
    """A :class:`SweepSpec` from an already-parsed JSON/TOML mapping.

    The single validator behind :func:`load_sweep_file` and the
    experiment service's ``POST /sweeps`` body — both accept exactly
    the same keys: ``experiment`` (required), ``backends``,
    ``networks``, ``thresholds`` (``null``/``"none"`` entries mean "no
    restriction" for fig8), ``seeds``, ``scale``, plus the
    accel-only axes ``array_shapes`` (``"32x32"``-style strings or
    ``[rows, cols]`` pairs; ``null``/``"hw"`` = the backend's own
    geometry), ``hw_variants`` and ``stream_batch``.
    """
    if not isinstance(data, Mapping) or "experiment" not in data:
        raise ValueError(
            f"{source} must be a table/object with an "
            f"'experiment' key")
    known = {"experiment", "backends", "networks", "thresholds",
             "seeds", "scale", "array_shapes", "hw_variants",
             "stream_batch"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown sweep spec keys {unknown}; "
                         f"recognized: {sorted(known)}")
    thresholds = data.get("thresholds")
    if thresholds is not None:
        thresholds = [None if isinstance(t, str)
                      and t.lower() == "none" else t
                      for t in thresholds]
    return make_sweep_spec(
        data["experiment"],
        backends=data.get("backends"),
        networks=data.get("networks"),
        thresholds=thresholds,
        seeds=data.get("seeds"),
        scale=data.get("scale", "ci"),
        array_shapes=data.get("array_shapes"),
        hw_variants=data.get("hw_variants"),
        stream_batch=data.get("stream_batch", 1),
    )


def load_spec_mapping(path) -> Dict[str, Any]:
    """The raw mapping of a JSON/TOML spec file (shared parser)."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".toml":
        import tomllib

        data = tomllib.loads(text)
    else:
        data = json.loads(text)
    if not isinstance(data, Mapping):
        raise ValueError(
            f"spec file {str(path)!r} must contain a table/object")
    return dict(data)


def load_sweep_file(path) -> SweepSpec:
    """A :class:`SweepSpec` from a small JSON or TOML file.

    See :func:`sweep_spec_from_mapping` for the recognized keys.
    """
    return sweep_spec_from_mapping(
        load_spec_mapping(path),
        source=f"sweep spec {str(path)!r}")


@dataclass(frozen=True)
class SweepPoint:
    """One fully resolved grid point, picklable for worker dispatch."""

    experiment: str
    backend: HardwareBackend
    spec: NetworkSpec
    threshold: Optional[float]
    seed: int
    scale: str
    #: Accelerator design point (``accel`` experiment only), resolved
    #: against the backend's geometry at expansion time.
    accel: Optional[AcceleratorSpec] = None

    def describe(self) -> str:
        threshold = ("-" if self.threshold is None
                     else f"{self.threshold:g}")
        accel = ("" if self.accel is None
                 else f" accel={self.accel.describe()}")
        return (f"{self.experiment} point [network={self.spec.label} "
                f"backend={self.backend.backend_id} "
                f"threshold={threshold}{accel} seed={self.seed} "
                f"scale={self.scale}]")

    def key(self) -> str:
        """Grid identity — unique per distinct point, stable across
        runs; used for deduplication and the property tests."""
        return hash_key({
            "sweep_point": self.experiment,
            "backend": self.backend.key_payload(),
            "network": self.spec.network,
            "dataset": self.spec.dataset,
            "num_classes": self.spec.num_classes,
            "threshold": self.threshold,
            "accel": (None if self.accel is None
                      else self.accel.key_payload()),
            "seed": self.seed,
            "scale": self.scale,
        })


def expand(sweep: SweepSpec) -> List[SweepPoint]:
    """The deduplicated task list of a sweep grid.

    Expansion order is deterministic — backends, then networks, then
    seeds, then thresholds / accelerator points (innermost) — so points
    sharing a training prefix are contiguous and results group
    naturally per panel.  Accelerator specs are resolved against each
    backend's geometry before dedup, so an explicit shape equal to the
    backend default collapses into one point.
    """
    backends = tuple(
        b if isinstance(b, HardwareBackend) else get_backend(b)
        for b in sweep.backends)
    points: List[SweepPoint] = []
    seen = set()
    for backend in backends:
        if sweep.experiment == "accel":
            base = backend.build_systolic_config()
            accel_axis = [
                AcceleratorSpec(
                    rows=None if shape is None else shape[0],
                    cols=None if shape is None else shape[1],
                    variant=variant,
                    stream_batch=sweep.stream_batch,
                ).resolved(base)
                for shape in sweep.array_shapes
                for variant in sweep.hw_variants
            ]
        else:
            accel_axis = [None]
        for spec in sweep.networks:
            for seed in sweep.seeds:
                for threshold in sweep.thresholds:
                    for accel in accel_axis:
                        point = SweepPoint(
                            experiment=sweep.experiment,
                            backend=backend, spec=spec,
                            threshold=threshold, seed=seed,
                            scale=sweep.scale, accel=accel)
                        key = point.key()
                        if key not in seen:
                            seen.add(key)
                            points.append(point)
    return points


def point_config(point: SweepPoint, char_jobs: int = 1,
                 verbose: bool = False) -> PipelineConfig:
    """The pipeline config one grid point runs under."""
    return pipeline_config(point.spec, point.scale, seed=point.seed,
                           verbose=verbose, backend=point.backend,
                           char_jobs=char_jobs, accel=point.accel)


#: Config fields that never influence results and must therefore never
#: enter a cache key (sharding is bit-for-bit; the backend is hashed via
#: its full spec payload instead of its registry id).
_NON_KEY_FIELDS = ("backend", "char_jobs", "verbose")


def point_cache_key(point: SweepPoint, config: PipelineConfig) -> str:
    """Sweep-level cache key of one grid point's finished result.

    Hashes the experiment, the point's threshold, the full backend spec
    and every result-relevant config field, so a re-run (or a larger
    sweep containing this point) reuses the finished row — including
    its per-threshold retraining, which is not a pipeline stage of its
    own.  The stage graph's fingerprint and the candidate timing-table
    version cover the code that computed the row: bumping a stage
    version or rewiring a stage invalidates every finished row.
    """
    return hash_key({
        "stage": f"sweep/{point.experiment}",
        "version": "1",
        "graph": POWER_PRUNING_GRAPH.fingerprint(),
        "timing_candidates": TIMING_CANDIDATES_VERSION,
        "backend": config.backend.key_payload(),
        "threshold": point.threshold,
        "config": {f.name: getattr(config, f.name)
                   for f in dataclass_fields(config)
                   if f.name not in _NON_KEY_FIELDS},
    })


def shared_prefix_count(points: Sequence[SweepPoint]) -> int:
    """Distinct training/characterization prefixes across the grid.

    Counts unique key tuples of :data:`SHARED_PREFIX_STAGES` — the
    number of times the expensive prefix actually runs when every grid
    point shares one artifact store.
    """
    prefixes = set()
    for point in points:
        keys = shared_stage_keys(point_config(point),
                                 SHARED_PREFIX_STAGES)
        prefixes.add(tuple(keys[name] for name in SHARED_PREFIX_STAGES))
    return len(prefixes)


# ----------------------------------------------------------------------
# point execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepRow:
    """One grid point's tidy outcome."""

    experiment: str
    backend_id: str
    network: str
    threshold: Optional[float]
    seed: int
    scale: str
    #: Experiment-specific result record (report object or metric
    #: dict); ``None`` when the point was skipped.
    payload: Any
    #: Flat numeric metrics for tables/charts/CSV.
    metrics: Mapping[str, float]
    #: Reason the point produced no result (e.g. too few survivors).
    skipped: Optional[str] = None
    #: Whether the finished row was served from the artifact store
    #: (memory or disk) instead of being computed.
    cached: bool = False
    #: Accelerator design-point label (``accel`` sweeps), e.g.
    #: ``"64x64/optimized"``; ``None`` for threshold experiments.
    accel: Optional[str] = None


def _point_table1(point: SweepPoint, context: ExperimentContext
                  ) -> Dict[str, Any]:
    report = context.report()
    return {
        "payload": report,
        "metrics": {
            "accuracy_orig": report.accuracy_orig,
            "accuracy_prop": report.accuracy_prop,
            "power_opt_orig_mw": report.power_opt_orig.total_uw / 1000,
            "power_opt_prop_vs_mw":
                report.power_opt_prop_vs.total_uw / 1000,
            "reduction_opt_pct": report.reduction_opt,
            "n_weights": report.n_selected_weights,
            "n_activations": report.n_selected_activations,
            "delay_reduction_ps": report.max_delay_reduction_ps,
        },
        "skipped": None,
    }


def _point_fig8(point: SweepPoint, context: ExperimentContext
                ) -> Dict[str, Any]:
    from repro.nn.restrict import WeightRestriction

    table = context.power_table
    model = context.reset_model()
    if point.threshold is None:
        allowed = table.weights.copy()
        accuracy = context.accuracy_pruned
    else:
        allowed = table.select_below(point.threshold)
        if allowed.size < 2:
            return {"payload": None, "metrics": {},
                    "skipped": f"only {allowed.size} weight value(s) at "
                               f"or below {point.threshold:g} uW"}
        model.set_weight_restriction(WeightRestriction(allowed))
        accuracy = context.retrain(model)
    __, power_opt = context.measure_power(model)
    return {
        "payload": {
            "threshold_uw": point.threshold,
            "n_weights": int(allowed.size),
            "accuracy": accuracy,
            "power_opt": power_opt,
        },
        "metrics": {
            "accuracy": accuracy,
            "n_weights": int(allowed.size),
            "power_opt_mw": power_opt.total_uw / 1000,
            "power_dyn_mw": power_opt.dynamic_uw / 1000,
            "power_leak_mw": power_opt.leakage_uw / 1000,
        },
        "skipped": None,
    }


def _point_fig9(point: SweepPoint, context: ExperimentContext
                ) -> Dict[str, Any]:
    from repro.nn.restrict import ActivationFilter, WeightRestriction
    from repro.timing.selection import DelaySelector

    power_table = context.power_table
    candidates = power_table.select_below(
        fig9_weight_threshold(point.spec, point.scale))
    timing_table = context.timing_table(candidates)
    selector = DelaySelector(timing_table,
                             n_restarts=context.config.n_restarts)
    selection = selector.select(point.threshold,
                                candidate_weights=candidates,
                                seed=point.seed)
    if selection.n_weights < 2:
        return {"payload": None, "metrics": {},
                "skipped": f"only {selection.n_weights} weight value(s) "
                           f"survive {point.threshold:g} ps"}
    model = context.reset_model()
    model.set_weight_restriction(WeightRestriction(selection.weights))
    model.set_activation_filter(ActivationFilter(selection.activations))
    accuracy = context.retrain(model)
    return {
        "payload": {
            "threshold_ps": point.threshold,
            "n_weights": selection.n_weights,
            "n_activations": selection.n_activations,
            "accuracy": accuracy,
        },
        "metrics": {
            "accuracy": accuracy,
            "n_weights": selection.n_weights,
            "n_activations": selection.n_activations,
        },
        "skipped": None,
    }


def _point_accel(point: SweepPoint, context: ExperimentContext
                 ) -> Dict[str, Any]:
    evaluation = context.accel_eval()
    network = evaluation["network"]
    return {
        "payload": evaluation,
        "metrics": {
            "utilization_pct": network["utilization"] * 100.0,
            "power_mw": network["power"].total_uw / 1000,
            "power_dyn_mw": network["power"].dynamic_uw / 1000,
            "power_leak_mw": network["power"].leakage_uw / 1000,
            "power_vs_mw": network["power_vs"].total_uw / 1000,
            "latency_us": network["latency_us"],
            "energy_uj": network["energy_uj"],
            "energy_vs_uj": network["energy_vs_uj"],
            "total_cycles": network["total_cycles"],
        },
        "skipped": None,
    }


#: Registered per-point runners; the mapping's keys are the valid sweep
#: experiments (tests may register synthetic ones).
_POINT_RUNNERS: Dict[str, Callable[[SweepPoint, ExperimentContext],
                                   Dict[str, Any]]] = {
    "table1": _point_table1,
    "fig8": _point_fig8,
    "fig9": _point_fig9,
    "accel": _point_accel,
}


def sweep_experiments() -> Tuple[str, ...]:
    """Experiments the sweep engine can run."""
    return tuple(sorted(_POINT_RUNNERS))


def _execute_point(point: SweepPoint, context: ExperimentContext
                   ) -> SweepRow:
    """Run (or fetch) one grid point through the artifact store."""
    runner = _POINT_RUNNERS[point.experiment]
    key = point_cache_key(point, context.config)
    cached = key in context.store
    outcome = context.store.get_or_compute(
        key, lambda: runner(point, context))
    return SweepRow(
        experiment=point.experiment,
        backend_id=point.backend.backend_id,
        network=point.spec.label,
        threshold=point.threshold,
        seed=point.seed,
        scale=point.scale,
        payload=outcome["payload"],
        metrics=dict(outcome["metrics"]),
        skipped=outcome["skipped"],
        cached=cached,
        accel=(None if point.accel is None
               else point.accel.describe()),
    )


@dataclass(frozen=True)
class PointTask:
    """One grid point plus worker-side context knobs (picklable)."""

    point: SweepPoint
    cache_dir: Optional[str]
    char_jobs: int
    verbose: bool

    def describe(self) -> str:
        return self.point.describe()


def _run_point(task: PointTask) -> SweepRow:
    point = task.point
    context = ExperimentContext(point.spec, point.scale,
                                seed=point.seed, verbose=task.verbose,
                                cache_dir=task.cache_dir,
                                backend=point.backend,
                                char_jobs=task.char_jobs,
                                accel=point.accel)
    return _execute_point(point, context)


def _scheduled_order(points: Sequence[SweepPoint]) -> List[int]:
    """Round-robin permutation across (backend, network, seed) groups.

    Contiguous same-prefix points would make parallel workers race to
    compute the same training prefix; interleaving the groups lets each
    worker warm a different prefix, after which the remaining points of
    every group are cache hits.
    """
    groups: Dict[Tuple, List[int]] = {}
    for index, point in enumerate(points):
        group = (point.backend.backend_id, point.spec.label, point.seed,
                 point.scale)
        groups.setdefault(group, []).append(index)
    queues = list(groups.values())
    order: List[int] = []
    while queues:
        queues = [q for q in queues if q]
        for queue in queues:
            if queue:
                order.append(queue.pop(0))
    return order


class _ProgressReporter:
    """Streams a done/cached/remaining line per finished grid point.

    Lines go to ``stderr`` so the stdout result tables stay parseable;
    the end-of-run totals additionally land in :func:`format_sweep`.
    """

    def __init__(self, total: int, stream=None) -> None:
        self.total = total
        self.done = 0
        self.cached = 0
        self.stream = stream if stream is not None else sys.stderr

    def start(self, sweep: SweepSpec, precached: Optional[int],
              jobs: int) -> None:
        line = (f"sweep: {sweep.describe()} -> {self.total} grid "
                f"point(s)")
        if precached is not None:
            line += f", {precached} already in the artifact store"
        if jobs > 1:
            line += f", {jobs} workers"
        print(line, file=self.stream, flush=True)

    def finished(self, point: SweepPoint, row: SweepRow) -> None:
        self.done += 1
        self.cached += 1 if row.cached else 0
        status = "cached" if row.cached else "computed"
        if row.skipped is not None:
            status += ", skipped"
        print(f"  [{self.done}/{self.total}] {point.describe()} "
              f"- {status} ({self.cached} from cache, "
              f"{self.total - self.done} remaining)",
              file=self.stream, flush=True)


def _precached_count(points: Sequence[SweepPoint], cache: Optional[str],
                     store: Optional[ArtifactStore],
                     char_jobs: int) -> Optional[int]:
    """How many grid points the artifact store can already serve.

    Probes the sweep-level point keys in the given store (or a throwaway
    view of the on-disk cache); ``None`` when there is nowhere to look.
    """
    if store is None:
        if cache is None:
            return None
        store = ArtifactStore(cache)
    return sum(
        1 for point in points
        if point_cache_key(point,
                           point_config(point, char_jobs)) in store)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class SweepResult:
    """All grid rows (expansion order) plus cache statistics."""

    sweep: SweepSpec
    rows: List[SweepRow]
    #: Artifact-store counters; populated for in-process (serial) runs,
    #: ``None`` when workers owned their stores.
    cache_hits: Optional[int] = None
    cache_misses: Optional[int] = None
    shared_prefixes: int = 0

    def rows_for(self, backend_id: Optional[str] = None,
                 network: Optional[str] = None,
                 seed: Optional[int] = None) -> List[SweepRow]:
        return [row for row in self.rows
                if (backend_id is None or row.backend_id == backend_id)
                and (network is None or row.network == network)
                and (seed is None or row.seed == seed)]

    def aggregate(self) -> List[AggregateRow]:
        """Rows reduced over the seed axis (see
        :mod:`repro.experiments.stats`): one :class:`AggregateRow` per
        ``(backend, network, threshold)`` group, carrying mean / std /
        min / max / n for every numeric metric.  Single-seed groups
        pass their metric values through bit-identically."""
        return aggregate_rows(self.rows)

    def tidy(self) -> List[Dict[str, Any]]:
        """One flat dict per grid point — ready for CSV/dataframes."""
        records = []
        for row in self.rows:
            record: Dict[str, Any] = {
                "experiment": row.experiment,
                "backend": row.backend_id,
                "network": row.network,
                "threshold": row.threshold,
                "accel": row.accel or "",
                "seed": row.seed,
                "scale": row.scale,
                "skipped": row.skipped or "",
                "cached": int(row.cached),
            }
            record.update(row.metrics)
            records.append(record)
        return records

    def tidy_aggregated(self) -> List[Dict[str, Any]]:
        """One flat dict per seed group — the mean±std view.

        Columns: the grid identity (seed axis collapsed to ``seeds``),
        ``n_seeds``/``n_skipped``, then ``<metric>_mean``,
        ``<metric>_std``, ``<metric>_min`` and ``<metric>_max`` per
        numeric metric.
        """
        records = []
        for agg in self.aggregate():
            record: Dict[str, Any] = {
                "experiment": agg.experiment,
                "backend": agg.backend_id,
                "network": agg.network,
                "threshold": agg.threshold,
                "accel": agg.accel or "",
                "scale": agg.scale,
                "seeds": ";".join(str(s) for s in agg.seeds),
                "n_seeds": agg.n_seeds,
                "n_skipped": agg.n_skipped,
                "skipped": agg.skipped or "",
            }
            for name in agg.metrics_mean:
                record[f"{name}_mean"] = agg.metrics_mean[name]
                record[f"{name}_std"] = agg.metrics_std[name]
                record[f"{name}_min"] = agg.metrics_min[name]
                record[f"{name}_max"] = agg.metrics_max[name]
            records.append(record)
        return records

    def write_csv(self, path, aggregated: bool = False) -> None:
        records = (self.tidy_aggregated() if aggregated
                   else self.tidy())
        columns: List[str] = []
        for record in records:
            for name in record:
                if name not in columns:
                    columns.append(name)
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=columns,
                                    restval="")
            writer.writeheader()
            writer.writerows(records)


def _threshold_label(threshold: Optional[float]) -> str:
    return "None" if threshold is None else f"{threshold:g}"


def _series_label(row: SweepRow, many_seeds: bool,
                  many_networks: bool = False) -> str:
    """Overlay series identity of a row.

    The network is part of the label whenever the charted rows span
    more than one network — without it, same-backend rows of distinct
    networks collapse into one colliding series.
    """
    label = row.backend_id
    if many_networks:
        label += f" {row.network}"
    if many_seeds:
        label += f" s{row.seed}"
    return label


def _format_cell(value: float, fmt: str, scale: float) -> str:
    scaled = value * scale
    if fmt.endswith("d"):
        return format(int(round(scaled)), fmt)
    return format(scaled, fmt)


def _metric_matrix(rows: Sequence[SweepRow], metric: str, title: str,
                   fmt: str, scale: float = 1.0) -> List[str]:
    """Per-backend overlay: one line per backend (series), one column
    per threshold — the figure panel as a text chart."""
    thresholds = list(dict.fromkeys(row.threshold for row in rows))
    many_seeds = len({row.seed for row in rows}) > 1
    many_networks = len({row.network for row in rows}) > 1
    series = list(dict.fromkeys(
        _series_label(row, many_seeds, many_networks) for row in rows))
    width = max(8, max(len(_threshold_label(t)) for t in thresholds) + 2)
    label_width = max(len(s) for s in series)
    lines = [title,
             " " * label_width + " |" + "".join(
                 f"{_threshold_label(t):>{width}}" for t in thresholds)]
    for name in series:
        cells = []
        for threshold in thresholds:
            cell = "-"
            for row in rows:
                if (_series_label(row, many_seeds, many_networks)
                        == name and row.threshold == threshold):
                    if row.skipped is None and metric in row.metrics:
                        cell = _format_cell(row.metrics[metric], fmt,
                                            scale)
                    break
            cells.append(f"{cell:>{width}}")
        lines.append(f"{name:<{label_width}} |" + "".join(cells))
    return lines


def _aggregate_series_label(agg: AggregateRow,
                            many_networks: bool) -> str:
    return (f"{agg.backend_id} {agg.network}" if many_networks
            else agg.backend_id)


def _aggregate_matrix(aggregates: Sequence[AggregateRow], metric: str,
                      title: str, fmt: str,
                      scale: float = 1.0) -> List[str]:
    """Error-band overlay: one ``mean±std`` cell per (series,
    threshold), the std band computed over the seed axis."""
    thresholds = list(dict.fromkeys(a.threshold for a in aggregates))
    many_networks = len({a.network for a in aggregates}) > 1
    series = list(dict.fromkeys(
        _aggregate_series_label(a, many_networks) for a in aggregates))
    cells: Dict[Tuple[str, Optional[float]], str] = {}
    for agg in aggregates:
        slot = (_aggregate_series_label(agg, many_networks),
                agg.threshold)
        cells.setdefault(slot, aggregate_cell(agg, metric, fmt, scale))
    width = max(10, max(len(c) for c in cells.values()) + 2) \
        if cells else 10
    width = max(width,
                max(len(_threshold_label(t)) for t in thresholds) + 2)
    label_width = max(len(s) for s in series)
    lines = [title,
             " " * label_width + " |" + "".join(
                 f"{_threshold_label(t):>{width}}" for t in thresholds)]
    for name in series:
        row_cells = [f"{cells.get((name, t), '-'):>{width}}"
                     for t in thresholds]
        lines.append(f"{name:<{label_width}} |" + "".join(row_cells))
    return lines


def _accel_shape(label: Optional[str]) -> str:
    """The geometry part of an accel row label (``64x64/optimized`` →
    ``64x64``)."""
    return (label or "-").split("/")[0]


def _accel_variant(label: Optional[str]) -> str:
    """The variant part of an accel row label."""
    parts = (label or "-").split("/")
    return parts[1] if len(parts) > 1 else "-"


def _accel_matrix(rows: Sequence[SweepRow], metric: str, title: str,
                  fmt: str, scale: float = 1.0) -> List[str]:
    """Design-space overlay: one line per hardware variant (series),
    one column per array shape — the accelerator counterpart of
    :func:`_metric_matrix`."""
    shapes = list(dict.fromkeys(_accel_shape(row.accel)
                                for row in rows))
    many_backends = len({row.backend_id for row in rows}) > 1
    many_networks = len({row.network for row in rows}) > 1
    many_seeds = len({row.seed for row in rows}) > 1

    def series(row: SweepRow) -> str:
        label = _accel_variant(row.accel)
        if many_backends:
            label = f"{row.backend_id} {label}"
        if many_networks:
            label += f" {row.network}"
        if many_seeds:
            label += f" s{row.seed}"
        return label

    names = list(dict.fromkeys(series(row) for row in rows))
    width = max(10, max(len(s) for s in shapes) + 2)
    label_width = max(len(s) for s in names)
    lines = [title,
             " " * label_width + " |" + "".join(
                 f"{s:>{width}}" for s in shapes)]
    for name in names:
        cells = []
        for shape in shapes:
            cell = "-"
            for row in rows:
                if (series(row) == name
                        and _accel_shape(row.accel) == shape):
                    if row.skipped is None and metric in row.metrics:
                        cell = _format_cell(row.metrics[metric], fmt,
                                            scale)
                    break
            cells.append(f"{cell:>{width}}")
        lines.append(f"{name:<{label_width}} |" + "".join(cells))
    return lines


_DETAIL_COLUMNS: Dict[str, List[Tuple[str, str, str, float]]] = {
    # metric key, column header, format, display scale
    "fig8": [("accuracy", "acc[%]", ".1f", 100.0),
             ("n_weights", "#weights", "d", 1.0),
             ("power_opt_mw", "OptHW[mW]", ".1f", 1.0)],
    "fig9": [("accuracy", "acc[%]", ".1f", 100.0),
             ("n_weights", "#weights", "d", 1.0),
             ("n_activations", "#acts", "d", 1.0)],
    "table1": [("accuracy_orig", "acc.orig[%]", ".1f", 100.0),
               ("accuracy_prop", "acc.prop[%]", ".1f", 100.0),
               ("power_opt_orig_mw", "OptHW.orig", ".1f", 1.0),
               ("power_opt_prop_vs_mw", "OptHW.prop", ".1f", 1.0),
               ("reduction_opt_pct", "red[%]", ".1f", 1.0),
               ("delay_reduction_ps", "dly.red[ps]", ".0f", 1.0)],
    "accel": [("utilization_pct", "util[%]", ".1f", 1.0),
              ("power_mw", "P[mW]", ".2f", 1.0),
              ("power_vs_mw", "P@vdd[mW]", ".2f", 1.0),
              ("energy_uj", "E[uJ]", ".3f", 1.0),
              ("latency_us", "lat[us]", ".2f", 1.0)],
}

def detail_columns(experiment: str
                   ) -> Tuple[Tuple[str, str, str, float], ...]:
    """The ``(metric, header, format, scale)`` display columns of one
    experiment's rows — the single source derived tables (e.g. the
    variance-aware Table I) build on."""
    return tuple(_DETAIL_COLUMNS[experiment])


#: The headline metric charted per experiment.
_PRIMARY_METRIC: Dict[str, Tuple[str, str, str, float]] = {
    "fig8": ("accuracy", "accuracy[%]", ".1f", 100.0),
    "fig9": ("accuracy", "accuracy[%]", ".1f", 100.0),
    "table1": ("accuracy_prop", "proposed accuracy[%]", ".1f", 100.0),
    "accel": ("energy_uj", "energy/inference[uJ]", ".3f", 1.0),
}


def _format_aggregate_table(aggregates: Sequence[AggregateRow],
                            columns: Sequence[Tuple[str, str, str,
                                                    float]],
                            accel: bool = False) -> List[str]:
    """Per-group ``mean±std`` table (one line per backend x threshold,
    or backend x design point for ``accel`` sweeps)."""
    width = 15
    axis_header = (f"{'accel':>18}" if accel else f"{'thr':>8}")
    lines = [f"{'backend':<18} {axis_header} {'n':>3} "
             + " ".join(f"{title:>{width}}"
                        for __, title, __, __ in columns)]
    for agg in aggregates:
        cells = [f"{aggregate_cell(agg, metric, fmt, scale):>{width}}"
                 for metric, __, fmt, scale in columns]
        axis_cell = (f"{agg.accel or '-':>18}" if accel
                     else f"{_threshold_label(agg.threshold):>8}")
        line = (f"{agg.backend_id:<18} {axis_cell} "
                f"{agg.n_seeds:>3} " + " ".join(cells))
        if agg.skipped is not None:
            line += f"   (skipped: {agg.skipped})"
        elif agg.n_skipped:
            line += f"   ({agg.n_skipped} seed(s) skipped)"
        lines.append(line)
    return lines


def format_sweep(result: SweepResult) -> str:
    """Combined per-backend result table plus overlay chart.

    Multi-seed sweeps additionally render, per network, the aggregated
    ``mean±std`` table over the seed axis and chart the primary metric
    with per-series ``mean±std`` error bands instead of one series per
    seed.
    """
    sweep = result.sweep
    columns = _DETAIL_COLUMNS[sweep.experiment]
    is_accel = sweep.experiment == "accel"
    many_seeds = len({row.seed for row in result.rows}) > 1
    aggregates = result.aggregate() if many_seeds else []
    lines = [f"=== sweep: {sweep.describe()} "
             f"({len(result.rows)} grid points) ==="]
    for spec in sweep.networks:
        rows = result.rows_for(network=spec.label)
        if not rows:
            continue
        lines.append("")
        lines.append(f"--- {spec.label} ---")
        axis_header = (f"{'accel':>18}" if is_accel else f"{'thr':>8}")
        header = (f"{'backend':<18} {'seed':>4} {axis_header} "
                  + " ".join(f"{title:>12}"
                             for __, title, __, __ in columns))
        lines.append(header)
        for row in rows:
            cells = []
            for metric, __, fmt, scale in columns:
                if row.skipped is not None or metric not in row.metrics:
                    cells.append(f"{'-':>12}")
                else:
                    cells.append(
                        f"{_format_cell(row.metrics[metric], fmt, scale):>12}")
            axis_cell = (f"{row.accel or '-':>18}" if is_accel
                         else f"{_threshold_label(row.threshold):>8}")
            line = (f"{row.backend_id:<18} {row.seed:>4} "
                    f"{axis_cell} " + " ".join(cells))
            if row.skipped is not None:
                line += f"   (skipped: {row.skipped})"
            lines.append(line)
        net_aggregates = [agg for agg in aggregates
                          if agg.network == spec.label]
        if net_aggregates:
            lines.append("")
            lines.append(f"aggregated over "
                         f"{len(set(sweep.seeds))} seeds (mean±std):")
            lines.extend(_format_aggregate_table(net_aggregates,
                                                 columns,
                                                 accel=is_accel))
        if is_accel:
            if len({row.accel for row in rows}) > 1:
                metric, title, fmt, scale = _PRIMARY_METRIC["accel"]
                lines.append("")
                lines.extend(_accel_matrix(
                    rows, metric,
                    f"{title} by variant x array shape:", fmt, scale))
        elif len(sweep.thresholds) > 1:
            metric, title, fmt, scale = _PRIMARY_METRIC[sweep.experiment]
            lines.append("")
            if net_aggregates:
                lines.extend(_aggregate_matrix(
                    net_aggregates, metric,
                    f"{title} (mean±std over seeds) by backend x "
                    f"threshold:", fmt, scale))
            else:
                lines.extend(_metric_matrix(
                    rows, metric,
                    f"{title} by backend x threshold:", fmt, scale))
    n_cached = sum(1 for row in result.rows if row.cached)
    n_skipped = sum(1 for row in result.rows if row.skipped is not None)
    summary = (f"progress: {len(result.rows)} point(s) done - "
               f"{len(result.rows) - n_cached} computed, "
               f"{n_cached} served from cache, 0 remaining")
    if n_skipped:
        summary += f" ({n_skipped} skipped)"
    lines.append("")
    lines.append(summary)
    if result.cache_hits is not None:
        lines.append(f"artifact cache: {result.cache_hits} hits, "
                     f"{result.cache_misses} misses "
                     f"({result.shared_prefixes} distinct training "
                     f"prefix(es) across {len(result.rows)} points)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
def run_sweep(sweep: SweepSpec, jobs: Optional[int] = 1,
              cache_dir=None, char_jobs: int = 1,
              verbose: bool = False,
              store: Optional[ArtifactStore] = None,
              progress: bool = False) -> SweepResult:
    """Expand a sweep grid and run every point, sharing all caches.

    Args:
        sweep: The (normalized) grid declaration.
        jobs: Processes for independent grid points (``None``/``0`` =
            all cores, as in :func:`~repro.experiments.parallel
            .parallel_map`).  Serial runs share one in-process artifact
            store across all points, so the training prefix of each
            (backend, network, seed) group is computed exactly once
            even without ``cache_dir``.
        cache_dir: On-disk artifact cache shared across points, runs
            and workers; with ``jobs > 1`` this is what deduplicates
            the shared stage prefixes between workers (a run-scoped
            scratch cache is used when omitted, so parallel grids
            never recompute a shared prefix per point).
        char_jobs: Processes each point spends sharding its per-weight
            power/timing characterization (useful for grids whose
            point count is smaller than the core count).
        verbose: Log stage execution.
        store: An existing in-process store to share (serial runs
            only); overrides ``cache_dir``.
        progress: Stream a per-point done/cached/remaining report to
            stderr while the grid runs (plus an upfront count of
            points the artifact store can already serve).
    """
    if sweep.experiment not in _POINT_RUNNERS:
        raise ValueError(f"unknown sweep experiment "
                         f"{sweep.experiment!r}; choose from "
                         f"{sweep_experiments()}")
    points = expand(sweep)
    order = _scheduled_order(points)
    cache = str(cache_dir) if cache_dir is not None else None

    # Same contract as parallel_map: None/0 = all cores.
    effective = default_jobs() if jobs in (None, 0) else jobs
    effective = max(1, min(effective, len(points)))
    if effective > 1 and store is not None:
        raise ValueError(
            "an in-process store cannot be shared across worker "
            "processes; pass cache_dir instead (or jobs=1)")

    scratch = None
    if effective > 1 and cache is None and len(points) > 1:
        # Workers can only share stage artifacts through disk; without
        # a cache every grid point would recompute its whole training
        # prefix.  A run-scoped scratch cache restores the sharing.
        import tempfile

        scratch = tempfile.TemporaryDirectory(prefix="repro-sweep-")
        cache = scratch.name

    rows: List[Optional[SweepRow]] = [None] * len(points)
    reporter = _ProgressReporter(len(points)) if progress else None
    if effective == 1:
        shared = store if store is not None else ArtifactStore(cache)
        if reporter is not None:
            reporter.start(sweep,
                           _precached_count(points, cache, shared,
                                            char_jobs),
                           jobs=1)
        hits_before, misses_before = shared.hits, shared.misses
        for index in order:
            point = points[index]
            context = ExperimentContext(
                point.spec, point.scale, seed=point.seed,
                verbose=verbose, store=shared, backend=point.backend,
                char_jobs=char_jobs, accel=point.accel)
            try:
                rows[index] = _execute_point(point, context)
            except ParallelTaskError:
                raise
            except Exception as error:
                raise ParallelTaskError(
                    f"sweep point failed: {point.describe()}"
                ) from error
            if reporter is not None:
                reporter.finished(point, rows[index])
        cache_hits = shared.hits - hits_before
        cache_misses = shared.misses - misses_before
    else:
        tasks = [PointTask(points[index], cache, char_jobs, verbose)
                 for index in order]
        if reporter is not None:
            # The scratch cache starts empty, so only a user-provided
            # cache_dir can pre-serve points.
            probe = None if scratch is not None else cache
            reporter.start(sweep,
                           _precached_count(points, probe, None,
                                            char_jobs),
                           jobs=effective)
        on_result = (None if reporter is None else
                     (lambda slot, row:
                      reporter.finished(tasks[slot].point, row)))
        try:
            shuffled = parallel_map(_run_point, tasks, jobs=effective,
                                    on_result=on_result)
        finally:
            if scratch is not None:
                scratch.cleanup()
        for slot, index in enumerate(order):
            rows[index] = shuffled[slot]
        cache_hits = cache_misses = None

    return SweepResult(sweep=sweep, rows=list(rows),
                       cache_hits=cache_hits, cache_misses=cache_misses,
                       shared_prefixes=shared_prefix_count(points))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _parse_threshold(text: str) -> Optional[float]:
    if text.lower() == "none":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"threshold must be a number or 'none', got {text!r}"
        ) from None


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro sweep ...`` — the declarative grid CLI."""
    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Run a declarative experiment sweep over "
                    "backends x networks x thresholds x seeds",
        epilog="Example: python -m repro sweep --experiment fig8 "
               "--backend nangate15-booth --backend nangate15-array "
               "--scale smoke --jobs 2 --cache-dir .sweep-cache",
    )
    parser.add_argument("--experiment",
                        choices=sweep_experiments(),
                        help="grid experiment (required unless --spec "
                             "provides one)")
    parser.add_argument("--spec", metavar="FILE",
                        help="JSON/TOML sweep spec; explicit flags "
                             "override its entries")
    parser.add_argument("--backend", action="append", metavar="ID",
                        help="hardware backend; repeat for an overlay "
                             f"(default: {DEFAULT_BACKEND_ID})")
    parser.add_argument("--network", action="append", metavar="NAME",
                        help="network name or Table I label; repeatable "
                             "(default: lenet5)")
    parser.add_argument("--threshold", action="append", metavar="X",
                        type=_parse_threshold,
                        help="power [uW] (fig8; 'none' = unrestricted) "
                             "or delay [ps] (fig9) threshold; "
                             "repeatable (default: the paper's sweep)")
    parser.add_argument("--seed", action="append", type=int, metavar="N",
                        help="pipeline seed; repeatable (default: 0)")
    parser.add_argument("--shape", action="append", metavar="RxC",
                        help="accel only: systolic array geometry "
                             "('32x32', '32', or 'hw' = the backend's "
                             "own); repeatable")
    parser.add_argument("--variant", action="append", metavar="NAME",
                        choices=("standard", "optimized"),
                        help="accel only: hardware variant; repeatable "
                             "(default: both)")
    parser.add_argument("--stream-batch", type=int, default=None,
                        metavar="N",
                        help="accel only: inferences streamed per "
                             "stationary tile load (default: 1)")
    parser.add_argument("--scale", default=None,
                        choices=("smoke", "ci", "paper"),
                        help="experiment scale (default: ci)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="processes for independent grid points "
                             "(0 = all cores; default: 1)")
    parser.add_argument("--char-jobs", type=int, default=1, metavar="N",
                        help="processes each point spends sharding "
                             "per-weight characterization (default: 1)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="on-disk artifact cache shared across "
                             "points, runs and workers")
    parser.add_argument("--csv", default=None, metavar="FILE",
                        help="also write the tidy per-point table as "
                             "CSV")
    parser.add_argument("--aggregate-csv", default=None, metavar="FILE",
                        help="also write the seed-aggregated table "
                             "(*_mean/*_std/*_min/*_max + n_seeds "
                             "columns, one row per backend x network "
                             "x threshold group) as CSV")
    args = parser.parse_args(argv)

    try:
        if args.spec is not None:
            # Explicit flags override spec-file entries.  The merge
            # must be `is not None`, never truthiness: a legitimately
            # falsy override (e.g. the single unrestricted point
            # `--threshold none` -> (None,)) would otherwise be
            # conflated with "flag not given" and silently lose to the
            # spec file.
            base = load_sweep_file(args.spec)
            sweep = make_sweep_spec(
                (args.experiment if args.experiment is not None
                 else base.experiment),
                backends=(args.backend if args.backend is not None
                          else base.backends),
                networks=(args.network if args.network is not None
                          else base.networks),
                thresholds=(tuple(args.threshold)
                            if args.threshold is not None
                            else base.thresholds),
                seeds=(args.seed if args.seed is not None
                       else base.seeds),
                scale=(args.scale if args.scale is not None
                       else base.scale),
                array_shapes=(args.shape if args.shape is not None
                              else base.array_shapes),
                hw_variants=(args.variant if args.variant is not None
                             else base.hw_variants),
                stream_batch=(args.stream_batch
                              if args.stream_batch is not None
                              else base.stream_batch),
            )
        else:
            if args.experiment is None:
                parser.error("--experiment is required "
                             "(or provide it via --spec FILE)")
            sweep = make_sweep_spec(
                args.experiment,
                backends=args.backend,
                networks=args.network,
                thresholds=(tuple(args.threshold)
                            if args.threshold is not None else None),
                seeds=args.seed,
                scale=args.scale if args.scale is not None else "ci",
                array_shapes=args.shape,
                hw_variants=args.variant,
                stream_batch=(args.stream_batch
                              if args.stream_batch is not None else 1),
            )
        for backend in sweep.backends:
            if isinstance(backend, str):
                get_backend(backend)  # fail fast on typos
    except ValueError as error:
        parser.error(str(error))

    result = run_sweep(sweep, jobs=args.jobs, cache_dir=args.cache_dir,
                       char_jobs=args.char_jobs, progress=True)
    print(format_sweep(result))
    if args.csv:
        result.write_csv(args.csv)
        print(f"tidy table written to {args.csv}")
    if args.aggregate_csv:
        result.write_csv(args.aggregate_csv, aggregated=True)
        print(f"aggregated table written to {args.aggregate_csv}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(cli_main())
