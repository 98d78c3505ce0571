"""Per-layer tracing for the benchmark, installed from outside ``src/``.

The program has no tracing of its own yet, so the traced run wraps the
public functions of each layer where callers look them up: module
attributes that other modules call through (``ag.conv2d``), names a
module imported into its own namespace (``stages.extract_workloads``,
``profile.dynamic_bus_arrivals``) and methods on their classes.  Every
wrapped call records one span in memory; :meth:`Tracer.metrics` folds
the spans into the per-layer metrics and :meth:`Tracer.chrome_trace`
writes them as Chrome trace-event JSON, which opens offline in Perfetto
or ``chrome://tracing``.  Nothing is printed while tracing.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Pipeline stages, in graph order (``repro.core.stages``).
STAGES = ("dataset", "baseline", "pruned", "operand_stats", "power_table",
          "power_selection", "timing_table", "delay_selection",
          "voltage_scaling", "power_measurement", "report",
          "accel_schedule", "accel_eval")

#: Per-layer metric -> (unit, better, end-to-end metrics it should move,
#: workload where it should move them).
LAYER_METRICS: Dict[str, Tuple[str, str, str, str]] = {}


def _declare(names: Sequence[str], unit: str, better: str, moves: str,
             workload: str) -> None:
    for name in names:
        LAYER_METRICS[name] = (unit, better, moves, workload)


_COLD = "table1-resnet20-cold"
# Declared in BENCHMARK.json is the Table I row, which runs these layers
# at smoke fidelity; characterize-paper-lenet5, run by name, does all
# its work in them.
_CHAR = "table1-resnet20-cold,characterize-paper-lenet5"
_SERVICE = "service-accel-mixed"

_declare([f"stage.{s}.self_s" for s in STAGES[:11]], "s", "lower",
         "wall_s", _COLD)
_declare([f"stage.{s}.self_s" for s in STAGES[11:]], "s", "lower",
         "job_latency_p50_s,job_latency_p90_s", _SERVICE)
_declare(["stage.computed"], "count", "lower", "wall_s", _COLD)
_declare(["stage.reused"], "count", "higher", "wall_s", _COLD)
_declare(["stage.self_share"], "ratio", "higher", "wall_s", _COLD)
_declare(["nn.fit_s", "nn.evaluate_s", "nn.backward_s", "nn.conv2d_fwd_s",
          "nn.depthwise_fwd_s", "nn.restrict_project_s"], "s", "lower",
         "wall_s,peak_rss_mb", _COLD)
_declare(["nn.restrict_project_calls", "nn.train_steps"], "count", "lower",
         "wall_s", _COLD)
_declare(["nn.samples_per_s"], "1/s", "higher", "wall_s", _COLD)
_declare(["timing.characterize_s", "timing.delays_batched_s",
          "sim.dynamic_bus_arrivals_s", "power.characterize_s",
          "sim.evaluate_words_batched_s", "systolic.binned_psum_s"],
         "s", "lower", "wall_s", _CHAR)
_declare(["timing.transitions_per_s", "power.samples_per_s"], "1/s",
         "higher", "wall_s", _CHAR)
_declare(["systolic.layer_power_s", "systolic.network_power_s",
          "core.workloads.extract_s", "sweep.point_s",
          "service.queue_wait_s", "service.record_row_s"], "s", "lower",
         "job_latency_p50_s,job_latency_p90_s", _SERVICE)
_ARTIFACTS = "job_latency_p50_s,cached_latency_p50_s,setup_s"
_declare(["artifacts.hits"], "count", "higher", _ARTIFACTS, _SERVICE)
_declare(["artifacts.misses"], "count", "lower", _ARTIFACTS, _SERVICE)
_declare(["artifacts.hit_ratio"], "ratio", "higher", _ARTIFACTS, _SERVICE)
_declare(["artifacts.read_s", "artifacts.write_s"], "s", "lower",
         _ARTIFACTS, _SERVICE)
_declare(["artifacts.bytes_read", "artifacts.bytes_written"], "bytes",
         "lower", _ARTIFACTS, _SERVICE)
_declare(["trace.wall_s"], "s", "lower", "wall_s", _COLD)

#: Timed entry points: (module, attribute path, span name, layer).
_SPANS = (
    ("repro.nn.trainer", "Trainer.fit", "nn.fit", "nn"),
    ("repro.nn.trainer", "Trainer.evaluate", "nn.evaluate", "nn"),
    ("repro.nn.trainer", "Trainer._step", "nn.train_step", "nn"),
    ("repro.nn.autograd", "Tensor.backward", "nn.backward", "nn"),
    ("repro.nn.autograd", "conv2d", "nn.conv2d_fwd", "nn"),
    ("repro.nn.autograd", "depthwise_conv2d", "nn.depthwise_fwd", "nn"),
    ("repro.nn.restrict", "_NearestValueProjector.__call__",
     "nn.restrict_project", "nn"),
    ("repro.timing.profile", "WeightTimingTable.characterize",
     "timing.characterize", "timing"),
    ("repro.timing.profile", "WeightDelayProfiler.delays_batched",
     "timing.delays_batched", "timing"),
    ("repro.timing.profile", "dynamic_bus_arrivals",
     "sim.dynamic_bus_arrivals", "sim"),
    ("repro.power.characterization", "WeightPowerCharacterizer.characterize",
     "power.characterize", "power"),
    ("repro.power.characterization", "evaluate_words_batched",
     "sim.evaluate_words_batched", "sim"),
    ("repro.systolic.stats",
     "TransitionStatsCollector.binned_psum_transitions",
     "systolic.binned_psum", "systolic"),
    ("repro.systolic.energy", "ArrayPowerModel.layer_power",
     "systolic.layer_power", "systolic"),
    ("repro.systolic.energy", "ArrayPowerModel.network_power",
     "systolic.network_power", "systolic"),
    ("repro.core.stages", "extract_workloads", "core.workloads.extract",
     "core.workloads"),
    ("repro.experiments.sweep", "_execute_point", "sweep.point",
     "experiments.sweep"),
    ("repro.service.jobs", "JobManager._record_row", "service.record_row",
     "service"),
    ("repro.core.artifacts", "ArtifactStore._read_disk", "artifacts.read",
     "core.artifacts"),
    ("repro.core.artifacts", "ArtifactStore._write_disk",
     "artifacts.write", "core.artifacts"),
    ("repro.core.artifacts", "LocalDirStorage.read",
     "artifacts.storage_read", "core.artifacts"),
    ("repro.core.artifacts", "LocalDirStorage.write",
     "artifacts.storage_write", "core.artifacts"),
)


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    Spans and counts are appended from any thread (the service drains
    jobs on its own thread); ``list.append`` is atomic.  Both carry
    their time, so :meth:`metrics` keeps only what fell inside the
    timed passes.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, str, float, float, int, Optional[dict]]] \
            = []
        self.counts: List[Tuple[str, float, float]] = []
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self.origin = perf_counter()

    # -- recording -----------------------------------------------------
    def span(self, name: str, layer: str, start: float, end: float,
             args: Optional[dict] = None) -> None:
        self.spans.append((name, layer, start, end, threading.get_ident(),
                           args))

    def count(self, name: str, amount: float = 1,
              at: Optional[float] = None) -> None:
        self.counts.append((name, amount,
                            perf_counter() if at is None else at))

    # -- installation --------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _timed(self, fn: Callable, name: str, layer: str,
               after: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            tracer.span(name, layer, start, perf_counter())
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced entry point (undone by :meth:`uninstall`)."""
        from repro.core.artifacts import ArtifactStore
        from repro.core.stages import StageRunner

        def step_done(args, result):
            self.count("nn.train_steps")
            self.count("nn.samples", len(args[1]))

        # Counts taken from a wrapped call's arguments or result.
        counted = {
            "nn.train_step": step_done,
            "nn.restrict_project": lambda args, result: self.count(
                "nn.restrict_project_calls"),
            "timing.delays_batched": lambda args, result: self.count(
                "timing.transitions", len(result)),
            "power.characterize": lambda args, table: self.count(
                "power.samples", len(table.weights) * args[0].n_samples),
            "artifacts.storage_read": lambda args, result: self.count(
                "artifacts.bytes_read", len(result)),
            "artifacts.storage_write": lambda args, result: self.count(
                "artifacts.bytes_written", len(args[2])),
        }
        for module_name, path, name, layer in _SPANS:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._timed(
                    original.__func__, name, layer, counted.get(name)))
            else:
                wrapped = self._timed(original, name, layer,
                                      counted.get(name))
            self._patch(owner, attr, wrapped)
        self._patch(ArtifactStore, "get_or_compute",
                    self._store_lookup(ArtifactStore.get_or_compute))
        self._patch(StageRunner, "get", self._stage_get(StageRunner.get))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _store_lookup(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def get_or_compute(store, key, compute, persist=True):
            computed = []

            def counted():
                computed.append(True)
                return compute()

            result = original(store, key, counted, persist)
            tracer.count("artifacts.misses" if computed
                         else "artifacts.hits")
            return result

        return get_or_compute

    def _stage_get(self, original: Callable) -> Callable:
        """``StageRunner.get`` span with self time and computed/reused.

        The frame on the thread-local stack accumulates the time and the
        store misses of nested ``get`` calls, so a stage's self time
        excludes its dependencies and it counts as computed only when
        its own key missed.
        """
        tracer = self
        local = self._local

        @functools.wraps(original)
        def get(runner, name):
            stack = getattr(local, "stages", None)
            if stack is None:
                stack = local.stages = []
            frame = [0.0, 0]
            stack.append(frame)
            misses_before = runner.store.misses
            start = perf_counter()
            try:
                return original(runner, name)
            finally:
                end = perf_counter()
                stack.pop()
                misses = runner.store.misses - misses_before
                if stack:
                    stack[-1][0] += end - start
                    stack[-1][1] += misses
                computed = misses - frame[1] > 0
                tracer.count("stage.computed" if computed
                             else "stage.reused")
                tracer.span(f"stage.{name}", "core.stages", start, end,
                            {"self_s": end - start - frame[0],
                             "computed": computed})

        return get

    # -- reporting -----------------------------------------------------
    def metrics(self, windows: Sequence[Tuple[float, float]],
                extra: Dict[str, float], wall_s: float) -> Dict[str, float]:
        """Every per-layer metric, by name, per timed pass.

        ``windows`` are the timed passes.  Span times and counts are
        summed over the spans and counts inside them and divided by
        their number, so neither set-up nor the number of passes that
        fit in a run changes them; ``extra`` (measured by the workload
        during its passes) is divided the same way.  Rates and ratios
        are taken over the same sums: ``stage.self_share`` is the stage
        self time over the passes' total length.
        """
        def inside(start: float, end: float) -> bool:
            return any(lo <= start and end <= hi for lo, hi in windows)

        total: Dict[str, float] = defaultdict(float)
        for name, _, start, end, _, args in self.spans:
            if not inside(start, end):
                continue
            if args is not None and "self_s" in args:
                total[f"{name}.self_s"] += args["self_s"]
            else:
                total[f"{name}_s"] += end - start
        counts: Dict[str, float] = defaultdict(float)
        for name, amount, at in self.counts:
            if inside(at, at):
                counts[name] += amount
        hits = counts["artifacts.hits"]
        misses = counts["artifacts.misses"]
        timed = sum(hi - lo for lo, hi in windows)
        self_s = sum(value for name, value in total.items()
                     if name.endswith(".self_s"))
        derived = {
            "stage.self_share": self_s / timed if timed else 0.0,
            "nn.samples_per_s": _rate(counts["nn.samples"],
                                      total["nn.fit_s"]),
            "timing.transitions_per_s": _rate(
                counts["timing.transitions"],
                total["timing.characterize_s"]),
            "power.samples_per_s": _rate(counts["power.samples"],
                                         total["power.characterize_s"]),
            "artifacts.hit_ratio": _rate(hits, hits + misses),
            "trace.wall_s": wall_s,
        }
        passes = max(len(windows), 1)
        out: Dict[str, float] = {}
        for name in LAYER_METRICS:
            if name in derived:
                out[name] = float(derived[name])
            else:
                summed = extra.get(name, counts.get(name, total.get(name)))
                out[name] = float(summed or 0.0) / passes
        return out

    def chrome_trace(self, metadata: Dict[str, Any]) -> Dict[str, Any]:
        """The spans as Chrome trace-event JSON (microseconds)."""
        pid = os.getpid()
        events = [{"name": name, "cat": layer, "ph": "X", "pid": pid,
                   "tid": tid, "ts": (start - self.origin) * 1e6,
                   "dur": (end - start) * 1e6, "args": args or {}}
                  for name, layer, start, end, tid, args in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": metadata}


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0
