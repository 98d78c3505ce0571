"""The benchmark's workloads.

``table1-resnet20-cold`` and ``service-accel-mixed`` are the ones
``BENCHMARK.json`` declares.  ``characterize-paper-lenet5`` runs by
name only: one pass takes ~30 s, so with it the declared runs would not
fit the benchmark's time budget at a window long enough for the
service to be steady.

Each workload has a set-up (repeated, so set-up time is a median), a
timed *pass* (repeated until the run's seconds are spent), and output
checks that run after timing.  Operations are recorded as
:class:`Op`; a failed check marks its operation failed, and the error
rate is failed over attempted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np


@dataclass
class Op:
    """One operation the benchmark timed and then checked."""

    kind: str  # "computed" or "cached"
    latency_s: float
    ref: Any = None
    failure: Optional[str] = None
    #: When the operation ended (``perf_counter``).
    end: float = field(default_factory=perf_counter)


@dataclass
class Record:
    ops: List[Op] = field(default_factory=list)
    #: ``(start, end)`` of every timed pass.
    passes: List[Tuple[float, float]] = field(default_factory=list)
    #: Per-layer numbers a workload measures itself (not from spans).
    layer_extra: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)

    def fail(self, op: Op, reason: str) -> None:
        if op.failure is None:
            op.failure = reason


def _digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, src: Path) -> None:
        self.seed = seed
        self.src = src

    def set_up(self, work: Path) -> None:
        """Prepare one run's inputs under the fresh directory ``work``."""

    def release(self) -> None:
        """Drop a set-up that will not be used (only the last one is)."""

    def run_pass(self, rec: Record, work: Path) -> None:
        """The timed unit of work; appends the operations it ran."""

    def check(self, rec: Record) -> None:
        """Verify outputs, rerunning some operations warm; marks failed
        operations."""

    def close(self) -> None:
        """Stop anything the workload started."""


# ----------------------------------------------------------------------
# table1-resnet20-cold
# ----------------------------------------------------------------------
_COLD_START = """
import sys
sys.dont_write_bytecode = True
from repro.core.stages import PipelineOps
from repro.experiments.sweep import expand, make_sweep_spec, point_config
spec = make_sweep_spec("table1", networks=["resnet20"], scale="smoke")
PipelineOps(point_config(expand(spec)[0]))
"""


class Table1Cold(Workload):
    """One smoke Table I row for resnet20 into an empty on-disk cache.

    The pipeline seed is fixed at 0: how many retraining rounds the
    selection searches run depends on the accuracy each round reaches,
    so other pipeline seeds do different amounts of work.  The workload
    seed names the run's cache directories only.
    """

    name = "table1-resnet20-cold"
    why = ("the real cold path: resnet20 retraining is ~93% of it and "
           "characterization under 3%")
    #: Warm reruns on the cold row's cache, checked after timing.
    n_warm = 3

    def __init__(self, seed: int, src: Path) -> None:
        super().__init__(seed, src)
        self.rows: List[Tuple[Op, Any]] = []

    def set_up(self, work: Path) -> None:
        # Set-up is what a cold command pays before any stage runs: a
        # fresh interpreter importing the package and resolving the
        # sweep point and its hardware models.
        subprocess.run([sys.executable, "-c", _COLD_START], check=True,
                       cwd=work, env=dict(os.environ,
                                          PYTHONPATH=str(self.src)))
        from repro.experiments.sweep import make_sweep_spec

        self.spec = make_sweep_spec("table1", networks=["resnet20"],
                                    scale="smoke", seeds=[0])

    def run_pass(self, rec: Record, work: Path) -> None:
        from repro.experiments.sweep import run_sweep

        cache = work / f"cache-{self.seed}-{len(self.rows)}"
        start = perf_counter()
        result = run_sweep(self.spec, jobs=1, cache_dir=cache)
        op = Op("computed", perf_counter() - start, ref=cache)
        rec.ops.append(op)
        self.rows.append((op, result.rows[0]))

    def check(self, rec: Record) -> None:
        from repro.experiments.sweep import run_sweep

        for op, row in self.rows:
            problem = _report_problem(row)
            if problem:
                rec.fail(op, problem)
        cold_op, cold_row = self.rows[-1]
        for _ in range(self.n_warm):
            start = perf_counter()
            row = run_sweep(self.spec, jobs=1,
                            cache_dir=cold_op.ref).rows[0]
            op = Op("cached", perf_counter() - start)
            rec.ops.append(op)
            if not row.cached:
                rec.fail(op, "warm rerun recomputed the row")
            elif row.metrics != cold_row.metrics:
                rec.fail(op, "warm rerun differs from the cold row")
        rec.notes["digest"] = _digest(cold_row.metrics)


def _report_problem(row) -> Optional[str]:
    """Why a Table I row is malformed, or ``None``.

    Only bounds that hold for any training outcome are checked.
    """
    report = row.payload
    if row.skipped or report is None:
        return f"row skipped: {row.skipped}"
    powers = [report.power_std_orig, report.power_std_prop,
              report.power_std_prop_vs, report.power_opt_orig,
              report.power_opt_prop, report.power_opt_prop_vs]
    checks = {
        "network": report.network == "resnet20",
        "accuracy": all(0.0 <= a <= 1.0 for a in
                        (report.accuracy_orig, report.accuracy_prop)),
        "power": all(math.isfinite(p.total_uw) and p.total_uw > 0
                     for p in powers),
        "voltage scaling raised power": (
            report.power_opt_prop_vs.total_uw
            <= report.power_opt_prop.total_uw
            and report.power_std_prop_vs.total_uw
            <= report.power_std_prop.total_uw),
        "weights": 1 <= report.n_selected_weights <= 255,
        "activations": 1 <= report.n_selected_activations <= 256,
        "delay reduction": (math.isfinite(report.max_delay_reduction_ps)
                            and report.max_delay_reduction_ps >= 0),
        "reduction": report.reduction_opt <= 100.0,
    }
    bad = [name for name, ok in checks.items() if not ok]
    return f"report out of range: {', '.join(bad)}" if bad else None


# ----------------------------------------------------------------------
# characterize-paper-lenet5
# ----------------------------------------------------------------------
class CharacterizePaper(Workload):
    """Paper-fidelity power and timing characterization of lenet5.

    Set-up trains the smoke lenet5 baseline and collects its operand
    statistics.  A pass runs the ``power_table`` stage with every weight
    value and 10 000 samples per weight, then times all 2^16 activation
    transitions for each weight below 900 uW.
    """

    name = "characterize-paper-lenet5"
    why = ("paper-fidelity characterization: timing, sim and power do "
           "all the work and nn none")
    threshold_uw = 900.0
    #: Reloads of both tables from the store, checked after timing.
    n_warm = 3
    n_check_power = 8
    n_check_timing = 3

    def set_up(self, work: Path) -> None:
        from repro.core.artifacts import ArtifactStore
        from repro.core.pipeline import POWER_PRUNING_GRAPH
        from repro.core.stages import PipelineOps, StageRunner
        from repro.experiments.config import NETWORK_SPECS, pipeline_config

        config = pipeline_config(NETWORK_SPECS[0], "smoke", seed=self.seed)
        runner = StageRunner(POWER_PRUNING_GRAPH, PipelineOps(config),
                             ArtifactStore(work / "cache"))
        self.stats_key = runner.key("operand_stats")
        self.stats = runner.get("operand_stats")
        self.config = dataclasses.replace(
            config, char_weight_step=1, char_samples=10000,
            timing_transitions=None)
        self.passes: List[Tuple[Path, Any, Any]] = []

    def _runner(self, cache: Path):
        from repro.core.artifacts import ArtifactStore
        from repro.core.pipeline import POWER_PRUNING_GRAPH
        from repro.core.stages import PipelineOps, StageRunner

        return StageRunner(POWER_PRUNING_GRAPH, PipelineOps(self.config),
                           ArtifactStore(cache))

    def _timing_key(self, candidates) -> str:
        from repro.core.artifacts import hash_key

        return hash_key({"stage": "perfbench/timing", "seed": self.seed,
                         "candidates": sorted(int(w) for w in candidates)})

    def run_pass(self, rec: Record, work: Path) -> None:
        # Each pass starts from a store that holds only the statistics.
        cache = work / f"cache-{len(self.passes)}"
        runner = self._runner(cache)
        runner.store.put(self.stats_key, self.stats)
        start = perf_counter()
        table = runner.get("power_table")
        candidates = table.select_below(self.threshold_uw)
        timing = runner.store.get_or_compute(
            self._timing_key(candidates),
            lambda: runner.ops.characterize_timing(candidates))
        rec.ops.append(Op("computed", perf_counter() - start))
        rec.notes["timing_weights"] = int(len(candidates))
        self.passes.append((cache, table, timing))

    def check(self, rec: Record) -> None:
        cache, table, timing = self.passes[-1]
        for _ in range(self.n_warm):
            start = perf_counter()
            runner = self._runner(cache)
            power = runner.get("power_table")
            warm = runner.store.get(self._timing_key(timing.weights))
            op = Op("cached", perf_counter() - start)
            rec.ops.append(op)
            if warm is None or not (
                    np.array_equal(power.power_uw, table.power_uw)
                    and np.array_equal(warm.max_delay_ps,
                                       timing.max_delay_ps)):
                rec.fail(op, "reloaded tables differ from computed")
        rng = np.random.default_rng(self.seed)
        power_subset = rng.choice(table.weights, self.n_check_power,
                                  replace=False)
        timing_subset = rng.choice(timing.weights, self.n_check_timing,
                                   replace=False)
        problems = (self._power_mismatch(table, power_subset)
                    + self._timing_mismatch(timing, timing_subset))
        for op in rec.ops:
            if op.kind == "computed":
                for problem in problems:
                    rec.fail(op, problem)
        rec.notes["digest"] = _digest(
            [table.power_uw.tolist(), timing.max_delay_ps.tolist()])

    def _power_mismatch(self, table, subset) -> List[str]:
        """Per-weight oracle path vs the batched stage, bit for bit.

        Built like ``PipelineOps.characterize_power`` but uncalibrated;
        the stage's calibration is one multiply by ``energy_scale``.
        """
        from repro.core.stages import PipelineOps
        from repro.power import WeightPowerCharacterizer

        ops = PipelineOps(self.config)
        characterizer = WeightPowerCharacterizer(
            ops.mac, ops.library, self.stats.activation_distribution(),
            self.stats.binned_psum_transitions(n_bins=50,
                                               seed=self.config.seed),
            clock_period_ps=ops.systolic_config.clock_period_ps,
            n_samples=self.config.char_samples, calibrate_to_uw=None)
        single = characterizer.characterize(subset, seed=self.config.seed,
                                            batch_weights=1)
        index = np.searchsorted(table.weights, single.weights)
        expected = table.dynamic_uw[index]
        got = single.dynamic_uw * table.energy_scale
        if not np.array_equal(got, expected):
            return [f"power table differs from per-weight path for "
                    f"weights {single.weights.tolist()}"]
        return []

    def _timing_mismatch(self, timing, subset) -> List[str]:
        """Per-weight DTA (``batch_weights=1``) vs the batched table."""
        from repro.core.stages import PipelineOps
        from repro.timing import WeightDelayProfiler, WeightTimingTable

        ops = PipelineOps(self.config)
        single = WeightTimingTable.characterize(
            WeightDelayProfiler(ops.mac, ops.library), weights=subset,
            n_transitions=None, seed=self.config.seed, floor_ps=-1.0,
            calibrate_to_ps=None, batch_weights=1)
        scale = timing.time_scale
        index = np.searchsorted(timing.weights, single.weights)
        problems = []
        if not np.array_equal(single.max_delay_ps * scale,
                              timing.max_delay_ps[index]):
            problems.append("timing maxima differ from per-weight path")
        delays = single.combo_delay_ps * scale
        slow = delays > timing.floor_ps
        expected = timing.combos_for(single.weights)
        got = (single.combo_weight[slow], single.combo_act_from[slow],
               single.combo_act_to[slow], delays[slow])
        if not all(np.array_equal(a, b) for a, b in zip(got, expected)):
            problems.append("slow combinations differ from per-weight "
                            "path")
        return problems


# ----------------------------------------------------------------------
# service-accel-mixed
# ----------------------------------------------------------------------
_SIDES = tuple(range(16, 129, 2))


class ServiceAccelMixed(Workload):
    """One closed-loop client against an in-process ``JobManager``.

    Each job is a lenet5 accel sweep of 2 array shapes x 2 hardware
    variants.  Jobs alternate between *computed* (shapes this run has
    not seen: prefix artifact reads, accel stage writes and journaling)
    and *cached* (a seeded repeat of an earlier job: the read path).
    The workload seed draws the shapes and the repeats; the pipeline
    seed of the warmed prefix is fixed at 0, as in
    :class:`Table1Cold`, so every run sets up the same work.
    """

    name = "service-accel-mixed"
    why = ("closed-loop service jobs alternating new array shapes and "
           "repeats: artifacts, systolic and service, no nn")
    jobs_per_pass = 8

    def set_up(self, work: Path) -> None:
        from repro.core.artifacts import ArtifactStore
        from repro.core.pipeline import POWER_PRUNING_GRAPH
        from repro.core.stages import PipelineOps, StageRunner
        from repro.experiments.config import NETWORK_SPECS, pipeline_config
        from repro.service.jobs import JobManager

        cache = work / "cache"
        config = pipeline_config(NETWORK_SPECS[0], "smoke", seed=0)
        runner = StageRunner(POWER_PRUNING_GRAPH, PipelineOps(config),
                             ArtifactStore(cache))
        for stage in ("pruned", "power_table", "voltage_scaling"):
            runner.get(stage)
        self.manager = JobManager(cache_dir=str(cache), jobs=1)
        rng = np.random.default_rng(self.seed)
        pairs = [(r, c) for r in _SIDES for c in _SIDES]
        self.shapes = [pairs[i] for i in rng.permutation(len(pairs))]
        self.rng = rng
        #: (op, job id, index of the computed job it repeats or None)
        self.jobs: List[Tuple[Op, str, Optional[int]]] = []

    def release(self) -> None:
        self.manager.shutdown()

    def close(self) -> None:
        self.manager.shutdown()

    def _submit(self, rec: Record, kind: str, shapes, repeat) -> None:
        body = {"experiment": "accel", "networks": ["lenet5"],
                "scale": "smoke", "seeds": [0],
                "array_shapes": [f"{r}x{c}" for r, c in shapes],
                "hw_variants": ["standard", "optimized"]}
        start = perf_counter()
        job_id = self.manager.submit_mapping(body)["job_id"]
        finished = self.manager.wait(job_id, timeout=120)
        op = Op(kind, perf_counter() - start, ref=shapes)
        rec.ops.append(op)
        self.jobs.append((op, job_id, repeat))
        if not finished:
            rec.fail(op, "job did not finish within 120 s")
        job = self.manager.get(job_id)
        if job.started_at is not None:
            rec.layer_extra["service.queue_wait_s"] = (
                rec.layer_extra.get("service.queue_wait_s", 0.0)
                + job.started_at - job.created_at)

    def run_pass(self, rec: Record, work: Path) -> None:
        for _ in range(self.jobs_per_pass):
            shapes = (self.shapes.pop(), self.shapes.pop())
            self._submit(rec, "computed", shapes, None)
            computed = [i for i, (op, _, repeat) in enumerate(self.jobs)
                        if repeat is None]
            first = int(self.rng.choice(computed))
            self._submit(rec, "cached", self.jobs[first][0].ref, first)

    def check(self, rec: Record) -> None:
        rows_of = {}
        for index, (op, job_id, repeat) in enumerate(self.jobs):
            status = self.manager.status(job_id)
            job = self.manager.get(job_id)
            rows = [] if job is None else job.rows
            if status is None or status["state"] != "done":
                rec.fail(op, f"job {job_id} ended "
                             f"{None if status is None else status['state']}")
                continue
            if len(rows) != 4 or any(row is None for row in rows):
                rec.fail(op, f"job {job_id} lacks a row per point")
                continue
            rows_of[index] = rows
            if repeat is None:
                continue
            if not all(row.cached for row in rows):
                rec.fail(op, f"repeat job {job_id} recomputed a point")
            elif _row_view(rows_of[index]) != _row_view(
                    rows_of.get(repeat, [])):
                rec.fail(op, f"repeat job {job_id} rows differ from its "
                             f"first run")
        first = [rows_of[i] for i, (_, _, repeat) in enumerate(self.jobs)
                 if repeat is None and i in rows_of]
        rec.notes["digest"] = _digest([_row_view(rows) for rows in first])


def _row_view(rows) -> list:
    return [(row.accel, row.network, row.seed, sorted(row.metrics.items()))
            for row in rows]


WORKLOADS = {cls.name: cls for cls in
             (Table1Cold, CharacterizePaper, ServiceAccelMixed)}
