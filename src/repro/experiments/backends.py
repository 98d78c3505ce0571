"""Cross-backend comparison (beyond-paper experiment).

PowerPruning only consumes the measured per-weight power/timing
characteristics of a MAC implementation, so the whole flow can be
re-run against any backend in the :mod:`repro.hw` registry.  This
experiment runs the Table I flow for one network (LeNet-5 by default)
on several backends and reports power, delay and accuracy side by
side — how much of the paper's saving survives a different multiplier
or adder style, or a different process/voltage operating point.

This module is a thin adapter over the declarative sweep engine
(:mod:`repro.experiments.sweep`): the backend axis is just a sweep
grid, and ``jobs`` runs its points in a process pool as every other
adapter does.  A shared ``cache_dir`` is safe across backends: the
backend spec participates in every stage key, so artifacts can never
collide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.report import PowerPruningReport
from repro.experiments.config import NETWORK_SPECS, NetworkSpec
from repro.experiments.stats import AggregateRow, aggregate_cell
from repro.experiments.sweep import make_sweep_spec, run_sweep
from repro.hw import DEFAULT_BACKEND_ID, get_backend, list_backends


@dataclass
class BackendRow:
    """One backend's end-to-end outcome."""

    backend_id: str
    description: str
    mac_cells: int
    report: PowerPruningReport


@dataclass
class BackendComparison:
    """Per-backend reports for one network/dataset pair."""

    spec: NetworkSpec
    scale: str
    rows: List[BackendRow]
    #: Seed-aggregated statistics per backend; populated when the
    #: comparison ran over more than one seed.
    aggregates: Optional[List[AggregateRow]] = None

    def row(self, backend_id: str) -> BackendRow:
        for row in self.rows:
            if row.backend_id == backend_id:
                return row
        raise KeyError(f"no row for backend {backend_id!r}")


def run(scale: str = "ci",
        backend_ids: Optional[Sequence[str]] = None,
        spec: NetworkSpec = NETWORK_SPECS[0],
        seed: int = 0, jobs: Optional[int] = 1,
        cache_dir=None,
        seeds: Optional[Sequence[int]] = None) -> BackendComparison:
    """Run the full pipeline on ``spec`` once per backend.

    Args:
        scale: Experiment scale (``smoke``/``ci``/``paper``).
        backend_ids: Backends to compare; all registered by default.
        spec: The network/dataset pair (paper's LeNet-5 by default).
        seed: Seed threaded through every stage.
        jobs: Processes for independent backend x seed runs (0 = all
            cores).
        cache_dir: Shared on-disk artifact cache; backend-keyed, so
            re-runs and other experiments reuse unchanged stages.
        seeds: Several seeds per backend (overrides ``seed``); the
            comparison then carries mean±std aggregates per backend
            and the per-report rows use the first seed.
    """
    ids = list(backend_ids) if backend_ids else list_backends()
    backends = {backend_id: get_backend(backend_id)  # fail fast on typos
                for backend_id in ids}
    seed_axis = tuple(seeds) if seeds is not None else (seed,)
    sweep = make_sweep_spec("table1", backends=ids, networks=(spec,),
                            seeds=seed_axis, scale=scale)
    result = run_sweep(sweep, jobs=jobs, cache_dir=cache_dir)
    first_seed = result.sweep.seeds[0]
    rows = [BackendRow(
        backend_id=row.backend_id,
        description=backends[row.backend_id].description,
        mac_cells=sum(backends[row.backend_id].build_mac()
                      .cell_counts().values()),
        report=row.payload,
    ) for row in result.rows_for(seed=first_seed)]
    aggregates = (result.aggregate()
                  if len(result.sweep.seeds) > 1 else None)
    return BackendComparison(spec=spec, scale=scale, rows=rows,
                             aggregates=aggregates)


def format_comparison(comparison: BackendComparison) -> str:
    """Side-by-side power/delay/accuracy table across backends."""
    lines = [
        f"network: {comparison.spec.label}  "
        f"(scale: {comparison.scale})",
        "",
        f"{'backend':<18} {'cells':>6} {'acc o->p':>12} "
        f"{'OptHW mW o->p':>15} {'red%':>6} {'delay red':>10} "
        f"{'Vdd':>9}",
    ]
    for row in comparison.rows:
        r = row.report
        lines.append(
            f"{row.backend_id:<18} {row.mac_cells:>6d} "
            f"{r.accuracy_orig * 100:5.1f}->{r.accuracy_prop * 100:5.1f} "
            f"{r.power_opt_orig.total_uw / 1000:6.1f}->"
            f"{r.power_opt_prop_vs.total_uw / 1000:6.1f}  "
            f"{r.reduction_opt:5.1f} "
            f"{r.max_delay_reduction_ps:7.0f} ps "
            f"{r.voltage_label:>9}"
        )
    if comparison.aggregates:
        lines.append("")
        lines.append(f"mean±std over seeds "
                     f"({comparison.aggregates[0].n_seeds} seed(s) "
                     f"per backend):")
        lines.append(f"{'backend':<18} {'n':>3} {'acc.prop[%]':>12} "
                     f"{'OptHW.prop[mW]':>15} {'red[%]':>12}")
        for agg in comparison.aggregates:
            cells = [aggregate_cell(agg, metric, fmt, scale)
                     for metric, fmt, scale in (
                         ("accuracy_prop", ".1f", 100.0),
                         ("power_opt_prop_vs_mw", ".1f", 1.0),
                         ("reduction_opt_pct", ".1f", 1.0))]
            lines.append(f"{agg.backend_id:<18} {agg.n_seeds:>3} "
                         f"{cells[0]:>12} {cells[1]:>15} "
                         f"{cells[2]:>12}")
    lines.append("")
    for row in comparison.rows:
        lines.append(f"{row.backend_id}: {row.description}")
    return "\n".join(lines)


def main(scale: str = "ci", jobs: Optional[int] = 1,
         cache_dir=None,
         backend: Optional[str] = None,
         seeds: Optional[Sequence[int]] = None) -> BackendComparison:
    """CLI entry point.

    Without ``backend``, all registered backends are compared; with
    one, the comparison is the default backend versus that one.
    """
    ids: Optional[List[str]] = None
    if backend is not None and backend != DEFAULT_BACKEND_ID:
        ids = [DEFAULT_BACKEND_ID, backend]
    elif backend is not None:
        ids = [DEFAULT_BACKEND_ID]
    comparison = run(scale, backend_ids=ids, jobs=jobs,
                     cache_dir=cache_dir, seeds=seeds)
    print("=== Cross-backend comparison (Table I flow per backend) ===")
    print(format_comparison(comparison))
    return comparison


if __name__ == "__main__":
    main()
