"""Table I — main results of the proposed method.

Runs the full PowerPruning pipeline for the four network/dataset pairs
and prints our Table I next to the paper's published row values.

This module is a thin adapter over the declarative sweep engine
(:mod:`repro.experiments.sweep`): the grid expansion, process pool,
stage-cache sharing and per-point caching all live there.  Use
``python -m repro sweep --experiment table1`` for multi-backend or
multi-seed grids.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.report import PowerPruningReport, format_table1
from repro.experiments.config import NETWORK_SPECS, NetworkSpec
from repro.experiments.stats import AggregateRow, aggregate_cell
from repro.experiments.sweep import (
    SweepResult,
    detail_columns,
    make_sweep_spec,
    run_sweep,
)
from repro.hw import DEFAULT_BACKEND_ID

#: The paper's Table I, for side-by-side reporting.
PAPER_TABLE1: Dict[str, Dict[str, object]] = {
    "LeNet-5-CIFAR-10": {
        "acc_orig": 80.7, "acc_prop": 78.4,
        "std_orig": 281.6, "std_prop": 152.1, "std_red": 46.0,
        "opt_orig": 280.4, "opt_prop": 73.1, "opt_red": 73.9,
        "weights": 32, "acts": 176, "delay_red": 40,
        "voltage": "0.71/0.8", "vshw": 13.7, "vohw": 6.4,
    },
    "ResNet-20-CIFAR-10": {
        "acc_orig": 91.9, "acc_prop": 88.9,
        "std_orig": 469.9, "std_prop": 230.6, "std_red": 50.9,
        "opt_orig": 427.7, "opt_prop": 173.4, "opt_red": 59.4,
        "weights": 32, "acts": 176, "delay_red": 40,
        "voltage": "0.71/0.8", "vshw": 12.7, "vohw": 10.6,
    },
    "ResNet-50-CIFAR-100": {
        "acc_orig": 79.9, "acc_prop": 78.4,
        "std_orig": 509.1, "std_prop": 278.7, "std_red": 45.3,
        "opt_orig": 510.8, "opt_prop": 140.8, "opt_red": 72.4,
        "weights": 40, "acts": 220, "delay_red": 30,
        "voltage": "0.73/0.8", "vshw": 10.6, "vohw": 5.2,
    },
    "EfficientNet-B0-Lite-ImageNet": {
        "acc_orig": 74.4, "acc_prop": 72.9,
        "std_orig": 152.0, "std_prop": 106.7, "std_red": 29.8,
        "opt_orig": 134.2, "opt_prop": 78.5, "opt_red": 41.5,
        "weights": 76, "acts": 244, "delay_red": 20,
        "voltage": "0.75/0.8", "vshw": 8.8, "vohw": 8.0,
    },
}


def run_result(scale: str = "ci",
               specs: Sequence[NetworkSpec] = NETWORK_SPECS,
               jobs: Optional[int] = 1,
               cache_dir=None,
               backend: str = DEFAULT_BACKEND_ID,
               seeds: Sequence[int] = (0,)) -> SweepResult:
    """The raw sweep result of the Table I grid (one row per
    network x seed); multi-seed callers aggregate via
    ``result.aggregate()``."""
    sweep = make_sweep_spec("table1", backends=(backend,),
                            networks=specs, seeds=seeds, scale=scale)
    return run_sweep(sweep, jobs=jobs, cache_dir=cache_dir)


def run(scale: str = "ci",
        specs: Sequence[NetworkSpec] = NETWORK_SPECS,
        jobs: Optional[int] = 1,
        cache_dir=None,
        backend: str = DEFAULT_BACKEND_ID,
        seeds: Sequence[int] = (0,)) -> List[PowerPruningReport]:
    """Run the full pipeline for every spec; returns the reports.

    Rows are independent: ``jobs`` fans them out across processes
    (``0`` = all cores), and ``cache_dir`` shares the stage-graph
    artifact cache between rows, runs and workers.  ``backend``
    selects the hardware backend all rows characterize against.
    With several ``seeds`` the returned list covers every
    network x seed combination in sweep expansion order.
    """
    result = run_result(scale, specs=specs, jobs=jobs,
                        cache_dir=cache_dir, backend=backend,
                        seeds=seeds)
    return [row.payload for row in result.rows]


def format_with_reference(reports: List[PowerPruningReport]) -> str:
    """Our Table I plus the paper's numbers for the same rows."""
    lines = ["=== Table I (this reproduction) ===",
             format_table1(reports), "",
             "=== Table I (paper, published) ==="]
    for spec, report in zip(NETWORK_SPECS, reports):
        paper = PAPER_TABLE1[spec.label]
        lines.append(
            f"{spec.label}: acc {paper['acc_orig']}%->{paper['acc_prop']}%"
            f" | StdHW {paper['std_orig']}->{paper['std_prop']} mW"
            f" ({paper['std_red']}%)"
            f" | OptHW {paper['opt_orig']}->{paper['opt_prop']} mW"
            f" ({paper['opt_red']}%)"
            f" | wei {paper['weights']} act {paper['acts']}"
            f" | {paper['delay_red']} ps | {paper['voltage']}"
            f" | VS {paper['vshw']}%/{paper['vohw']}%"
        )
    return "\n".join(lines)


#: Variance-aware Table I columns: the sweep engine's table1 display
#: columns (single source) plus the selected-value counts.
_VARIANCE_COLUMNS = detail_columns("table1") + (
    ("n_weights", "#wei", "d", 1.0),
    ("n_activations", "#act", "d", 1.0),
)


def format_table1_variance(aggregates: Sequence[AggregateRow]) -> str:
    """The variance-aware Table I: every cell is mean±std over seeds."""
    header = ["network", "n"] + [title for __, title, __, __
                                 in _VARIANCE_COLUMNS]
    rows = [header]
    for agg in aggregates:
        cells = [agg.network, str(agg.n_seeds)]
        cells += [aggregate_cell(agg, metric, fmt, scale)
                  for metric, __, fmt, scale in _VARIANCE_COLUMNS]
        rows.append(cells)
    widths = [max(len(row[i]) for row in rows)
              for i in range(len(header))]
    lines = []
    for index, row in enumerate(rows):
        lines.append(" | ".join(
            cell.rjust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("-+-".join("-" * width for width in widths))
    return "\n".join(lines)


def main(scale: str = "ci", jobs: Optional[int] = 1,
         cache_dir=None,
         backend: str = DEFAULT_BACKEND_ID,
         seeds: Sequence[int] = (0,)) -> List[PowerPruningReport]:
    result = run_result(scale, jobs=jobs, cache_dir=cache_dir,
                        backend=backend, seeds=seeds)
    reports = [row.payload for row in result.rows]
    if len(result.sweep.seeds) > 1:
        print(f"=== Table I (this reproduction, mean±std over "
              f"{len(result.sweep.seeds)} seeds) ===")
        print(format_table1_variance(result.aggregate()))
        print()
        print(f"=== detail: seed {result.sweep.seeds[0]} ===")
    print(format_with_reference(
        [row.payload for row in result.rows_for(
            seed=result.sweep.seeds[0])]))
    return reports


if __name__ == "__main__":
    main()
