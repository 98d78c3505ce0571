"""Figure 9 — tradeoff between accuracy and selected activation values.

At a fixed weight-power threshold (825 µW; 900 µW for EfficientNet), the
delay threshold is swept from 180 ps down to 140 ps.  Each point runs the
randomized weight/activation removal, retrains under the surviving sets,
and records the number of surviving activation values and the accuracy.

This module is a thin adapter over the declarative sweep engine
(:mod:`repro.experiments.sweep`): the grid expansion, process pool,
stage-cache sharing (the per-candidate-set timing table is characterized
once and reused by every threshold) and per-point caching all live
there.  Use ``python -m repro sweep --experiment fig9`` for
multi-backend overlays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.config import NETWORK_SPECS, NetworkSpec
from repro.experiments import sweep as sweep_engine
from repro.experiments.sweep import (
    SweepResult,
    make_sweep_spec,
    run_sweep,
)
from repro.hw import DEFAULT_BACKEND_ID

#: Paper: x-axis points (threshold ps -> #activation values for the
#: CIFAR networks; EfficientNet numbers in parentheses in the figure).
PAPER_SWEEP = ((180, 256), (170, 234), (160, 221), (150, 179), (140, 73))

#: The paper's threshold axis (single source: the sweep engine).
DEFAULT_THRESHOLDS = sweep_engine.DEFAULT_THRESHOLDS["fig9"]


@dataclass
class Fig9Point:
    threshold_ps: float
    n_weights: int
    n_activations: int
    accuracy: float


@dataclass
class Fig9Result:
    points: Dict[str, List[Fig9Point]]


def result_from_sweep(result: SweepResult,
                      backend_id: Optional[str] = None,
                      seed: Optional[int] = None) -> Fig9Result:
    """Per-network Fig. 9 panels from sweep rows (one backend).

    Panels are one point per threshold, so multi-seed sweep results
    must be filtered to one ``seed`` (the first of the sweep by
    default) — mean±std curves live on ``result.aggregate()`` instead.
    """
    if seed is None:
        seed = result.sweep.seeds[0]
    points: Dict[str, List[Fig9Point]] = {
        spec.label: [] for spec in result.sweep.networks}
    for row in result.rows:
        if backend_id is not None and row.backend_id != backend_id:
            continue
        if row.seed != seed or row.skipped is not None:
            continue
        points[row.network].append(Fig9Point(**row.payload))
    return Fig9Result(points=points)


def run_result(scale: str = "ci",
               specs: Sequence[NetworkSpec] = NETWORK_SPECS[:1],
               thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
               seeds: Sequence[int] = (0,), jobs: Optional[int] = 1,
               cache_dir=None,
               backend: str = DEFAULT_BACKEND_ID) -> SweepResult:
    """The raw sweep result of the Fig. 9 grid; multi-seed callers
    aggregate to mean±std curves via ``result.aggregate()``."""
    sweep = make_sweep_spec("fig9", backends=(backend,), networks=specs,
                            thresholds=thresholds, seeds=seeds,
                            scale=scale)
    return run_sweep(sweep, jobs=jobs, cache_dir=cache_dir)


def run(scale: str = "ci",
        specs: Sequence[NetworkSpec] = NETWORK_SPECS[:1],
        thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
        seed: int = 0, jobs: Optional[int] = 1,
        cache_dir=None,
        backend: str = DEFAULT_BACKEND_ID) -> Fig9Result:
    """Sweep the delay threshold per spec at its fixed power threshold.

    Grid points are independent — ``jobs`` fans them out across
    processes and ``cache_dir`` shares the stage-graph artifact cache.
    """
    return result_from_sweep(
        run_result(scale, specs=specs, thresholds=thresholds,
                   seeds=(seed,), jobs=jobs, cache_dir=cache_dir,
                   backend=backend))


def format_series(result: Fig9Result) -> str:
    lines = []
    for label, series in result.points.items():
        lines.append(f"--- {label} ---")
        lines.append("max delay[ps]  #weights  #activations  acc[%]")
        for point in series:
            lines.append(
                f"{point.threshold_ps:13.0f}  {point.n_weights:8d}  "
                f"{point.n_activations:12d}  "
                f"{point.accuracy * 100:6.1f}"
            )
    lines.append("")
    lines.append("paper sweep (delay ps -> #activations): "
                 + ", ".join(f"{t}->{n}" for t, n in PAPER_SWEEP))
    return "\n".join(lines)


def main(scale: str = "ci", all_networks: bool = False,
         jobs: Optional[int] = 1, cache_dir=None,
         backend: str = DEFAULT_BACKEND_ID,
         seeds: Sequence[int] = (0,)) -> Fig9Result:
    specs = NETWORK_SPECS if all_networks else NETWORK_SPECS[:1]
    print("=== Fig. 9: delay threshold vs accuracy tradeoff ===")
    if len(tuple(seeds)) > 1:
        # Multi-seed panels render through the sweep formatter: the
        # per-seed rows plus the mean±std aggregate table and the
        # error-band overlay chart.
        sweep_result = run_result(scale, specs=specs, seeds=seeds,
                                  jobs=jobs, cache_dir=cache_dir,
                                  backend=backend)
        print(sweep_engine.format_sweep(sweep_result))
        return result_from_sweep(sweep_result)
    result = run(scale, specs=specs, seed=tuple(seeds)[0], jobs=jobs,
                 cache_dir=cache_dir, backend=backend)
    print(format_series(result))
    return result


if __name__ == "__main__":
    main(all_networks=True)
