"""Figure 2 — average power consumption of quantized weight values.

LeNet-5 traffic on the systolic array provides the transition
distributions; each weight value's MAC power is then characterized and
printed as the Fig. 2 series (with the 900 µW threshold line and the
paper's anchor values for comparison).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.experiments.config import NETWORK_SPECS
from repro.experiments.runner import ExperimentContext
from repro.hw import DEFAULT_BACKEND_ID
from repro.power.characterization import WeightPowerTable

#: Fig. 2 anchors from the paper's text.
PAPER_ANCHORS_UW = {-105: 1066.0, -2: 596.0}
PAPER_THRESHOLD_UW = 900.0


@dataclass
class Fig2Result:
    """The Fig. 2 series plus summary statistics."""

    table: WeightPowerTable
    threshold_uw: float

    @property
    def n_below_threshold(self) -> int:
        return self.table.count_below(self.threshold_uw)

    def summary(self) -> Dict[str, float]:
        table = self.table
        return {
            "min_uw": float(table.power_uw.min()),
            "max_uw": float(table.power_uw.max()),
            "zero_uw": table.power_of(0),
            "w-2_uw": table.power_of(-2),
            "w-105_uw": table.power_of(-105),
            "below_900": float(self.n_below_threshold),
        }


def run(scale: str = "ci", seed: int = 0, cache_dir=None,
        backend: str = DEFAULT_BACKEND_ID) -> Fig2Result:
    """Characterize weight power under LeNet-5 traffic (paper setup)."""
    context = ExperimentContext(NETWORK_SPECS[0], scale, seed=seed,
                                cache_dir=cache_dir, backend=backend)
    return Fig2Result(table=context.power_table,
                      threshold_uw=PAPER_THRESHOLD_UW)


def format_series(result: Fig2Result, step: int = 8) -> str:
    """Printable power-vs-weight series (every ``step``-th weight)."""
    table = result.table
    lines = ["weight  power[uW]  bar"]
    peak = table.power_uw.max()
    for w, p in zip(table.weights[::step], table.power_uw[::step]):
        bar = "#" * int(round(40 * p / peak))
        marker = " <-- 900 uW threshold" if abs(p - 900) < 25 else ""
        lines.append(f"{w:6d}  {p:9.1f}  {bar}{marker}")
    return "\n".join(lines)


def main(scale: str = "ci", jobs: Optional[int] = 1,
         cache_dir=None, backend: str = DEFAULT_BACKEND_ID) -> Fig2Result:
    # Single network, single table — ``jobs`` is accepted for CLI
    # uniformity; the characterization shards over the process's cores.
    result = run(scale, cache_dir=cache_dir, backend=backend)
    print("=== Fig. 2: average power per quantized weight value ===")
    print(format_series(result))
    summary = result.summary()
    print(f"\nsummary: {summary}")
    print(f"paper anchors: -105 -> {PAPER_ANCHORS_UW[-105]} uW, "
          f"-2 -> {PAPER_ANCHORS_UW[-2]} uW; our -105 -> "
          f"{summary['w-105_uw']:.0f}, -2 -> {summary['w-2_uw']:.0f}")
    print(f"weights at/below 900 uW: {result.n_below_threshold} of "
          f"{result.table.weights.size}")
    return result


if __name__ == "__main__":
    main()
