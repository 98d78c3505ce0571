"""Experiment harness: one module per paper table/figure.

Every module exposes a ``run(scale)`` function returning structured data
and a ``main()`` that prints the same rows/series the paper reports,
side by side with the paper's published numbers where applicable.

Scales:

* ``smoke`` — seconds per experiment, for tests.
* ``ci`` — minutes, the default for the benchmark harness.
* ``paper`` — the paper's nominal sizes (full 255-weight
  characterization, full 2^16 transition enumeration, full datasets).
"""

from repro.experiments.config import (
    NETWORK_SPECS,
    ExperimentScale,
    pipeline_config,
)
from repro.experiments.parallel import (
    ParallelTaskError,
    parallel_map,
)
from repro.experiments.runner import ExperimentContext
from repro.experiments.sweep import (
    SweepResult,
    SweepSpec,
    make_sweep_spec,
    run_sweep,
)

__all__ = [
    "ExperimentScale",
    "NETWORK_SPECS",
    "pipeline_config",
    "ExperimentContext",
    "ParallelTaskError",
    "parallel_map",
    "SweepSpec",
    "SweepResult",
    "make_sweep_spec",
    "run_sweep",
]
