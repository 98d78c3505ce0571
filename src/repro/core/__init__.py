"""The PowerPruning method itself (paper Sec. III).

* :mod:`repro.core.workloads` — bridges a trained quantized network to
  the systolic-array power/statistics models.
* :mod:`repro.core.pruning` — conventional magnitude pruning (the flow's
  first step).
* :mod:`repro.core.power_selection` — iterative power-threshold weight
  selection with retraining (Sec. III-A + III-C).
* :mod:`repro.core.delay_selection` — iterative delay-threshold weight
  and activation selection with retraining (Sec. III-B + III-C).
* :mod:`repro.core.ladder` — runs the retraining steps of both searches
  side by side in forked children, bit-identical to the serial search.
* :mod:`repro.core.voltage_scaling` — supply-voltage scaling from the
  achieved delay reduction.
* :mod:`repro.core.artifacts` — content-addressed artifact store
  (memory + optional disk) keyed on config fields and upstream keys.
* :mod:`repro.core.stages` — the flow as an explicit stage graph with
  declared inputs/outputs, executed through the artifact store.
* :mod:`repro.core.pipeline` — the end-to-end flow producing Table I
  rows, composed from the stage graph.
* :mod:`repro.core.report` — result records and pretty-printing.
"""

from repro.core.workloads import LayerWorkload, extract_workloads
from repro.core.pruning import magnitude_prune
from repro.core.power_selection import (
    PowerSelectionOutcome,
    power_threshold_search,
)
from repro.core.delay_selection import (
    DelaySelectionOutcome,
    delay_threshold_search,
)
from repro.core.voltage_scaling import VoltageScalingOutcome, scale_voltage
from repro.core.artifacts import ArtifactStore, hash_key
from repro.core.stages import (
    PipelineOps,
    Stage,
    StageGraph,
    StageRunner,
    build_power_pruning_graph,
)
from repro.core.pipeline import PowerPruner, PipelineConfig
from repro.core.report import PowerPruningReport, format_table1

__all__ = [
    "ArtifactStore",
    "hash_key",
    "Stage",
    "StageGraph",
    "StageRunner",
    "PipelineOps",
    "build_power_pruning_graph",
    "LayerWorkload",
    "extract_workloads",
    "magnitude_prune",
    "power_threshold_search",
    "PowerSelectionOutcome",
    "delay_threshold_search",
    "DelaySelectionOutcome",
    "scale_voltage",
    "VoltageScalingOutcome",
    "PowerPruner",
    "PipelineConfig",
    "PowerPruningReport",
    "format_table1",
]
