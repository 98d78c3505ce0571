"""Iterative power-threshold weight selection with retraining.

Sec. III-A3 + III-C: starting from the 900 µW threshold, lower it step by
step; at each step restrict the network to the weight values below the
threshold, retrain with the straight-through estimator, and stop when the
inference accuracy starts to drop noticeably.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ladder import run_ladder
from repro.nn.layers import Module
from repro.nn.restrict import WeightRestriction
from repro.power.characterization import WeightPowerTable

#: The paper's threshold schedule (µW), from the initial 900 downwards.
DEFAULT_THRESHOLDS_UW = (900.0, 850.0, 825.0, 800.0)


@dataclass
class PowerSelectionOutcome:
    """Result of the power-threshold search.

    Attributes:
        threshold_uw: The accepted threshold (``None`` if even the first
            threshold failed and the network stays unrestricted).
        allowed_weights: Selected weight values.
        accuracy: Accuracy after retraining at the accepted threshold.
        history: ``(threshold, n_weights, accuracy)`` per tried step.
    """

    threshold_uw: Optional[float]
    allowed_weights: np.ndarray
    accuracy: float
    history: List[Tuple[float, int, float]] = field(default_factory=list)

    @property
    def n_weights(self) -> int:
        return int(self.allowed_weights.size)


def power_threshold_search(model: Module, table: WeightPowerTable,
                           retrain: Callable[[Module], float],
                           baseline_accuracy: float,
                           thresholds: Sequence[float] =
                           DEFAULT_THRESHOLDS_UW,
                           max_drop: float = 0.03) -> PowerSelectionOutcome:
    """Find the lowest power threshold the network tolerates.

    The steps run as a speculative ladder (:func:`run_ladder`): each
    retrains from the same start state, some in forked children, and
    the outcome equals the serial search's bit for bit.

    Args:
        model: Trained (and conventionally pruned) network; modified in
            place — on return it carries the accepted restriction and the
            retrained weights.
        table: Per-weight power characterization.
        retrain: Retrains the model in place and returns test accuracy.
            It must be a pure function of the model it receives
            (weights, buffers and restriction): steps may run in
            forked children on a copy of the model.
        baseline_accuracy: Accuracy before any restriction.
        thresholds: Descending threshold schedule in µW.
        max_drop: Acceptable absolute accuracy drop ("starts to drop
            noticeably" operationalized).
    """
    thresholds = sorted(thresholds, reverse=True)
    start_state = model.state_dict()

    def trial(threshold: float):
        allowed = table.select_below(threshold)
        if allowed.size < 2:
            return None  # only the zero weight left; nothing can be learned
        model.load_state_dict(start_state)
        model.set_weight_restriction(WeightRestriction(allowed))
        acc = retrain(model)
        return (threshold, int(allowed.size), acc), allowed, model.state_dict()

    def passed(result) -> bool:
        # Below the budget the accuracy "dropped noticeably"; the
        # previous step is kept.
        return (result is not None
                and result[0][2] >= baseline_accuracy - max_drop)

    tried = [result for result in run_ladder(trial, thresholds, passed)
             if result is not None]
    history = [entry for entry, __, __ in tried]
    accepted = [result for result in tried if passed(result)]

    if not accepted:
        # No threshold tolerated: revert to the unrestricted network.
        model.load_state_dict(start_state)
        model.set_weight_restriction(None)
        return PowerSelectionOutcome(
            threshold_uw=None,
            allowed_weights=table.weights.copy(),
            accuracy=baseline_accuracy,
            history=history,
        )

    (threshold, __, acc), allowed, state = accepted[-1]
    model.load_state_dict(state)
    model.set_weight_restriction(WeightRestriction(allowed))
    return PowerSelectionOutcome(
        threshold_uw=threshold,
        allowed_weights=allowed,
        accuracy=acc,
        history=history,
    )
