"""Iterative delay-threshold weight/activation selection with retraining.

Sec. III-B + III-C: starting at 170 ps the delay threshold is lowered in
10 ps steps.  Each step runs the randomized removal (20 restarts), then
retrains under the surviving weight *and* activation sets; the search
stops when accuracy drops by about 5% of the original accuracy, and the
best passing configuration is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.ladder import run_ladder
from repro.nn.layers import Module
from repro.nn.restrict import ActivationFilter, WeightRestriction
from repro.timing.profile import WeightTimingTable
from repro.timing.selection import DelaySelector, SelectionResult

#: The paper's schedule: 170 ps down to 140 ps in 10 ps steps.
DEFAULT_THRESHOLDS_PS = (170.0, 160.0, 150.0, 140.0)


@dataclass
class DelaySelectionOutcome:
    """Result of the delay-threshold search.

    Attributes:
        threshold_ps: Accepted threshold (``None`` if none passed).
        selection: Surviving weight/activation sets at that threshold.
        accuracy: Accuracy after retraining there.
        max_delay_ps: Sensitized delay of the surviving configuration.
        history: ``(threshold, n_weights, n_acts, accuracy)`` per step.
    """

    threshold_ps: Optional[float]
    selection: Optional[SelectionResult]
    accuracy: float
    max_delay_ps: float
    history: List[Tuple[float, int, int, float]] = field(
        default_factory=list)


def delay_threshold_search(model: Module, table: WeightTimingTable,
                           candidate_weights: Sequence[int],
                           retrain: Callable[[Module], float],
                           original_accuracy: float,
                           thresholds: Sequence[float] =
                           DEFAULT_THRESHOLDS_PS,
                           max_drop_fraction: float = 0.05,
                           n_restarts: int = 20,
                           seed: int = 2023) -> DelaySelectionOutcome:
    """Lower the delay threshold while accuracy holds.

    The steps run as a speculative ladder (:func:`run_ladder`): each
    retrains from the same start state, some in forked children, and
    the outcome equals the serial search's bit for bit.

    Args:
        model: Power-selected, retrained network (modified in place; on
            return it carries the accepted weight restriction and
            activation filter, or, if no threshold passed, its entry
            weights and restriction and no activation filter).
        table: Timing characterization of the candidate weights.
        candidate_weights: Weight values that survived power selection.
        retrain: Retrains the model in place, returns test accuracy.
            It must be a pure function of the model it receives
            (weights, buffers and restriction): steps may run in
            forked children on a copy of the model.
        original_accuracy: The network's original accuracy; the paper
            stops when the drop reaches ~5% of it.
        thresholds: Descending thresholds in ps.
        max_drop_fraction: Relative accuracy-drop budget.
        n_restarts: Randomized removal restarts per threshold.
        seed: RNG seed for the removal.
    """
    thresholds = sorted(thresholds, reverse=True)
    floor_accuracy = original_accuracy * (1.0 - max_drop_fraction)
    selector = DelaySelector(table, n_restarts=n_restarts)
    start_state = model.state_dict()
    # Restrictions are not part of the state dict.
    entry_restrictions = [(layer, layer.weight_restriction)
                          for layer in model.quantized_layers()]

    def trial(threshold: float):
        selection = selector.select(threshold,
                                    candidate_weights=candidate_weights,
                                    seed=seed)
        if selection.n_weights < 2:
            return None  # removal left nothing trainable
        model.load_state_dict(start_state)
        model.set_weight_restriction(
            WeightRestriction(selection.weights))
        model.set_activation_filter(
            ActivationFilter(selection.activations))
        acc = retrain(model)
        return ((threshold, selection.n_weights, selection.n_activations,
                 acc), selection, model.state_dict())

    def passed(result) -> bool:
        return result is not None and result[0][3] >= floor_accuracy

    tried = [result for result in run_ladder(trial, thresholds, passed)
             if result is not None]
    history = [entry for entry, __, __ in tried]
    accepted = [result for result in tried if passed(result)]

    if not accepted:
        model.load_state_dict(start_state)
        for layer, restriction in entry_restrictions:
            layer.weight_restriction = restriction
        model.set_activation_filter(None)
        return DelaySelectionOutcome(
            threshold_ps=None,
            selection=None,
            accuracy=original_accuracy,
            max_delay_ps=float(
                max(table.max_delay_of(int(w)) for w in candidate_weights)
            ),
            history=history,
        )

    (threshold, __, __, acc), selection, state = accepted[-1]
    model.load_state_dict(state)
    model.set_weight_restriction(WeightRestriction(selection.weights))
    model.set_activation_filter(ActivationFilter(selection.activations))
    return DelaySelectionOutcome(
        threshold_ps=threshold,
        selection=selection,
        accuracy=acc,
        max_delay_ps=selection.max_delay_ps,
        history=history,
    )
