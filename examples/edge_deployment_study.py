"""Edge-deployment study: power/accuracy frontier for a ResNet-20.

Motivated by the paper's introduction (plant-disease detection, wearable
medical devices): an edge product team wants to know how far the power
of a ResNet-20 classifier can be pushed down before accuracy becomes
unacceptable.  The study sweeps the power threshold, then applies the
timing-aware selection and voltage scaling at the chosen point, and
prints the whole frontier.

Run:
    python examples/edge_deployment_study.py
"""

import logging

from repro.experiments.config import NETWORK_SPECS
from repro.experiments.runner import ExperimentContext
from repro.nn.restrict import ActivationFilter, WeightRestriction
from repro.timing.selection import DelaySelector
from repro import scale_voltage


def main() -> None:
    # Stage progress is logged on "repro.pipeline" at INFO.
    logging.basicConfig(level=logging.INFO,
                        format="[powerpruner] %(message)s")
    spec = NETWORK_SPECS[1]  # ResNet-20 on the CIFAR-10-like task
    context = ExperimentContext(spec, scale="ci")
    print(f"baseline accuracy:  {context.accuracy_orig * 100:.1f}%")
    print(f"pruned accuracy:    {context.accuracy_pruned * 100:.1f}%")

    table = context.power_table
    print("\n--- power/accuracy frontier (Optimized HW) ---")
    print("threshold[uW]  #weights  accuracy  power[mW]")
    frontier = []
    for threshold in (None, 900.0, 850.0, 800.0):
        model = context.reset_model()
        if threshold is None:
            allowed = table.weights
            accuracy = context.accuracy_pruned
        else:
            allowed = table.select_below(threshold)
            if allowed.size < 2:
                continue
            model.set_weight_restriction(WeightRestriction(allowed))
            accuracy = context.retrain(model)
        __, power_opt = context.measure_power(model)
        frontier.append((threshold, allowed.size, accuracy, power_opt))
        label = "None" if threshold is None else f"{threshold:.0f}"
        print(f"{label:>13}  {allowed.size:8d}  {accuracy * 100:7.1f}%"
              f"  {power_opt.total_uw / 1000:8.1f}")

    # Pick the tightest threshold within 5% absolute accuracy drop, then
    # add the timing-aware stage on top.
    viable = [f for f in frontier
              if f[2] >= context.accuracy_pruned - 0.05 and f[0]]
    if not viable:
        print("no restricted point met the accuracy budget")
        return
    threshold = viable[-1][0]
    print(f"\nchosen power threshold: {threshold:.0f} uW")

    candidates = table.select_below(threshold)
    timing = context.timing_table(candidates)
    selector = DelaySelector(timing,
                             n_restarts=context.config.n_restarts)
    selection = selector.select(160.0, candidate_weights=candidates)
    model = context.reset_model()
    model.set_weight_restriction(WeightRestriction(selection.weights))
    model.set_activation_filter(ActivationFilter(selection.activations))
    accuracy = context.retrain(model)
    scaling = scale_voltage(selection.max_delay_ps, 180.0)
    __, power = context.measure_power(model, vdd=scaling.vdd)
    print(f"after delay selection @160 ps + voltage scaling "
          f"({scaling.scaling_factor_label}):")
    print(f"  accuracy {accuracy * 100:.1f}%, "
          f"power {power.total_uw / 1000:.1f} mW, "
          f"{selection.n_weights} weights / "
          f"{selection.n_activations} activations")


if __name__ == "__main__":
    main()
