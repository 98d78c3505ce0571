"""Quickstart: run the full PowerPruning flow on LeNet-5.

Trains an 8-bit quantization-aware LeNet-5 on a synthetic CIFAR-10-like
task, characterizes per-weight MAC power and timing, selects weight and
activation values, retrains, scales the supply voltage, and prints a
Table I style report.

Run:
    python examples/quickstart.py
"""

import logging

from repro import PipelineConfig, PowerPruner, format_table1


def main() -> None:
    # Stage progress is logged on "repro.pipeline" at INFO.
    logging.basicConfig(level=logging.INFO,
                        format="[powerpruner] %(message)s")
    config = PipelineConfig(
        network="lenet5",
        dataset="cifar10",
        width_mult=0.5,        # reduced-scale model for a fast demo
        n_train=800,
        n_test=300,
        baseline_epochs=5,
        retrain_epochs=2,
        char_weight_step=4,    # characterize every 4th weight value
        char_samples=1500,     # paper uses 10000
        timing_transitions=8000,  # paper enumerates all 65536
        n_restarts=10,         # paper uses 20
    )
    pruner = PowerPruner(config)
    report = pruner.run()

    print()
    print(format_table1([report]))
    print()
    print(f"Optimized-HW power reduction: {report.reduction_opt:.1f}% "
          f"(paper: 73.9% for LeNet-5-CIFAR-10)")
    print(f"Standard-HW power reduction:  {report.reduction_std:.1f}% "
          f"(paper: 46.0%)")
    print(f"Supply voltage: {report.voltage_label} "
          f"(paper: 0.71/0.8)")
    print(f"Accuracy: {report.accuracy_orig * 100:.1f}% -> "
          f"{report.accuracy_prop * 100:.1f}%")


if __name__ == "__main__":
    main()
