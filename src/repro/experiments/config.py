"""Experiment scales and the four network/dataset pairs of Table I."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.core.pipeline import PipelineConfig
from repro.hw import DEFAULT_BACKEND_ID, HardwareBackend


@dataclass(frozen=True)
class NetworkSpec:
    """One Table I row's workload."""

    network: str
    dataset: str
    num_classes: int
    label: str


#: The paper's four network-dataset combinations.
NETWORK_SPECS: Tuple[NetworkSpec, ...] = (
    NetworkSpec("lenet5", "cifar10", 10, "LeNet-5-CIFAR-10"),
    NetworkSpec("resnet20", "cifar10", 10, "ResNet-20-CIFAR-10"),
    NetworkSpec("resnet50", "cifar100", 20, "ResNet-50-CIFAR-100"),
    NetworkSpec("efficientnet-b0-lite", "imagenet", 20,
                "EfficientNet-B0-Lite-ImageNet"),
)


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that trade fidelity for runtime.

    ``paper`` restores the paper's nominal settings (full datasets are
    still synthetic — see DESIGN.md for the substitution record).
    """

    name: str
    width_mult: float
    depth_mult: float
    n_train: int
    n_test: int
    baseline_epochs: int
    retrain_epochs: int
    char_weight_step: int
    char_samples: int
    timing_transitions: Optional[int]
    n_restarts: int
    stats_batch: int
    power_max_drop: float
    delay_max_drop_fraction: float


SCALES: Dict[str, ExperimentScale] = {
    "smoke": ExperimentScale(
        name="smoke", width_mult=0.35, depth_mult=0.5,
        n_train=500, n_test=200, baseline_epochs=4, retrain_epochs=1,
        char_weight_step=16, char_samples=400, timing_transitions=2000,
        n_restarts=3, stats_batch=8,
        # smoke-scale retraining is 1 epoch on tiny data: accuracy noise
        # would otherwise swamp the paper's 3%/5% stopping budgets
        power_max_drop=0.10, delay_max_drop_fraction=0.15,
    ),
    "ci": ExperimentScale(
        name="ci", width_mult=0.5, depth_mult=0.75,
        n_train=800, n_test=300, baseline_epochs=8, retrain_epochs=2,
        char_weight_step=4, char_samples=1500, timing_transitions=8000,
        n_restarts=10, stats_batch=16,
        power_max_drop=0.05, delay_max_drop_fraction=0.08,
    ),
    "paper": ExperimentScale(
        name="paper", width_mult=1.0, depth_mult=1.0,
        n_train=20000, n_test=4000, baseline_epochs=30, retrain_epochs=8,
        char_weight_step=1, char_samples=10000, timing_transitions=None,
        n_restarts=20, stats_batch=100,
        power_max_drop=0.03, delay_max_drop_fraction=0.05,
    ),
}


def get_scale(scale: str) -> ExperimentScale:
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; choose from {sorted(SCALES)}"
        ) from None


#: Per-network training tweaks: BN-heavy residual networks want a higher
#: initial learning rate with a decay step; plain LeNet does not.
NETWORK_TRAINING = {
    "lenet5": {"lr": 0.05, "lr_decay_epochs": ()},
    "resnet20": {"lr": 0.1, "lr_decay_epochs": (6,)},
    "resnet50": {"lr": 0.1, "lr_decay_epochs": (6,)},
    "efficientnet-b0-lite": {"lr": 0.05, "lr_decay_epochs": (6,)},
}


def pipeline_config(spec: NetworkSpec, scale: str = "ci",
                    seed: int = 0,
                    backend: Union[str, HardwareBackend] = DEFAULT_BACKEND_ID,
                    accel=None) -> PipelineConfig:
    """PipelineConfig for one network spec at the requested scale.

    Args:
        spec: The network/dataset pair.
        scale: Experiment scale (``smoke``/``ci``/``paper``).
        seed: Seed threaded through every stage.
        backend: Hardware-backend id or :class:`~repro.hw.HardwareBackend`
            spec.  The config holds the spec, so a user-defined backend
            needs no registry entry, in this process or in a worker.
        accel: Optional :class:`~repro.systolic.spec.AcceleratorSpec`
            design point for the ``accel_*`` stages; keys only those
            stages, so accelerator sweeps share the training/
            characterization prefix.
    """
    s = get_scale(scale)
    training = NETWORK_TRAINING.get(spec.network, {})
    return PipelineConfig(
        lr=training.get("lr", 0.05),
        lr_decay_epochs=training.get("lr_decay_epochs", ()),
        backend=backend,
        accel=accel,
        network=spec.network,
        dataset=spec.dataset,
        num_classes=spec.num_classes,
        width_mult=s.width_mult,
        depth_mult=s.depth_mult,
        n_train=s.n_train,
        n_test=s.n_test,
        baseline_epochs=s.baseline_epochs,
        retrain_epochs=s.retrain_epochs,
        char_weight_step=s.char_weight_step,
        char_samples=s.char_samples,
        timing_transitions=s.timing_transitions,
        n_restarts=s.n_restarts,
        stats_batch=s.stats_batch,
        power_max_drop=s.power_max_drop,
        delay_max_drop_fraction=s.delay_max_drop_fraction,
        seed=seed,
    )
