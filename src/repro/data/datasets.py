"""Named dataset builders mirroring the paper's benchmarks."""

from __future__ import annotations

from typing import Tuple

from repro.data.synthetic import SyntheticImageDataset, generate

#: ``(channels, height, width)`` of every dataset's images.  The builders
#: default to it, and the pipeline traces layer geometry on it without
#: generating a dataset.
IMAGE_SHAPE: Tuple[int, int, int] = (3, 32, 32)
_CHANNELS, _HW, _ = IMAGE_SHAPE


def cifar10_like(n_train: int = 2000, n_test: int = 500,
                 hw: int = _HW, seed: int = 0) -> SyntheticImageDataset:
    """10-class, 32x32x3 stand-in for CIFAR-10."""
    return generate("cifar10-like", num_classes=10, n_train=n_train,
                    n_test=n_test, hw=hw, channels=_CHANNELS, seed=seed)


def cifar100_like(n_train: int = 4000, n_test: int = 1000,
                  hw: int = _HW, num_classes: int = 100,
                  seed: int = 1) -> SyntheticImageDataset:
    """100-class, 32x32x3 stand-in for CIFAR-100.

    The class count can be reduced for CI-scale runs (the paper-scale
    configuration keeps all 100).
    """
    return generate("cifar100-like", num_classes=num_classes,
                    n_train=n_train, n_test=n_test, hw=hw,
                    channels=_CHANNELS, noise=1.5, seed=seed)


def imagenet_like(n_train: int = 4000, n_test: int = 1000, hw: int = _HW,
                  num_classes: int = 50,
                  seed: int = 2) -> SyntheticImageDataset:
    """Reduced-resolution, reduced-class stand-in for ImageNet.

    Full 224x224x1000-class training is far outside an offline CPU
    budget; the substitution keeps what the experiments consume — a
    harder, many-class task feeding EfficientNet-B0-Lite — at a
    configurable scale (documented in DESIGN.md).
    """
    return generate("imagenet-like", num_classes=num_classes,
                    n_train=n_train, n_test=n_test, hw=hw,
                    channels=_CHANNELS, noise=1.5, max_shift=3, seed=seed)


_BUILDERS = {
    "cifar10": cifar10_like,
    "cifar100": cifar100_like,
    "imagenet": imagenet_like,
}


def load_dataset(name: str, **kwargs) -> SyntheticImageDataset:
    """Build a dataset by paper name (``cifar10``/``cifar100``/
    ``imagenet``)."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; available: {sorted(_BUILDERS)}"
        ) from None
    return builder(**kwargs)
