"""Synthetic image datasets standing in for CIFAR-10/100 and ImageNet.

No network access is available, so the real datasets are replaced by
procedurally generated, class-structured images (documented substitution;
see DESIGN.md).  PowerPruning consumes transition statistics and accuracy
*deltas* under weight/activation restriction, both of which a learnable
synthetic task exercises.
"""

from repro.data.synthetic import SyntheticImageDataset
from repro.data.datasets import (
    IMAGE_SHAPE,
    cifar10_like,
    cifar100_like,
    imagenet_like,
    load_dataset,
)

__all__ = [
    "IMAGE_SHAPE",
    "SyntheticImageDataset",
    "cifar10_like",
    "cifar100_like",
    "imagenet_like",
    "load_dataset",
]
