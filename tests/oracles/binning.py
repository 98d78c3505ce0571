"""Oracle of the partial-sum binner in :mod:`repro.power.binning`.

:func:`fit` is the per-bin loop that ``PartialSumBinner.fit`` replaced:
for each chunk of the shuffled stream, one distance product over every
observation, then a Python loop over the bins that updates each
centroid from its members and keeps their first values as exemplars.
:func:`assign` is the full-batch assignment: one product row per value.
The production binner must reproduce both exactly: centroid bytes,
counts, exemplars and assignments.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.power.binning import PartialSumBinner
from repro.sim.logic import int_to_bits


def nearest_bins(bits: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Closest centroid per 0/1 bit row by expected Hamming distance."""
    offsets = centroids.sum(axis=1)
    distance = offsets[None, :] + bits @ (1.0 - 2.0 * centroids.T)
    return distance.argmin(axis=1)


def fit(binner: PartialSumBinner, observed: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        chunk: int = 65536) -> PartialSumBinner:
    """Fit ``binner`` as ``PartialSumBinner.fit`` does, with the loop."""
    rng = rng or np.random.default_rng()
    observed = np.asarray(observed, dtype=np.int64).ravel()
    if observed.size < binner.n_bins:
        raise ValueError(f"need at least {binner.n_bins} observations")
    observed = observed[rng.permutation(observed.size)]
    distinct = np.unique(observed)
    if distinct.size >= binner.n_bins:
        seeds = rng.choice(distinct, size=binner.n_bins, replace=False)
    else:
        seeds = observed[:binner.n_bins]
    centroids = int_to_bits(seeds, binner.bits).astype(np.float64)
    counts = np.ones(binner.n_bins, dtype=np.int64)
    exemplars: List[List[int]] = [[int(s)] for s in seeds]

    for start in range(0, observed.size, chunk):
        values = observed[start:start + chunk]
        bits = int_to_bits(values, binner.bits).astype(np.float64)
        assigned = nearest_bins(bits, centroids)
        for b in range(binner.n_bins):
            members = bits[assigned == b]
            if not members.size:
                continue
            m = members.shape[0]
            centroids[b] = (
                centroids[b] * counts[b] + members.sum(axis=0)
            ) / (counts[b] + m)
            counts[b] += m
            room = binner.exemplars_per_bin - len(exemplars[b])
            if room > 0:
                chosen = values[assigned == b][:room]
                exemplars[b].extend(int(v) for v in chosen)

    binner._centroids = centroids
    binner._counts = counts
    binner._exemplars = [np.asarray(e, dtype=np.int64) for e in exemplars]
    binner._exemplar_matrix = None
    binner._exemplar_sizes = None
    return binner


def assign(binner: PartialSumBinner, values: np.ndarray) -> np.ndarray:
    """Bin of each value, one product row per value."""
    values = np.asarray(values, dtype=np.int64)
    bits = int_to_bits(values.ravel(), binner.bits).astype(np.float64)
    return nearest_bins(bits, binner._centroids).reshape(values.shape)
