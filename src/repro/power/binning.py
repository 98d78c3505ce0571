"""Partial-sum binning and bin-level transitions (paper Sec. III-A2).

A 22-bit partial sum has ~1.8e13 possible transitions — far more than any
simulation can populate.  The paper therefore groups partial sums into a
small number of bins (50 in the experiments) by *bit-pattern similarity*:
bins are seeded with randomly chosen partial sums, and every further value
joins the bin whose members differ from it in the fewest bits on average.
Transition statistics are then collected between bins, and stimulus
sampling draws a concrete member value from each bin.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.power.transitions import TransitionDistribution
from repro.sim.logic import int_to_bits


class PartialSumBinner:
    """Bit-similarity binning of partial-sum values.

    The average Hamming distance between a value and a bin's members
    equals the distance between the value's bit vector and the bin's
    *centroid* (per-bit mean), so assignment works on centroids and stays
    cheap even for large observation sets.

    Args:
        n_bins: Number of bins (50 in the paper).
        bits: Partial-sum width (22 for the 64x64 array).
        exemplars_per_bin: How many concrete member values to remember per
            bin for stimulus generation.
    """

    def __init__(self, n_bins: int = 50, bits: int = 22,
                 exemplars_per_bin: int = 64) -> None:
        if n_bins < 2:
            raise ValueError("need at least two bins")
        self.n_bins = n_bins
        self.bits = bits
        self.exemplars_per_bin = exemplars_per_bin
        self._centroids: Optional[np.ndarray] = None  # (n_bins, bits)
        self._counts: Optional[np.ndarray] = None
        self._exemplars: Optional[List[np.ndarray]] = None
        # Lazy dense views of the exemplars backing sample_members:
        # a padded (n_bins, max_members) matrix plus per-bin sizes.
        self._exemplar_matrix: Optional[np.ndarray] = None
        self._exemplar_sizes: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def fit(self, observed: np.ndarray,
            rng: Optional[np.random.Generator] = None,
            chunk: int = 65536) -> "PartialSumBinner":
        """Build the bins from observed partial-sum values.

        Follows the paper's procedure: random seeding, then a single
        sequential pass assigning each value to the closest bin (measured
        as mean bit difference) while the centroids track their members.
        """
        rng = rng or np.random.default_rng()
        observed = np.asarray(observed, dtype=np.int64).ravel()
        if observed.size < self.n_bins:
            raise ValueError(
                f"need at least {self.n_bins} observations, "
                f"got {observed.size}"
            )
        order = rng.permutation(observed.size)
        observed = observed[order]

        # Prefer distinct seeds so bins do not collapse onto each other.
        distinct = np.unique(observed)
        if distinct.size >= self.n_bins:
            seeds = rng.choice(distinct, size=self.n_bins, replace=False)
        else:
            seeds = observed[: self.n_bins]
        centroids = int_to_bits(seeds, self.bits).astype(np.float64)
        counts = np.ones(self.n_bins, dtype=np.int64)
        # Exemplars as (bin, value) picks in the order they were made;
        # a stable sort by bin at the end lists each bin's in that order.
        pick_bins = [np.arange(self.n_bins)]
        pick_values = [seeds]
        picked = np.ones(self.n_bins, dtype=np.int64)

        for start in range(0, observed.size, chunk):
            values = observed[start:start + chunk]
            distinct, inverse, multiplicity = np.unique(
                values, return_inverse=True, return_counts=True)
            nearest = self._nearest_distinct(distinct, values.size,
                                             centroids)
            assigned = nearest[inverse]
            # Bits are 0/1, so the members' bit sums are exact integers,
            # whatever order they are added in.
            sums = np.zeros((self.n_bins, self.bits), dtype=np.int64)
            np.add.at(sums, nearest,
                      int_to_bits(distinct, self.bits) * multiplicity[:, None])
            joined = np.bincount(assigned, minlength=self.n_bins)
            hit = joined > 0
            centroids[hit] = (
                centroids[hit] * counts[hit, None] + sums[hit]
            ) / (counts[hit] + joined[hit])[:, None]
            counts += joined
            room = self.exemplars_per_bin - picked
            if (room > 0).any():
                # Each bin's first ``room`` members, in stream order.
                order = np.argsort(assigned, kind="stable")
                ranked = assigned[order]
                rank = (np.arange(order.size)
                        - np.searchsorted(ranked, ranked))
                keep = rank < room[ranked]
                pick_bins.append(ranked[keep])
                pick_values.append(values[order[keep]])
                picked += np.bincount(ranked[keep], minlength=self.n_bins)

        bins = np.concatenate(pick_bins)
        members = np.concatenate(pick_values)[np.argsort(bins, kind="stable")]
        self._centroids = centroids
        self._counts = counts
        self._exemplars = np.split(members, np.cumsum(picked)[:-1])
        self._exemplar_matrix = None
        self._exemplar_sizes = None
        return self

    def _nearest_distinct(self, distinct: np.ndarray, n_values: int,
                          centroids: np.ndarray) -> np.ndarray:
        """Closest bin of each of the sorted ``distinct`` values of an
        ``n_values``-long batch, by expected Hamming distance.

        For 0/1 bits the expected Hamming distance to a centroid ``c`` is
        ``sum(c) + bits @ (1 - 2c)``: one matmul row per distinct value.
        A row's distances come out the same bits whatever the other
        rows of a product (checked with OpenBLAS from 2 to 65 536 rows),
        but numpy hands a one-row product to the matrix-vector routine,
        which rounds differently.  So a batch of several copies of one
        value keeps two rows, and a batch of one value keeps one, as
        the product over every observation had.
        """
        rows = distinct
        if distinct.size == 1 and n_values > 1:
            rows = np.repeat(distinct, 2)
        bits = int_to_bits(rows, self.bits).astype(np.float64)
        distance = (centroids.sum(axis=1)[None, :]
                    + bits @ (1.0 - 2.0 * centroids.T))
        return distance.argmin(axis=1)[:distinct.size]

    @property
    def fitted(self) -> bool:
        return self._centroids is not None

    def _require_fit(self) -> None:
        if not self.fitted:
            raise RuntimeError("binner not fitted; call fit() first")

    # ------------------------------------------------------------------
    # use
    # ------------------------------------------------------------------
    def assign(self, values: np.ndarray) -> np.ndarray:
        """Bin index of each value (nearest centroid in mean bit diff)."""
        self._require_fit()
        values = np.asarray(values, dtype=np.int64)
        distinct, inverse = np.unique(values, return_inverse=True)
        nearest = self._nearest_distinct(distinct, values.size,
                                         self._centroids)
        return nearest[inverse.reshape(values.shape)]

    def sample_members(self, bin_ids: np.ndarray,
                       rng: Optional[np.random.Generator] = None
                       ) -> np.ndarray:
        """Draw one concrete partial-sum value per requested bin.

        Bit-for-bit identical to the historical per-bin
        ``out[bin_ids == b] = rng.choice(members, size=...)`` loop
        (property-tested against it), consuming the generator
        identically: ``rng.choice(members, size=m)`` with replacement
        draws exactly ``rng.integers(0, members.size, size=m)`` indices
        but re-validates its arguments per call — ~2x the cost when
        called once per occupied bin per weight.  A stable argsort
        groups each bin's positions contiguously (ascending original
        index, the same fill order the boolean mask produced);
        consecutive bins sharing a member count fold into a *single*
        ``integers`` call (element-wise bounded generation consumes the
        bit stream identically whether drawn in one call or several,
        property-tested), and a padded exemplar matrix turns the member
        lookup into one vectorized gather.
        """
        self._require_fit()
        rng = rng or np.random.default_rng()
        bin_ids = np.asarray(bin_ids, dtype=np.int64).ravel()
        out = np.empty(bin_ids.size, dtype=np.int64)
        if not bin_ids.size:
            return out
        matrix, sizes = self._exemplar_views()
        order = np.argsort(bin_ids, kind="stable")
        sorted_ids = bin_ids[order]
        run_starts = [0] + (np.nonzero(sorted_ids[1:]
                                       != sorted_ids[:-1])[0]
                            + 1).tolist() + [bin_ids.size]
        draws = np.empty(bin_ids.size, dtype=np.int64)
        n_runs = len(run_starts) - 1
        i = 0
        while i < n_runs:
            lo = run_starts[i]
            bound = sizes[sorted_ids[lo]]
            j = i + 1
            while (j < n_runs
                   and sizes[sorted_ids[run_starts[j]]] == bound):
                j += 1
            hi = run_starts[j]
            draws[lo:hi] = rng.integers(0, bound, size=hi - lo)
            i = j
        out[order] = matrix[sorted_ids, draws]
        return out

    def _exemplar_views(self) -> Tuple[np.ndarray, np.ndarray]:
        """Padded ``(n_bins, max_members)`` exemplar matrix + sizes.

        Built lazily from the ragged exemplar lists (immutable after
        :meth:`fit`); padding slots are never indexed because sampled
        member indices are always below the owning bin's size.
        """
        if getattr(self, "_exemplar_matrix", None) is None:
            sizes = np.array([e.size for e in self._exemplars],
                             dtype=np.int64)
            matrix = np.zeros((self.n_bins, int(sizes.max())),
                              dtype=np.int64)
            for b, members in enumerate(self._exemplars):
                matrix[b, :members.size] = members
            self._exemplar_matrix = matrix
            self._exemplar_sizes = sizes
        return self._exemplar_matrix, self._exemplar_sizes

    def bin_sizes(self) -> np.ndarray:
        """Number of observations absorbed by each bin during fitting."""
        self._require_fit()
        return self._counts.copy()


class BinnedTransitions:
    """Bin-level transition distribution of the partial sums (Fig. 4b)."""

    def __init__(self, binner: PartialSumBinner,
                 distribution: TransitionDistribution) -> None:
        if distribution.n_codes != binner.n_bins:
            raise ValueError("distribution size must equal bin count")
        self.binner = binner
        self.distribution = distribution

    @classmethod
    def from_stream(cls, binner: PartialSumBinner,
                    psum_stream: np.ndarray) -> "BinnedTransitions":
        """Count transitions between the bins of consecutive partial sums."""
        bins = binner.assign(np.asarray(psum_stream).ravel())
        dist = TransitionDistribution.from_stream(bins, binner.n_bins)
        return cls(binner, dist)

    def sample_values(self, n_samples: int,
                      rng: Optional[np.random.Generator] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw concrete ``(psum_from, psum_to)`` stimulus pairs.

        Bin pairs are drawn from the bin-transition distribution and then
        materialized with a stored member value of each bin, which is how
        the characterizer turns bin statistics back into bit patterns.
        """
        rng = rng or np.random.default_rng()
        bin_from, bin_to = self.distribution.sample(n_samples, rng)
        return (self.binner.sample_members(bin_from, rng),
                self.binner.sample_members(bin_to, rng))
