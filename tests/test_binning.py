"""The partial-sum binner equals its loop oracle exactly.

``PartialSumBinner.fit`` updates the centroids from per-bin group sums
and picks exemplars with a stable sort, and both ``fit`` and ``assign``
compute distances once per distinct value.  ``tests/oracles/binning.py``
keeps the per-bin loop and the one-row-per-value assignment it
replaced; centroid bytes, counts, exemplars and assignments must agree
on every stream.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import binning as oracle
from oracles.nn_kernels import BIT_EXACT
from repro.power.binning import PartialSumBinner

PSUM_LIMIT = 1 << 21  # 22-bit signed partial sums


def _fit_both(stream, n_bins, chunk, exemplars, seed):
    new = PartialSumBinner(n_bins=n_bins, exemplars_per_bin=exemplars)
    old = PartialSumBinner(n_bins=n_bins, exemplars_per_bin=exemplars)
    new.fit(stream, rng=np.random.default_rng(seed), chunk=chunk)
    oracle.fit(old, stream, rng=np.random.default_rng(seed), chunk=chunk)
    return new, old


def _assert_same_bins(new, old):
    assert new._centroids.tobytes() == old._centroids.tobytes()
    assert new._counts.dtype == old._counts.dtype
    np.testing.assert_array_equal(new._counts, old._counts)
    assert len(new._exemplars) == len(old._exemplars)
    for got, want in zip(new._exemplars, old._exemplars):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@st.composite
def _streams(draw):
    """A stream over a few distinct values, one of which takes a drawn
    share of it, and a chunk size from 1 to past its length."""
    n_bins = draw(st.integers(2, 12))
    pool = np.array(draw(st.lists(
        st.integers(-PSUM_LIMIT, PSUM_LIMIT - 1), min_size=1, max_size=40,
        unique=True)), dtype=np.int64)
    size = draw(st.integers(n_bins, 300))
    dominant = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stream = pool[rng.integers(0, pool.size, size)]
    stream[rng.random(size) < dominant] = pool[0]
    chunk = draw(st.integers(1, size + 3))
    return stream, n_bins, chunk


@settings(max_examples=150, deadline=None)
@given(_streams(), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
@example((np.arange(61, dtype=np.int64) * 977, 5, 20), 4, 0)  # 1-value tail
@example((np.full(40, -77, dtype=np.int64), 4, 8), 3, 1)  # 1 distinct
@example((np.repeat(np.arange(3, dtype=np.int64), 10), 8, 7), 2, 2)
def test_binner_matches_loop_oracle(case, exemplars, seed):
    stream, n_bins, chunk = case
    new, old = _fit_both(stream, n_bins, chunk, exemplars, seed)
    _assert_same_bins(new, old)
    rng = np.random.default_rng(seed)
    queries = [stream, stream[:1], np.full(5, stream[-1]),
               stream.reshape(1, -1, 1),
               rng.integers(-PSUM_LIMIT, PSUM_LIMIT, 37)]
    for values in queries:
        got = new.assign(values)
        want = oracle.assign(old, values)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


@pytest.mark.skipif(not BIT_EXACT, reason="row rounding checked with "
                    "numpy 2.4 and OpenBLAS on x86-64 only")
def test_batches_of_one_value_keep_the_rounding_of_their_product():
    """Centroids that permute one set of values tie some bins up to the
    rounding of the distance sums, where a one-row product (BLAS's
    matrix-vector routine) can pick another bin than a product of more
    rows.  Copies of one value must pick the bin of the product over
    every copy, and a lone value that of its one-row product."""
    rng = np.random.default_rng(0)
    shares = rng.choice([0.1, 0.3, 0.7], 22)
    binner = PartialSumBinner(n_bins=50)
    binner._centroids = np.stack([rng.permutation(shares)
                                  for __ in range(50)])
    for value in rng.integers(-PSUM_LIMIT, PSUM_LIMIT, 300):
        for values in (np.full(3, value), np.array([value])):
            np.testing.assert_array_equal(binner.assign(values),
                                          oracle.assign(binner, values))


def _row_stream(size=1_000_000, distinct=30_000, seed=0):
    """A stream shaped like a smoke Table I row's partial sums: ~1 M
    observations of ~30 k distinct values, a few of them very common."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(-PSUM_LIMIT, PSUM_LIMIT, distinct)
    return pool[rng.zipf(1.3, size) % distinct]


def test_binner_matches_loop_oracle_on_a_row_sized_stream():
    stream = _row_stream(200_000, 20_000)
    new, old = _fit_both(stream, 50, 65536, 64, 3)
    _assert_same_bins(new, old)
    np.testing.assert_array_equal(new.assign(stream),
                                  oracle.assign(old, stream))


def test_binner_memory_is_bounded_by_distinct_values():
    """The binned-transition step fits on the from and to halves of the
    stored pairs and assigns each half; per-value distance rows took
    ~500 MB here."""
    stream = _row_stream()
    half = stream.size // 2
    tracemalloc.start()
    try:
        binner = PartialSumBinner(n_bins=50, bits=22)
        binner.fit(stream, rng=np.random.default_rng(0))
        binner.assign(stream[:half])
        binner.assign(stream[half:])
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 150e6, f"peak {peak / 1e6:.0f} MB"
