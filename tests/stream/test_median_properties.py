"""Property-based guarantees of the online median estimators.

Three contracts back the streaming engine's equivalence claim:

* :class:`ExactMedian` — the per-key buffer of the per-record oracle
  in ``test_batch_ingest.py`` — equals ``numpy.median`` on **every
  prefix** of the stream, is invariant under within-bin permutation,
  and handles NaN exactly like the batch kernels (propagate, never
  skip);
* finalizing a bin through the engine's kernel call
  (``bin_medians`` over the buffered samples, on either backend)
  equals the estimator's
  own value — the two routes to a closed bin's median agree;
* :class:`P2Median` is exact through its first five samples, always
  lies within the observed sample range, is permanently poisoned by
  NaN, and tracks the exact median within the documented tolerance
  (≤ 1 standard deviation on unimodal data — empirically ≲ 0.4 sd;
  see DESIGN.md §13) while holding five markers regardless of n.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels.flat import bin_medians
from repro.core.kernels.reference import REFERENCE
from repro.core.kernels.vector import VECTOR
from repro.stream import P2Median
from tests.stream.test_batch_ingest import ExactMedian

finite_samples = st.lists(
    st.floats(min_value=0.1, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=60,
)


class TestExactMedian:
    @given(finite_samples)
    def test_matches_numpy_on_every_prefix(self, samples):
        estimator = ExactMedian()
        for i, sample in enumerate(samples, start=1):
            estimator.add(sample)
            assert estimator.n == i
            assert estimator.value() == float(np.median(samples[:i]))

    @given(finite_samples, st.integers(min_value=0, max_value=2**31))
    def test_permutation_invariant(self, samples, seed):
        rng = np.random.default_rng(seed)
        shuffled = [samples[i] for i in rng.permutation(len(samples))]
        a, b = ExactMedian(), ExactMedian()
        a.extend(samples)
        b.extend(shuffled)
        assert a.value() == b.value()

    @given(
        finite_samples,
        st.integers(min_value=0, max_value=59),
    )
    def test_nan_poisons_like_numpy(self, samples, position):
        """A NaN sample anywhere makes the median NaN — the kernels'
        behaviour (``numpy.median``, not ``nanmedian``)."""
        samples = list(samples)
        samples.insert(min(position, len(samples)), float("nan"))
        estimator = ExactMedian()
        estimator.extend(samples)
        assert np.isnan(estimator.value())
        assert np.isnan(np.median(samples))

    def test_empty_is_nan(self):
        assert np.isnan(ExactMedian().value())

    @given(finite_samples)
    def test_kernel_finalization_agrees(self, samples):
        """The engine's two routes to a closed bin — the estimator's
        value and ``bin_medians`` over its buffer — are one number."""
        estimator = ExactMedian()
        estimator.extend(samples)
        count = max(len(samples), 3)  # past the sanity threshold
        for kernels in (REFERENCE, VECTOR):
            medians, _ = bin_medians(
                np.zeros(len(samples), dtype=np.int64),
                np.asarray(estimator.samples()),
                np.array([count], dtype=np.int64), 3, kernels,
            )
            assert float(medians[0]) == estimator.value()


class TestP2Median:
    @given(st.lists(
        st.floats(min_value=0.1, max_value=1e6, allow_nan=False,
                  allow_infinity=False),
        min_size=1, max_size=5,
    ))
    def test_exact_through_five_samples(self, samples):
        estimator = P2Median()
        estimator.extend(samples)
        assert estimator.value() == float(np.median(samples))

    @given(finite_samples)
    def test_estimate_within_sample_range(self, samples):
        estimator = P2Median()
        estimator.extend(samples)
        assert min(samples) <= estimator.value() <= max(samples)

    @given(finite_samples, finite_samples)
    def test_nan_poisons_permanently(self, before, after):
        estimator = P2Median()
        estimator.extend(before)
        estimator.add(float("nan"))
        estimator.extend(after)
        assert np.isnan(estimator.value())
        assert estimator.n == len(before) + len(after) + 1

    @settings(max_examples=200)
    @given(
        st.integers(min_value=20, max_value=400),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_tracks_median_within_one_sd_on_unimodal_data(
        self, n, seed
    ):
        """The documented P² tolerance: within one standard deviation
        of the exact median on unimodal data (observed worst case is
        ≈ 0.4 sd; the bound leaves 2× headroom against unlucky
        draws)."""
        sd = 2.0
        rng = np.random.default_rng(seed)
        data = rng.normal(10.0, sd, n)
        estimator = P2Median()
        estimator.extend(data)
        assert abs(estimator.value() - float(np.median(data))) <= sd

    def test_constant_memory_markers(self):
        """Past five samples the estimator holds exactly five markers
        — no buffer growth with n."""
        estimator = P2Median()
        rng = np.random.default_rng(0)
        estimator.extend(rng.normal(5.0, 1.0, 10_000))
        assert estimator.n == 10_000
        assert len(estimator._q) == 5
        assert len(estimator._initial) == 5
