"""Property-based guarantees of the oracle's online median.

Two contracts back the streaming engine's equivalence claim:

* :class:`ExactMedian` — the per-key buffer of the per-record oracle
  in ``test_batch_ingest.py`` — equals ``numpy.median`` on **every
  prefix** of the stream, is invariant under within-bin permutation,
  and handles NaN exactly like the batch kernels (propagate, never
  skip);
* finalizing a bin through the engine's kernel call
  (``bin_medians`` over the buffered samples, on either backend)
  equals the estimator's
  own value — the two routes to a closed bin's median agree.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.kernels.flat import bin_medians
from repro.core.kernels.reference import REFERENCE
from repro.core.kernels.vector import VECTOR
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
