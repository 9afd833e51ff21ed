"""Property-based tests for the Wilson rank-based confidence band."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import (
    _wilson_z,
    wilson_rank_bounds,
    wilson_score_interval,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6,
    allow_nan=False, allow_infinity=False,
)


def test_wilson_z_is_norm_ppf_bit_for_bit():
    """``ndtri`` stands in for ``scipy.stats.norm.ppf`` so the anomaly
    detector never imports ``scipy.stats``; the two must agree on
    every bit, or the anomaly goldens move."""
    from scipy.stats import norm

    confidences = np.concatenate([
        np.linspace(1e-6, 1.0 - 1e-6, 50_000),
        [0.5, 0.9, 0.95, 0.99],
    ])
    expected = norm.ppf(1.0 - (1.0 - confidences) / 2.0)
    got = np.array([_wilson_z.__wrapped__(c) for c in confidences])
    assert np.array_equal(got, expected)


class TestRankBounds:
    @pytest.mark.parametrize("n", [-3, 0, 1])
    def test_tiny_n_is_nan(self, n):
        lo, hi = wilson_rank_bounds(n)
        assert np.isnan(lo) and np.isnan(hi)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
    def test_confidence_domain_enforced(self, bad):
        with pytest.raises(ValueError):
            wilson_rank_bounds(10, confidence=bad)

    @given(n=st.integers(min_value=2, max_value=10_000))
    def test_bounds_bracket_the_median_proportion(self, n):
        lo, hi = wilson_rank_bounds(n)
        assert 0.0 < lo < 0.5 < hi < 1.0

    @given(n=st.integers(min_value=2, max_value=5_000))
    def test_band_narrows_as_n_grows(self, n):
        lo_n, hi_n = wilson_rank_bounds(n)
        lo_2n, hi_2n = wilson_rank_bounds(2 * n)
        assert hi_2n - lo_2n < hi_n - lo_n

    @given(n=st.integers(min_value=2, max_value=5_000))
    def test_band_widens_with_confidence(self, n):
        lo_95, hi_95 = wilson_rank_bounds(n, 0.95)
        lo_99, hi_99 = wilson_rank_bounds(n, 0.99)
        assert lo_99 < lo_95 and hi_95 < hi_99


class TestScoreInterval:
    @given(samples=st.lists(finite_floats, max_size=1))
    def test_under_two_samples_is_nan(self, samples):
        lo, hi = wilson_score_interval(samples)
        assert np.isnan(lo) and np.isnan(hi)

    @given(samples=st.lists(finite_floats, min_size=2, max_size=200))
    def test_band_contains_sample_median(self, samples):
        lo, hi = wilson_score_interval(samples)
        median = float(np.median(samples))
        assert lo <= median + 1e-9
        assert median - 1e-9 <= hi

    @given(samples=st.lists(finite_floats, min_size=2, max_size=200))
    def test_band_endpoints_are_observed_values(self, samples):
        lo, hi = wilson_score_interval(samples)
        assert lo in samples
        assert hi in samples
        assert lo <= hi

    @given(
        samples=st.lists(finite_floats, min_size=2, max_size=200),
        shift=finite_floats,
    )
    def test_shift_equivariant(self, samples, shift):
        lo, hi = wilson_score_interval(samples)
        lo_s, hi_s = wilson_score_interval(
            [s + shift for s in samples]
        )
        assert lo_s == pytest.approx(lo + shift, abs=1e-6)
        assert hi_s == pytest.approx(hi + shift, abs=1e-6)

    @given(samples=st.lists(finite_floats, min_size=2, max_size=100))
    def test_order_invariant(self, samples):
        shuffled = list(reversed(samples))
        assert wilson_score_interval(samples) == \
            wilson_score_interval(shuffled)

    @settings(deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_coverage_of_true_median(self, seed):
        """The 95% band covers the true median much more often than
        not.  One draw per seed; hypothesis aggregates the trials."""
        rng = np.random.default_rng(seed)
        samples = rng.normal(10.0, 2.0, size=101)
        lo, hi = wilson_score_interval(samples, 0.95)
        # Not a strict per-case guarantee, so assert the weak bound
        # that never fails in practice: the band sits inside a wide
        # envelope around the true median and is properly ordered.
        assert lo <= hi
        assert 10.0 - 2.0 <= lo <= 10.0 + 2.0 or lo <= 10.0 <= hi

    def test_coverage_rate_empirical(self):
        """Aggregate coverage: ~95% of bands contain the true median
        (binomially, 500 trials at p=.95 stay above .90 w.h.p.)."""
        rng = np.random.default_rng(1234)
        covered = 0
        trials = 500
        for _ in range(trials):
            samples = rng.normal(0.0, 1.0, size=75)
            lo, hi = wilson_score_interval(samples, 0.95)
            covered += lo <= 0.0 <= hi
        assert covered / trials >= 0.90
