"""Property-based equivalence of the vector kernels.

Where ``test_differential`` pins equality on curated datasets, these
properties let hypothesis hunt for inputs where the vectorized math
drifts from the reference loops: grouped medians vs per-group
``numpy.median`` (including NaN propagation), probe-order permutation
invariance, NaN-placement equivalence of the stacked delay matrix,
additive-offset behaviour of the queueing estimate, and batched vs
per-signal Welch markers.
"""

import datetime as dt

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    LastMileDataset,
    ProbeBinSeries,
    aggregate_population,
    extract_markers,
)
from repro.core.aggregate import probe_queuing_delay
from repro.core.kernels.flat import delay_matrix
from repro.core.kernels.vector import VECTOR, grouped_median
from repro.timebase import MeasurementPeriod, TimeGrid

PERIOD = MeasurementPeriod("kprop", dt.datetime(2019, 9, 2), 5)
GRID = TimeGrid(PERIOD)
BINS = GRID.num_bins


@st.composite
def grouped_values(draw):
    """Random (group_ids, values) with NaNs and empty groups."""
    num_groups = draw(st.integers(min_value=1, max_value=12))
    count = draw(st.integers(min_value=0, max_value=80))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    nan_fraction = draw(st.floats(min_value=0.0, max_value=0.4))
    rng = np.random.default_rng(seed)
    group_ids = rng.integers(0, num_groups, size=count)
    values = rng.normal(5.0, 3.0, size=count)
    values[rng.random(count) < nan_fraction] = np.nan
    return group_ids.astype(np.int64), values, num_groups


@st.composite
def probe_series(draw, prb_id=0):
    base = draw(st.floats(min_value=0.5, max_value=20.0))
    amplitude = draw(st.floats(min_value=0.0, max_value=5.0))
    nan_seed = draw(st.integers(min_value=0, max_value=2**31))
    nan_fraction = draw(st.floats(min_value=0.0, max_value=0.9))
    rng = np.random.default_rng(nan_seed)
    t = np.arange(BINS) / GRID.bins_per_day
    medians = (
        base
        + amplitude * (1 + np.sin(2 * np.pi * t))
        + rng.normal(0, 0.05, BINS)
    )
    medians[rng.random(BINS) < nan_fraction] = np.nan
    counts = np.full(BINS, 24)
    counts[rng.random(BINS) < 0.1] = 0
    return ProbeBinSeries(
        prb_id=prb_id,
        median_rtt_ms=medians,
        traceroute_counts=counts,
    )


@st.composite
def datasets(draw, min_probes=2, max_probes=6):
    count = draw(
        st.integers(min_value=min_probes, max_value=max_probes)
    )
    dataset = LastMileDataset(grid=GRID)
    for prb_id in range(count):
        dataset.add(draw(probe_series(prb_id=prb_id)))
    return dataset


def stacked_delays(dataset, ids):
    """The (probe x bin) queueing-delay matrix of ``ids``."""
    return delay_matrix(
        np.stack([dataset.series[p].median_rtt_ms for p in ids]),
        np.stack([dataset.series[p].traceroute_counts for p in ids]),
        3,
    )


class TestGroupedMedian:
    @settings(deadline=None, max_examples=100)
    @given(grouped_values())
    def test_bitwise_equal_to_numpy_median(self, data):
        """Including NaN propagation: a group with any NaN member
        must yield NaN, exactly as numpy.median does."""
        group_ids, values, num_groups = data
        ours = grouped_median(group_ids, values, num_groups)
        for group in range(num_groups):
            members = values[group_ids == group]
            if len(members) == 0:
                assert np.isnan(ours[group])
            else:
                expected = np.median(members)
                assert np.array_equal(
                    ours[group], expected, equal_nan=True
                )

    @settings(deadline=None, max_examples=50)
    @given(grouped_values(), st.randoms(use_true_random=False))
    def test_permutation_invariant(self, data, rnd):
        group_ids, values, num_groups = data
        order = list(range(len(values)))
        rnd.shuffle(order)
        order = np.array(order, dtype=np.int64)
        a = grouped_median(group_ids, values, num_groups)
        b = (
            grouped_median(
                group_ids[order], values[order], num_groups
            )
            if len(order)
            else grouped_median(group_ids, values, num_groups)
        )
        assert np.array_equal(a, b, equal_nan=True)


class TestStackProbeDelays:
    @settings(deadline=None, max_examples=40)
    @given(datasets())
    def test_matches_reference_any_nan_placement(self, dataset):
        """The series strategy sprinkles NaN anywhere — the stacked
        delay matrix must equal the per-probe queueing delays bit for
        bit."""
        ids = dataset.probe_ids()
        delays, dead = stacked_delays(dataset, ids)
        for row, prb_id in enumerate(ids):
            expected = probe_queuing_delay(dataset.series[prb_id], 3)
            assert np.array_equal(delays[row], expected, equal_nan=True)
            assert dead[row] == bool(np.isnan(expected).all())

    @settings(deadline=None, max_examples=30)
    @given(datasets(), st.randoms(use_true_random=False))
    def test_probe_order_permutation(self, dataset, rnd):
        """Reordering the probe population permutes rows but cannot
        change the aggregated median signal."""
        ids = dataset.probe_ids()
        shuffled = list(ids)
        rnd.shuffle(shuffled)
        a = aggregate_population(dataset, ids, kernels="vector")
        b = aggregate_population(dataset, shuffled, kernels="vector")
        c = aggregate_population(dataset, shuffled, kernels="reference")
        assert np.array_equal(a.delay_ms, b.delay_ms, equal_nan=True)
        assert np.array_equal(b.delay_ms, c.delay_ms, equal_nan=True)

    @settings(deadline=None, max_examples=30)
    @given(
        probe_series(),
        st.floats(min_value=-5.0, max_value=50.0),
    )
    def test_additive_offset_cancels(self, series, shift):
        """A constant propagation-delay offset on a probe's medians
        must cancel in the queueing estimate and in the aggregate,
        identically on both backends."""
        dataset = LastMileDataset(grid=GRID)
        dataset.add(series)
        shifted = LastMileDataset(grid=GRID)
        shifted.add(ProbeBinSeries(
            prb_id=series.prb_id,
            median_rtt_ms=series.median_rtt_ms + shift,
            traceroute_counts=series.traceroute_counts,
        ))
        base, _ = stacked_delays(dataset, [series.prb_id])
        moved, _ = stacked_delays(shifted, [series.prb_id])
        assert np.allclose(base, moved, equal_nan=True, atol=1e-9)
        for kernels in ("reference", "vector"):
            a = aggregate_population(
                dataset, [series.prb_id], kernels=kernels
            )
            b = aggregate_population(
                shifted, [series.prb_id], kernels=kernels
            )
            assert np.allclose(
                a.delay_ms, b.delay_ms, equal_nan=True, atol=1e-9
            )


class TestMarkersBatch:
    @settings(deadline=None, max_examples=30)
    @given(st.lists(probe_series(), min_size=0, max_size=5))
    def test_matches_per_signal_extract_markers(self, series_list):
        signals = [s.median_rtt_ms for s in series_list]
        batched = VECTOR.markers_batch(signals, GRID.bin_seconds)
        reference = [
            extract_markers(v, GRID.bin_seconds) for v in signals
        ]
        assert len(batched) == len(reference)
        for ours, expected in zip(batched, reference):
            if expected is None:
                assert ours is None
            else:
                assert ours == expected

    def test_mixed_lengths_and_degenerates(self):
        """One batch holding every degenerate class plus two healthy
        signals of different lengths."""
        t = np.arange(BINS) / GRID.bins_per_day
        healthy = 1.0 + np.sin(2 * np.pi * t)
        short_t = np.arange(BINS // 2) / GRID.bins_per_day
        shorter = 2.0 + np.cos(2 * np.pi * short_t)
        gappy = healthy.copy()
        gappy[: int(0.8 * BINS)] = np.nan
        signals = [
            healthy,
            np.full(BINS, np.nan),       # all-NaN
            np.full(BINS, 7.5),          # constant
            np.array([1.0]),             # too short
            np.array([]),                # empty
            gappy,                       # over the gap threshold
            shorter,                     # different length bucket
        ]
        batched = VECTOR.markers_batch(signals, GRID.bin_seconds)
        reference = [
            extract_markers(v, GRID.bin_seconds) for v in signals
        ]
        assert batched == reference
        assert batched[0] is not None
        assert batched[6] is not None
        assert all(m is None for m in batched[1:6])
