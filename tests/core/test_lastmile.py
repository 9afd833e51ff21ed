"""Tests for last-mile RTT estimation (§2.1)."""

import datetime as dt

import numpy as np
import pytest

from repro.atlas import Hop, Reply, TracerouteResult
from repro.core import (
    classify_hop_address,
    estimate_probe_series,
    lastmile_samples,
)
from repro.core.kernels.flat import walk_hops
from repro.timebase import MeasurementPeriod, TimeGrid


def hop(number, address, rtts):
    replies = tuple(
        Reply(address, r) if r is not None else Reply.timeout()
        for r in rtts
    )
    return Hop(number, replies)


def traceroute(hops, timestamp=0.0, prb_id=1):
    return TracerouteResult(
        prb_id=prb_id,
        msm_id=5001,
        timestamp=timestamp,
        src_address="192.168.1.10",
        from_address="20.0.0.5",
        dst_address="192.5.0.1",
        hops=tuple(hops),
    )


def typical_traceroute(timestamp=0.0, private_rtt=0.5, public_rtt=3.5):
    return traceroute(
        [
            hop(1, "192.168.1.1", [private_rtt] * 3),
            hop(2, "60.0.0.1", [public_rtt] * 3),
            hop(3, "80.0.0.1", [10.0] * 3),
        ],
        timestamp=timestamp,
    )


class TestClassifyHopAddress:
    def test_private(self):
        assert classify_hop_address("192.168.1.1") == "private"
        assert classify_hop_address("10.5.5.5") == "private"
        assert classify_hop_address("100.64.0.9") == "private"

    def test_public(self):
        assert classify_hop_address("8.8.8.8") == "public"
        assert classify_hop_address("2400:8900::1") == "public"

    def test_other(self):
        assert classify_hop_address("127.0.0.1") == "other"
        assert classify_hop_address("224.0.0.5") == "other"
        assert classify_hop_address("garbage") == "other"


def find_boundary(result):
    """``(last private, first public)`` addresses of the boundary pair
    the scan's hop walk selects (last private None for an anchor), or
    None when no public hop responds."""
    pairs = walk_hops([result])
    if not pairs.far:
        return None
    [near], [far] = pairs.near, pairs.far
    return near, far


class TestFindBoundary:
    def test_typical(self):
        boundary = find_boundary(typical_traceroute())
        assert boundary == ("192.168.1.1", "60.0.0.1")

    def test_two_private_hops_takes_last(self):
        result = traceroute([
            hop(1, "192.168.0.2", [0.3] * 3),
            hop(2, "192.168.1.1", [0.6] * 3),
            hop(3, "60.0.0.1", [4.0] * 3),
        ])
        boundary = find_boundary(result)
        assert boundary[0] == "192.168.1.1"

    def test_no_private_hops_anchor_case(self):
        result = traceroute([
            hop(1, "60.0.0.1", [0.4] * 3),
            hop(2, "80.0.0.1", [2.0] * 3),
        ])
        boundary = find_boundary(result)
        assert boundary == (None, "60.0.0.1")

    def test_all_timeouts_returns_none(self):
        result = traceroute([
            hop(1, None, [None] * 3),
            hop(2, None, [None] * 3),
        ])
        assert find_boundary(result) is None

    def test_skips_timed_out_hops(self):
        result = traceroute([
            hop(1, "192.168.1.1", [0.5] * 3),
            hop(2, None, [None] * 3),          # silent hop
            hop(3, "60.0.0.1", [4.0] * 3),
        ])
        boundary = find_boundary(result)
        assert boundary[1] == "60.0.0.1"

    def test_loopback_hop_not_treated_as_public(self):
        result = traceroute([
            hop(1, "192.168.1.1", [0.5] * 3),
            hop(2, "127.0.0.1", [0.1] * 3),    # broken middlebox
            hop(3, "60.0.0.1", [4.0] * 3),
        ])
        boundary = find_boundary(result)
        assert boundary == ("192.168.1.1", "60.0.0.1")


class TestLastmileSamples:
    def test_nine_pairwise_differences(self):
        result = traceroute([
            hop(1, "192.168.1.1", [1.0, 2.0, 3.0]),
            hop(2, "60.0.0.1", [10.0, 11.0, 12.0]),
        ])
        samples = lastmile_samples(result)
        assert len(samples) == 9
        assert sorted(samples) == sorted(
            pub - priv
            for pub in [10.0, 11.0, 12.0]
            for priv in [1.0, 2.0, 3.0]
        )

    def test_timeouts_reduce_sample_count(self):
        result = traceroute([
            hop(1, "192.168.1.1", [1.0, None, 3.0]),
            hop(2, "60.0.0.1", [10.0, 11.0, None]),
        ])
        assert len(lastmile_samples(result)) == 4  # 2 x 2

    def test_anchor_uses_public_rtts_directly(self):
        result = traceroute([
            hop(1, "60.0.0.1", [0.4, 0.5, 0.6]),
        ])
        assert lastmile_samples(result) == [0.4, 0.5, 0.6]

    def test_broken_traceroute_yields_nothing(self):
        result = traceroute([hop(1, None, [None] * 3)])
        assert lastmile_samples(result) == []

    def test_negative_differences_kept(self):
        """Noise can make a diff negative; medians handle it (§2.1)."""
        result = traceroute([
            hop(1, "192.168.1.1", [5.0] * 3),
            hop(2, "60.0.0.1", [4.0] * 3),
        ])
        assert all(s == -1.0 for s in lastmile_samples(result))


class TestEstimateProbeSeries:
    def grid(self, days=1):
        return TimeGrid(
            MeasurementPeriod("t", dt.datetime(2019, 9, 2), days)
        )

    def test_binning_and_median(self):
        grid = self.grid()
        results = [
            typical_traceroute(timestamp=i * 60.0, public_rtt=3.0 + i)
            for i in range(5)
        ]  # all within bin 0
        series = estimate_probe_series(results, grid)
        assert series.traceroute_counts[0] == 5
        # diffs are 2.5, 3.5, 4.5, 5.5, 6.5 -> median 4.5
        assert series.median_rtt_ms[0] == pytest.approx(4.5)
        assert np.isnan(series.median_rtt_ms[1])

    def test_sanity_check_drops_sparse_bins(self):
        """§2: bins with < 3 traceroutes are discarded."""
        grid = self.grid()
        results = [
            typical_traceroute(timestamp=0.0),
            typical_traceroute(timestamp=60.0),
        ]
        series = estimate_probe_series(results, grid)
        assert series.traceroute_counts[0] == 2
        assert np.isnan(series.median_rtt_ms[0])

    def test_min_traceroutes_parameter(self):
        grid = self.grid()
        results = [typical_traceroute(timestamp=0.0)]
        series = estimate_probe_series(results, grid, min_traceroutes=1)
        assert not np.isnan(series.median_rtt_ms[0])

    def test_empty_input_requires_prb_id(self):
        grid = self.grid()
        with pytest.raises(ValueError):
            estimate_probe_series([], grid)
        series = estimate_probe_series([], grid, prb_id=7)
        assert series.prb_id == 7
        assert np.all(np.isnan(series.median_rtt_ms))

    def test_median_robust_to_interference_outlier(self):
        """One wild traceroute cannot move the bin median much."""
        grid = self.grid()
        results = [
            typical_traceroute(timestamp=i * 60.0) for i in range(23)
        ]
        results.append(
            typical_traceroute(timestamp=23 * 60.0, public_rtt=500.0)
        )
        series = estimate_probe_series(results, grid)
        assert series.median_rtt_ms[0] == pytest.approx(3.0, abs=0.01)


class TestInsaneReplyHandling:
    """Edge contract of lastmile_samples on corrupt RTT replies: the
    per-reply sanity filter drops non-finite and negative values, and
    an all-insane boundary hop yields *no* samples (see the
    lastmile_samples docstring)."""

    def test_nan_replies_filtered_from_pairwise_product(self):
        result = traceroute([
            hop(1, "192.168.1.1", [1.0, float("nan"), 3.0]),
            hop(2, "60.0.0.1", [10.0, float("inf"), 12.0]),
        ])
        samples = lastmile_samples(result)
        assert len(samples) == 4  # 2 sane public x 2 sane private
        assert all(np.isfinite(s) for s in samples)

    def test_all_nan_public_hop_yields_nothing(self):
        result = traceroute([
            hop(1, "192.168.1.1", [0.5] * 3),
            hop(2, "60.0.0.1", [float("nan")] * 3),
        ])
        assert lastmile_samples(result) == []

    def test_all_nan_private_hop_yields_nothing(self):
        result = traceroute([
            hop(1, "192.168.1.1", [float("nan")] * 3),
            hop(2, "60.0.0.1", [3.5] * 3),
        ])
        assert lastmile_samples(result) == []

    def test_all_nan_anchor_hop_yields_nothing(self):
        result = traceroute([
            hop(1, "60.0.0.1", [float("nan")] * 3),
        ])
        assert lastmile_samples(result) == []

    def test_insane_boundary_counts_toward_bin_but_degrades(self):
        """A traceroute whose boundary replies are all insane still
        proves the probe was measuring (bin sanity) but contributes
        no samples and lands in the quality ledger as NO_BOUNDARY."""
        from repro.core.lastmile import STAGE
        from repro.quality import DataQualityReport, DropReason

        grid = TimeGrid(
            MeasurementPeriod("t", dt.datetime(2019, 9, 2), 1)
        )
        results = [
            typical_traceroute(timestamp=0.0),
            typical_traceroute(timestamp=60.0),
            traceroute([
                hop(1, "192.168.1.1", [0.5] * 3),
                hop(2, "60.0.0.1", [float("nan")] * 3),
            ], timestamp=120.0),
        ]
        quality = DataQualityReport()
        series = estimate_probe_series(results, grid, quality=quality)
        assert series.traceroute_counts[0] == 3
        # Bin sanity reached via the insane traceroute; the median
        # uses only the two clean ones.
        assert series.median_rtt_ms[0] == pytest.approx(3.0)
        assert quality.degraded_count(DropReason.NO_BOUNDARY) == 1
        assert quality.to_dict()[STAGE]["ingested"] == 3


class TestNaNTimestampHandling:
    """Edge contract of estimate_probe_series on unbinnable clocks: a
    non-finite timestamp is dropped as MALFORMED_RECORD *before* bin
    counting, unlike an out-of-period timestamp (OUT_OF_PERIOD) or an
    insane boundary (counted, then degraded)."""

    def test_nan_timestamp_dropped_before_bin_counting(self):
        from repro.quality import DataQualityReport, DropReason

        grid = TimeGrid(
            MeasurementPeriod("t", dt.datetime(2019, 9, 2), 1)
        )
        results = [
            typical_traceroute(timestamp=0.0),
            typical_traceroute(timestamp=60.0),
            typical_traceroute(timestamp=float("nan")),
            typical_traceroute(timestamp=float("inf")),
        ]
        quality = DataQualityReport()
        series = estimate_probe_series(results, grid, quality=quality)
        # The malformed records must not push bin 0 over the
        # min_traceroutes=3 sanity threshold.
        assert series.traceroute_counts[0] == 2
        assert np.isnan(series.median_rtt_ms[0])
        assert (
            quality.dropped_count(DropReason.MALFORMED_RECORD) == 2
        )

    def test_out_of_period_timestamp_distinct_reason(self):
        from repro.quality import DataQualityReport, DropReason

        grid = TimeGrid(
            MeasurementPeriod("t", dt.datetime(2019, 9, 2), 1)
        )
        quality = DataQualityReport()
        series = estimate_probe_series(
            [typical_traceroute(timestamp=-50.0),
             typical_traceroute(timestamp=10 * 86400.0)],
            grid, quality=quality,
        )
        assert int(series.traceroute_counts.sum()) == 0
        assert quality.dropped_count(DropReason.OUT_OF_PERIOD) == 2
        assert quality.dropped_count(DropReason.MALFORMED_RECORD) == 0

    def test_nan_timestamp_still_infers_prb_id(self):
        """Even a malformed record identifies the probe: an input of
        only malformed records returns an all-NaN series rather than
        raising for a missing prb_id."""
        grid = TimeGrid(
            MeasurementPeriod("t", dt.datetime(2019, 9, 2), 1)
        )
        series = estimate_probe_series(
            [typical_traceroute(timestamp=float("nan"))], grid
        )
        assert series.prb_id == 1
        assert np.all(np.isnan(series.median_rtt_ms))
