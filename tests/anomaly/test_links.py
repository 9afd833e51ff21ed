"""Unit tests for per-link differential extraction on hand-built paths.

``link_samples`` and ``next_hop_pairs`` read one traceroute's links
and forwarding observations back out of :func:`scan_links`."""

import datetime as dt

import pytest

from repro.anomaly import link_id, scan_links, split_link_id
from repro.atlas.traceroute import Hop, Reply, TracerouteResult
from repro.quality import DataQualityReport, DropReason
from repro.timebase import MeasurementPeriod, TimeGrid


def trace(timestamp, path, prb_id=1, dst="9.9.9.9"):
    """Build a traceroute from [(address_or_None, [rtts...]), ...]."""
    hops = []
    for number, (address, rtts) in enumerate(path, start=1):
        if address is None:
            replies = (Reply.timeout(),)
        else:
            replies = tuple(Reply(address, rtt) for rtt in rtts)
        hops.append(Hop(hop=number, replies=replies))
    return TracerouteResult(
        prb_id=prb_id, msm_id=5001, timestamp=timestamp,
        src_address="192.168.1.2", from_address="60.0.0.9",
        dst_address=dst, hops=tuple(hops),
    )


GRID = TimeGrid(
    MeasurementPeriod("links", dt.datetime(2019, 9, 2), 1), 1800
)


def link_samples(result):
    """``(link, samples)`` of every link one traceroute observed, in
    link-id order, samples in scan order."""
    scan = scan_links({1: [result]}, GRID)
    rows = scan.keys // GRID.num_bins
    return [
        (key, scan.values[rows == row].tolist())
        for row, key in enumerate(scan.links)
    ]


def next_hop_pairs(result):
    """``(near, dst, far)`` forwarding observations of one traceroute."""
    scan = scan_links({1: [result]}, GRID)
    return [
        (near, dst, far)
        for (near, dst), bins in scan.next_hops.items()
        for fars in bins.values()
        for far in fars
    ]


class TestLinkId:
    def test_round_trip(self):
        assert split_link_id(link_id("10.0.0.1", "10.0.0.2")) == (
            "10.0.0.1", "10.0.0.2"
        )

    @pytest.mark.parametrize("bad", ["", "10.0.0.1", "a--", "--b",
                                     "a--b--c"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            split_link_id(bad)


class TestLinkSamples:
    def test_pairwise_differentials(self):
        result = trace(0.0, [
            ("10.0.0.1", [1.0, 2.0]),
            ("10.0.0.2", [5.0, 6.0, 7.0]),
        ])
        [(key, samples)] = link_samples(result)
        assert key == ("10.0.0.1", "10.0.0.2")
        # 3 far x 2 near pairwise differences.
        assert sorted(samples) == [3.0, 4.0, 4.0, 5.0, 5.0, 6.0]

    def test_silent_hop_spanned(self):
        result = trace(0.0, [
            ("10.0.0.1", [1.0]),
            (None, []),
            ("10.0.0.3", [9.0]),
        ])
        [(key, samples)] = link_samples(result)
        assert key == ("10.0.0.1", "10.0.0.3")
        assert samples == [8.0]

    def test_routing_loop_skipped(self):
        result = trace(0.0, [
            ("10.0.0.1", [1.0]),
            ("10.0.0.1", [2.0]),
            ("10.0.0.2", [3.0]),
        ])
        keys = [key for key, _ in link_samples(result)]
        assert keys == [("10.0.0.1", "10.0.0.2")]

    def test_link_observed_even_without_sane_samples(self):
        # One reply present but insane on the far side: the link is
        # observed (counts toward bin sanity) with no samples.
        result = trace(0.0, [
            ("10.0.0.1", [1.0]),
            ("10.0.0.2", [float("nan")]),
        ])
        [(key, samples)] = link_samples(result)
        assert key == ("10.0.0.1", "10.0.0.2")
        assert samples == []


class TestNextHopPairs:
    def test_keyed_per_destination(self):
        result = trace(0.0, [
            ("20.0.0.1", [1.0]), ("30.0.0.1", [2.0]),
        ], dst="9.9.9.9")
        assert next_hop_pairs(result) == [
            ("20.0.0.1", "9.9.9.9", "30.0.0.1")
        ]

    def test_private_near_excluded(self):
        result = trace(0.0, [
            ("192.168.1.1", [1.0]),
            ("20.0.0.1", [2.0]),
            ("30.0.0.1", [3.0]),
        ])
        nears = [near for near, _dst, _far in next_hop_pairs(result)]
        assert nears == ["20.0.0.1"]


class TestScan:
    def test_gating_matches_lastmile_semantics(self):
        quality = DataQualityReport()
        results = {1: [
            trace(100.0, [("10.0.0.1", [1.0]), ("10.0.0.2", [2.0])]),
            trace(float("nan"),
                  [("10.0.0.1", [1.0]), ("10.0.0.2", [2.0])]),
            trace(86400.0 * 2,
                  [("10.0.0.1", [1.0]), ("10.0.0.2", [2.0])]),
            trace(200.0, [("10.0.0.1", [1.0]), (None, [])]),
        ]}
        scan = scan_links(results, GRID, quality=quality)
        assert scan.processed == 4
        assert scan.links == [("10.0.0.1", "10.0.0.2")]
        assert scan.counts[0, 0] == scan.counts.sum() == 1
        counted = quality.stages["anomaly-links"]
        assert counted.dropped[DropReason.MALFORMED_RECORD] == 1
        assert counted.dropped[DropReason.OUT_OF_PERIOD] == 1
        assert counted.degraded[DropReason.NO_BOUNDARY] == 1
