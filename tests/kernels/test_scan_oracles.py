"""The one traceroute scan against the per-traceroute loops it replaced.

Survey, stream and anomaly callers share one scan
(:mod:`repro.core.kernels.flat`): :func:`gate` bins each record,
:func:`walk_hops` selects hop pairs and expands their sane replies,
:func:`book` writes the ledger.  The loops it replaced are kept
verbatim as oracles — the last-mile sampler
(``tests/core/lastmile_oracle.py``), the link scan
(``tests/anomaly/links_oracle.py``), the per-record scan
(``_scan_results``) and the per-record stream engine
(``OracleSurvey``) — and Hypothesis throws random hop sequences at
both: private, public and ``other`` hops, silent hops, loops, NaN and
inf replies, anchors, out-of-period and NaN timestamps.

Like ``test_flat_pass.py``, this file runs in the CI chaos leg under
``-W error::RuntimeWarning``.
"""

import datetime as dt

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.anomaly import scan_links
from repro.atlas.traceroute import Hop, Reply, TracerouteResult
from repro.core.kernels.flat import scan_lastmile_flat, walk_hops
from repro.quality import DataQualityReport
from repro.stream import StreamingSurvey, TraceRecord, micro_batches
from repro.timebase import MeasurementPeriod, TimeGrid

from tests.anomaly.links_oracle import _scan_shard
from tests.core.lastmile_oracle import lastmile_samples
from tests.kernels.test_flat_pass import _scan_results
from tests.stream.test_batch_ingest import OracleSurvey, assert_same_state

DAY = MeasurementPeriod("scan-day", dt.datetime(2019, 9, 2), 1)
GRID = TimeGrid(DAY)
DURATION = float(GRID.num_bins * GRID.bin_seconds)

PRIVATE = ("192.168.1.1", "10.0.0.1", "100.64.0.9")
PUBLIC = ("60.0.0.1", "60.0.0.2", "80.0.0.1", "2400:8900::1")
OTHER = ("127.0.0.1", "169.254.0.7", "224.0.0.5")

#: A reply: timeout, a sane RTT, or garbage that got past parsing.
rtts = st.one_of(
    st.none(),
    st.floats(0.0, 50.0),
    st.sampled_from([float("nan"), float("inf")]),
)

#: A hop: one address (None: silent) and up to three replies.  The
#: address pool is small, so adjacent repeats (loops) are common.
hops = st.tuples(
    st.sampled_from(PRIVATE + PUBLIC + OTHER + (None,)),
    st.lists(rtts, min_size=1, max_size=3),
)

#: Mostly the first few bins (so bins fill up), plus every gate edge.
timestamps = st.one_of(
    st.floats(0.0, 4.0 * GRID.bin_seconds),
    st.sampled_from([
        float("nan"), float("inf"), float("-inf"), -1.0,
        DURATION, DURATION + 5.0,
    ]),
)


def build(path, timestamp, prb_id, dst):
    built = []
    for number, (address, replies) in enumerate(path, start=1):
        built.append(Hop(number, tuple(
            Reply.timeout() if address is None or rtt is None
            else Reply(address, rtt)
            for rtt in replies
        )))
    return TracerouteResult(
        prb_id=prb_id, msm_id=5001, timestamp=timestamp,
        src_address="192.168.1.10", from_address="20.0.0.5",
        dst_address=dst, hops=tuple(built),
    )


traceroutes = st.builds(
    build,
    st.lists(hops, max_size=8),
    timestamps,
    st.sampled_from([1, 2, 3]),
    st.sampled_from(["9.9.9.9", "8.8.4.4"]),
)

SETTINGS = settings(
    deadline=None, max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestLastMile:
    @SETTINGS
    @given(st.lists(traceroutes, max_size=20))
    def test_rows_equal_the_per_traceroute_sampler(self, results):
        pairs = walk_hops(results)
        sizes = pairs.row_sizes(len(results))
        bounds = np.concatenate([[0], np.cumsum(sizes)]).tolist()
        for row, result in enumerate(results):
            assert pairs.samples[bounds[row]:bounds[row + 1]].tolist() == (
                lastmile_samples(result)
            )

    @SETTINGS
    @given(st.lists(traceroutes, max_size=20))
    def test_scan_equals_the_per_record_scan(self, results):
        quality, oracle_quality = DataQualityReport(), DataQualityReport()
        counts = np.zeros(GRID.num_bins, dtype=np.int64)
        oracle_counts = np.zeros(GRID.num_bins, dtype=np.int64)
        scan = scan_lastmile_flat(
            results, GRID, 7 if not results else None, quality, counts
        )
        prb_id, processed, bins, lists = _scan_results(
            results, GRID, 7 if not results else None, lastmile_samples,
            oracle_quality, oracle_counts,
        )
        assert (scan.prb_id, scan.processed) == (prb_id, processed)
        np.testing.assert_array_equal(counts, oracle_counts)
        assert quality.to_dict() == oracle_quality.to_dict()
        np.testing.assert_array_equal(
            scan.sample_bins,
            np.repeat(np.asarray(bins, dtype=np.int64),
                      [len(samples) for samples in lists]),
        )
        assert scan.sample_values.tolist() == [
            value for samples in lists for value in samples
        ]


def by_probe(results):
    grouped = {}
    for result in results:
        grouped.setdefault(result.prb_id, []).append(result)
    return grouped


class TestLinks:
    @SETTINGS
    @given(st.lists(traceroutes, max_size=20))
    def test_scan_equals_the_per_traceroute_scan(self, results):
        grouped = by_probe(results)
        quality, oracle_quality = DataQualityReport(), DataQualityReport()
        scan = scan_links(grouped, GRID, quality=quality)
        oracle = _scan_shard(grouped, GRID, oracle_quality)

        assert scan.processed == oracle.processed
        assert scan.links == sorted(oracle.counts)
        assert scan.next_hops == oracle.next_hops
        for row, key in enumerate(scan.links):
            observed = np.flatnonzero(scan.counts[row]).tolist()
            assert observed == sorted(oracle.counts[key])
            for bin_index in observed:
                assert scan.counts[row, bin_index] == (
                    oracle.counts[key][bin_index]
                )
                cell = scan.keys == row * GRID.num_bins + bin_index
                assert sorted(scan.values[cell].tolist()) == sorted(
                    oracle.samples.get(key, {}).get(bin_index, [])
                )
        assert len(scan.values) == sum(
            len(values) for bins in oracle.samples.values()
            for values in bins.values()
        )
        assert quality.to_dict() == oracle_quality.to_dict()


class TestStream:
    @SETTINGS
    @given(
        st.lists(traceroutes, max_size=30),
        st.sampled_from([1, 7, None]),
        st.integers(0, 30),
        st.integers(-1, 3),
    )
    def test_micro_batches_equal_the_per_record_engine(
        self, results, size, split, watermark
    ):
        """Both engines ingest the same TraceRecord stream; after the
        first ``split`` records each closes through ``watermark``, so
        later records for closed bins are stale."""
        records = [TraceRecord(result) for result in results]
        engine = StreamingSurvey(DAY, kernels="reference")
        oracle = OracleSurvey(DAY, kernels="reference")
        for part in (records[:split], records[split:]):
            for batch in micro_batches(part, size or max(len(part), 1)):
                assert engine.ingest_many(batch) == len(batch)
                oracle.ingest_many(batch)
            assert_same_state(engine, oracle)
            engine.close_through(watermark)
            oracle.close_through(watermark)
        engine.close_through(GRID.num_bins - 1)
        oracle.close_through(GRID.num_bins - 1)
        assert_same_state(engine, oracle)
