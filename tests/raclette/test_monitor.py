"""Tests for the streaming last-mile monitor."""

import datetime as dt

import numpy as np
import pytest

from repro.atlas import AtlasPlatform, Hop, ProbeVersion, Reply, TracerouteResult
from repro.core import aggregate_population
from repro.netbase import AccessTechnology, ASInfo, ASRole
from repro.raclette import LastMileMonitor, ListSink, MonitorConfig
from repro.timebase import MeasurementPeriod
from repro.topology import ProvisioningPolicy, World


def synthetic_result(prb_id, timestamp, lastmile_ms):
    """A minimal two-hop traceroute with a known last-mile RTT."""
    return TracerouteResult(
        prb_id=prb_id,
        msm_id=5001,
        timestamp=timestamp,
        src_address="192.168.1.10",
        from_address="20.0.0.5",
        dst_address="192.5.0.1",
        hops=(
            Hop(1, (Reply("192.168.1.1", 0.5),) * 3),
            Hop(2, (Reply("60.0.0.1", 0.5 + lastmile_ms),) * 3),
        ),
    )


def run_world(seed=55, days=3):
    """Three probes of one congested ISP (AS64500) with no outages
    or session churn; returns the raw measurement and its period."""
    period = MeasurementPeriod("stream", dt.datetime(2019, 9, 2), days)
    world = World(seed=seed)
    isp = world.add_isp(
        ASInfo(
            64500, "S", "JP", ASRole.EYEBALL,
            access_technologies=[AccessTechnology.FTTH_PPPOE_LEGACY],
        ),
        provisioning=ProvisioningPolicy(
            peak_utilization={
                AccessTechnology.FTTH_PPPOE_LEGACY: 0.95
            },
            device_spread=0.0,
            load_jitter_std=0.0,
        ),
    )
    world.add_default_targets()
    world.finalize()
    platform = AtlasPlatform(world)
    platform.config.outage_rate_per_day = 0.0
    # Session churn shifts baselines differently under the batch and
    # streaming baseline definitions; it is exercised elsewhere.
    platform.config.reconnect_rate_per_day = 0.0
    probes = platform.deploy_probes_on_isp(
        isp, 3, version=ProbeVersion.V3
    )
    return platform.run_period(period, probes), period


def world_stream(seed=55, days=3):
    """:func:`run_world`'s results in timestamp order, and the
    probe-to-AS map."""
    raw, _period = run_world(seed, days)
    stream = sorted(
        (r for results in raw.results.values() for r in results),
        key=lambda r: r.timestamp,
    )
    return stream, lambda prb_id: 64500


def feed_constant_bins(monitor, prb_id, values_per_bin, per_bin=4):
    """Feed `per_bin` traceroutes per 30-min bin with given medians."""
    for bin_index, value in enumerate(values_per_bin):
        for k in range(per_bin):
            monitor.ingest(synthetic_result(
                prb_id, bin_index * 1800.0 + k * 300.0, value
            ))


class TestBinning:
    def test_sanity_check_drops_sparse_bins(self):
        sink = ListSink()
        monitor = LastMileMonitor(asn_of=lambda p: 1, sink=sink)
        # Only 2 traceroutes in the bin: below the threshold.
        monitor.ingest(synthetic_result(1, 0.0, 2.0))
        monitor.ingest(synthetic_result(1, 60.0, 2.0))
        monitor.flush()
        assert monitor.delay_series(1) == []

    def test_closed_bins_produce_series(self):
        monitor = LastMileMonitor(asn_of=lambda p: 1)
        feed_constant_bins(monitor, 1, [3.0, 3.0, 3.0])
        monitor.flush()
        series = monitor.delay_series(1)
        assert len(series) == 3
        # Constant medians -> zero queueing delay after baseline.
        assert all(delay == pytest.approx(0.0) for _b, delay in series)

    def test_unmapped_probe_ignored(self):
        monitor = LastMileMonitor(asn_of=lambda p: None)
        feed_constant_bins(monitor, 1, [3.0, 3.0])
        monitor.flush()
        assert monitor.monitored_asns() == []

    def test_stale_straggler_dropped(self):
        monitor = LastMileMonitor(asn_of=lambda p: 1)
        feed_constant_bins(monitor, 1, [3.0] * 4)
        # A result from bin 0 once the head is MAX_OPEN_BINS + 1 bins
        # past it: ignored, no crash.
        monitor.ingest(synthetic_result(1, 10.0, 50.0))
        monitor.flush()
        series = monitor.delay_series(1)
        assert all(delay < 1.0 for _b, delay in series)

    def test_multiple_probes_aggregate_with_median(self):
        monitor = LastMileMonitor(asn_of=lambda p: 1)
        # Probe 1 and 2 quiet, probe 3 elevated in bin 1.
        for prb, values in ((1, [3.0, 3.0]), (2, [3.0, 3.0]),
                            (3, [3.0, 9.0])):
            feed_constant_bins(monitor, prb, values)
        monitor.flush()
        series = dict(monitor.delay_series(1))
        assert series[1] == pytest.approx(0.0)  # median of (0,0,6)


class TestAlerting:
    def config(self):
        return MonitorConfig(
            alert_threshold_ms=1.0, alert_min_bins=3,
            baseline_window_bins=100,
        )

    def test_sustained_congestion_alerts(self):
        sink = ListSink()
        monitor = LastMileMonitor(
            asn_of=lambda p: 7, config=self.config(), sink=sink
        )
        values = [3.0] * 4 + [6.0] * 5 + [3.0] * 3
        feed_constant_bins(monitor, 1, values)
        monitor.flush()
        starts = sink.starts()
        ends = sink.ends()
        assert len(starts) == 1
        assert starts[0].asn == 7
        assert starts[0].delay_ms > 1.0
        assert len(ends) == 1
        assert ends[0].start_bin > starts[0].start_bin

    def test_short_blip_does_not_alert(self):
        sink = ListSink()
        monitor = LastMileMonitor(
            asn_of=lambda p: 7, config=self.config(), sink=sink
        )
        values = [3.0] * 4 + [6.0] * 2 + [3.0] * 4  # only 2 elevated
        feed_constant_bins(monitor, 1, values)
        monitor.flush()
        assert sink.starts() == []

    def test_alert_string(self):
        sink = ListSink()
        monitor = LastMileMonitor(
            asn_of=lambda p: 7, config=self.config(), sink=sink
        )
        feed_constant_bins(monitor, 1, [3.0] * 3 + [8.0] * 4)
        monitor.flush()
        text = str(sink.starts()[0])
        assert "AS7" in text and "congestion-start" in text


class TestStreamingMatchesBatch:
    def test_against_batch_pipeline(self):
        """Streaming per-bin delays equal the batch pipeline's
        (same bins, same medians; baseline differs only in window)."""
        raw, period = run_world()

        # Batch side.
        from repro.core import estimate_dataset
        from repro.timebase import TimeGrid

        grid = TimeGrid(period)
        batch = aggregate_population(estimate_dataset(
            raw.results, grid, probe_meta=raw.probe_meta
        ))

        # Streaming side: feed in timestamp order.
        monitor = LastMileMonitor(
            asn_of=lambda p: 64500,
            config=MonitorConfig(baseline_window_bins=grid.num_bins),
        )
        all_results = sorted(
            (r for results in raw.results.values() for r in results),
            key=lambda r: r.timestamp,
        )
        monitor.ingest_many(all_results)
        monitor.flush()

        stream = dict(monitor.delay_series(64500))
        # The streaming baseline is causal (min-so-far), the batch one
        # is the whole-period minimum; once the stream has seen the
        # quiet hours both agree.
        late_bins = [b for b in stream if b >= grid.num_bins // 3]
        assert len(late_bins) > 30
        diffs = [
            abs(stream[b] - batch.delay_ms[b]) for b in late_bins
            if not np.isnan(batch.delay_ms[b])
        ]
        assert np.median(diffs) < 0.2
        assert np.mean(np.array(diffs) < 0.5) > 0.9


class TestStreamFaultTolerance:
    """The monitor survives what live streams do, and accounts for it."""

    def test_duplicates_dropped_and_counted(self):
        from repro.quality import DropReason

        monitor = LastMileMonitor(asn_of=lambda p: 1)
        result = synthetic_result(1, 100.0, 3.0)
        for _ in range(3):
            monitor.ingest(result)
        assert monitor.quality.dropped_count(
            DropReason.DUPLICATE_RECORD
        ) == 2
        # Only one result counted toward the bin: it closes sparse.
        monitor.flush()
        assert monitor.bins_skipped == {"sparse-bin": 1}
        assert monitor.delay_series(1) == []

    def test_duplicate_suppression_bounded_to_open_bin(self):
        from repro.quality import DropReason

        monitor = LastMileMonitor(asn_of=lambda p: 1)
        feed_constant_bins(monitor, 1, [3.0])
        repeat = synthetic_result(1, 0.0, 3.0)
        monitor.ingest(repeat)   # bin 0 still open: a duplicate
        # The head reaches bin 3, closing bin 0 and forgetting its
        # keys: the same record is now stale, not a duplicate.
        feed_constant_bins(monitor, 2, [3.0] * 4)
        monitor.ingest(repeat)
        assert monitor.quality.dropped_count(
            DropReason.DUPLICATE_RECORD
        ) == 1
        assert monitor.quality.dropped_count(
            DropReason.STALE_RECORD
        ) == 1

    def test_stale_straggler_counted(self):
        from repro.quality import DropReason

        monitor = LastMileMonitor(asn_of=lambda p: 1)
        feed_constant_bins(monitor, 1, [3.0] * 4)
        monitor.ingest(synthetic_result(1, 10.0, 50.0))
        assert monitor.quality.dropped_count(
            DropReason.STALE_RECORD
        ) == 1

    def test_nonfinite_timestamp_dropped(self):
        from repro.quality import DropReason

        monitor = LastMileMonitor(asn_of=lambda p: 1)
        monitor.ingest(synthetic_result(1, float("nan"), 3.0))
        monitor.ingest(synthetic_result(1, float("inf"), 3.0))
        monitor.flush()
        assert monitor.quality.dropped_count(
            DropReason.MALFORMED_RECORD
        ) == 2
        assert monitor.delay_series(1) == []

    def test_gap_leaves_bins_unclosed_no_crash(self):
        monitor = LastMileMonitor(asn_of=lambda p: 1)
        feed_constant_bins(monitor, 1, [3.0, 3.0])
        # A long outage, then the probe returns 50 bins later.
        for k in range(4):
            monitor.ingest(synthetic_result(
                1, 52 * 1800.0 + k * 300.0, 3.0
            ))
        monitor.flush()
        series = dict(monitor.delay_series(1))
        assert 52 in series
        assert 10 not in series  # nothing invented for the gap

    def test_chaotic_stream_never_raises(self):
        """Duplicated, reordered, skewed and garbage-stamped input."""
        rng = np.random.default_rng(3)
        results = []
        for bin_index in range(6):
            for k in range(4):
                for prb in (1, 2):
                    results.append(synthetic_result(
                        prb, bin_index * 1800.0 + k * 300.0 + prb, 3.0
                    ))
        stream = list(results)
        stream += [results[i] for i in rng.integers(0, len(results), 10)]
        rng.shuffle(stream)
        stream.append(synthetic_result(1, float("nan"), 3.0))
        monitor = LastMileMonitor(asn_of=lambda p: 1)
        monitor.ingest_many(stream)
        monitor.flush()
        assert monitor.results_seen == len(stream)
        assert not monitor.quality.clean
        assert monitor.monitored_asns() == [1]
        summary = monitor.summary()
        assert "dropped" in summary


class TestWatermark:
    """Bins close once, in order, when the stream head leaves them
    ``MAX_OPEN_BINS`` behind; later records for them are stale."""

    def test_late_records_for_a_closed_bin_are_stale(self):
        from repro.quality import DropReason

        monitor = LastMileMonitor(asn_of=lambda p: 1)
        feed_constant_bins(monitor, 1, [3.0] * 4)      # bins 0-3
        for k in range(4):                             # head -> bin 10
            monitor.ingest(synthetic_result(
                2, 10 * 1800.0 + k * 300.0, 3.0
            ))
        for k in range(4):                             # late, bin 1
            monitor.ingest(synthetic_result(
                1, 1800.0 + k * 300.0 + 7.0, 40.0
            ))
        monitor.flush()
        assert monitor.delay_series(1) == [
            (0, 0.0), (1, 0.0), (2, 0.0), (3, 0.0), (10, 0.0),
        ]
        assert monitor.quality.dropped_count(
            DropReason.STALE_RECORD
        ) == 4

    def test_cli_on_probe_major_simulator_output(self, tmp_path, capsys):
        """The simulator's results regrouped one probe after another
        (``repro simulate`` itself writes them in timestamp order):
        every probe after the first is far behind the head, so its
        records are dropped as stale instead of reopening bins."""
        import json

        from repro.cli import main
        from repro.raclette.__main__ import build_parser, run

        results, rib = tmp_path / "sim.jsonl", tmp_path / "rib.txt"
        assert main([
            "simulate", str(results), "--probes", "3", "--days", "1",
            "--seed", "0", "--rib-out", str(rib),
        ]) == 0
        lines = results.read_text().splitlines()
        results.write_text("\n".join(sorted(
            lines, key=lambda line: json.loads(line)["prb_id"]
        )) + "\n")
        argv = [str(results), "--rib", str(rib)]
        capsys.readouterr()
        assert run(argv) == 0
        out = capsys.readouterr().out.splitlines()
        [summary] = [line for line in out if line.startswith("raclette:")]
        assert "dropped:" in summary
        assert "stale-record=" in summary
        [top] = [line for line in out if line.startswith("AS64500:")]
        assert int(top.split()[1]) <= 48   # one day of 30-minute bins

        from repro.raclette.__main__ import monitor_stream

        monitor = monitor_stream(build_parser().parse_args(argv))
        assert monitor.monitored_asns() == [64500]
        for asn in monitor.monitored_asns():
            bins = [b for b, _delay in monitor.delay_series(asn)]
            assert all(a < b for a, b in zip(bins, bins[1:]))

    @pytest.mark.parametrize("seed", range(5))
    def test_shuffled_stream_never_reaggregates_a_bin(self, seed):
        """Each probe's results for one bin arrive together, the
        (probe, bin) groups in random order."""
        rng = np.random.default_rng(seed)
        groups = [
            [
                synthetic_result(
                    prb, bin_index * 1800.0 + k * 300.0 + prb,
                    3.0 + (prb + bin_index) % 4,
                )
                for k in range(4)
            ]
            for bin_index in range(12)
            for prb in (1, 2, 3)
        ]
        rng.shuffle(groups)
        stream = [result for group in groups for result in group]
        monitor = LastMileMonitor(asn_of=lambda p: p % 2)
        for start in range(0, len(stream), 5):
            monitor.ingest_many(stream[start:start + 5])
        monitor.flush()
        for asn in monitor.monitored_asns():
            bins = [b for b, _delay in monitor.delay_series(asn)]
            assert all(a < b for a, b in zip(bins, bins[1:]))


class TestReasonCodedSkips:
    def test_sparse_bin_recorded_with_reason(self):
        from repro.quality import DropReason

        monitor = LastMileMonitor(asn_of=lambda p: 1)
        monitor.ingest(synthetic_result(1, 0.0, 2.0))
        monitor.ingest(synthetic_result(1, 60.0, 2.0))
        monitor.flush()
        assert monitor.bins_skipped == {"sparse-bin": 1}
        assert monitor.quality.dropped_count(
            DropReason.SPARSE_BIN
        ) == 1

    def test_unresolved_asn_recorded_with_reason(self):
        from repro.quality import DropReason

        monitor = LastMileMonitor(asn_of=lambda p: None)
        feed_constant_bins(monitor, 1, [3.0, 3.0])
        monitor.flush()
        assert monitor.bins_skipped == {"unresolved-asn": 2}
        assert monitor.quality.dropped_count(
            DropReason.UNRESOLVED_ASN
        ) == 2

    def test_summary_breaks_drops_down_by_reason(self):
        monitor = LastMileMonitor(asn_of=lambda p: 1)
        feed_constant_bins(monitor, 1, [3.0] * 4)
        monitor.ingest(synthetic_result(1, 10.0, 50.0))  # stale
        monitor.ingest(synthetic_result(1, float("nan"), 3.0))
        monitor.flush()
        summary = monitor.summary()
        assert "stale-record=1" in summary
        assert "malformed-record=1" in summary
        assert "dropped:" in summary

    def test_clean_stream_summary_has_no_drop_section(self):
        monitor = LastMileMonitor(asn_of=lambda p: 1)
        feed_constant_bins(monitor, 1, [3.0, 3.0])
        monitor.flush()
        assert "dropped" not in monitor.summary()


class TestMonitorMetrics:
    def test_metrics_recorded_under_live_observer(self):
        from repro.obs import observed

        with observed() as obs:
            monitor = LastMileMonitor(asn_of=lambda p: 1)
            feed_constant_bins(monitor, 1, [3.0] * 4)
            monitor.ingest(synthetic_result(1, 10.0, 50.0))  # stale
            monitor.flush()
        assert obs.metrics.get("raclette_results_total").value() == (
            monitor.results_seen
        )
        assert obs.metrics.get(
            "raclette_bins_closed_total"
        ).value() == monitor.bins_closed
        assert obs.metrics.get(
            "raclette_records_skipped_total"
        ).value(reason="stale-record") == 1
        assert obs.metrics.get("raclette_monitored_asns").value() == 1

    def test_monitor_works_without_observer(self):
        # Default NOOP observer: instruments absorb silently.
        monitor = LastMileMonitor(asn_of=lambda p: 1)
        feed_constant_bins(monitor, 1, [3.0])
        monitor.flush()
        assert monitor.bins_closed == 1
