"""Tests for the raclette CLI."""

import contextlib
import io
import json
import math

import pytest

from repro.atlas import Hop, Reply, TracerouteResult
from repro.atlas.traceroute import MAX_SANE_RTT_MS
from repro.io import load_traceroutes
from repro.quality import DropReason
from repro.raclette import LastMileMonitor
from repro.raclette.__main__ import (
    build_parser,
    make_asn_resolver,
    monitor_stream,
    run,
)
from repro.raclette.monitor import STAGE


def result_line(prb_id, timestamp, lastmile_ms, from_address="20.0.0.5"):
    result = TracerouteResult(
        prb_id=prb_id,
        msm_id=5001,
        timestamp=timestamp,
        src_address="192.168.1.10",
        from_address=from_address,
        dst_address="192.5.0.1",
        hops=(
            Hop(1, (Reply("192.168.1.1", 0.5),) * 3),
            Hop(2, (Reply("60.0.0.1", 0.5 + lastmile_ms),) * 3),
        ),
    )
    return json.dumps(result.to_json())


def write_stream(path, values_per_bin, prb_id=1):
    lines = []
    for bin_index, value in enumerate(values_per_bin):
        for k in range(4):
            lines.append(result_line(
                prb_id, bin_index * 1800.0 + k * 300.0, value
            ))
    path.write_text("\n".join(lines) + "\n")


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["results.jsonl"])
        assert args.threshold_ms == 1.0
        assert args.min_bins == 4
        assert args.baseline_bins == 336

    def test_takes_the_shared_obs_flags(self):
        args = build_parser().parse_args([
            "results.jsonl", "--trace", "--metrics-out", "m.json",
            "--log-jsonl", "events.jsonl",
        ])
        assert args.trace
        assert args.metrics_out == "m.json"
        assert args.log_jsonl == "events.jsonl"


class TestResolver:
    def test_without_rib_groups_by_probe(self):
        _note, resolve = make_asn_resolver(None)
        assert resolve(42) == 42

    def test_with_rib(self, tmp_path):
        rib = tmp_path / "rib.txt"
        rib.write_text("20.0.0.0/16|64700 64500\n")
        note, resolve = make_asn_resolver(str(rib))
        note(1, "20.0.0.5")
        note(2, "99.0.0.5")     # unannounced
        note(3, "not-an-ip")
        assert resolve(1) == 64500
        assert resolve(2) is None
        assert resolve(3) is None
        # Cached on second call.
        assert resolve(1) == 64500


class TestRun:
    def test_quiet_stream_no_alerts(self, tmp_path, capsys):
        stream = tmp_path / "results.jsonl"
        write_stream(stream, [3.0] * 6)
        assert run([str(stream)]) == 0
        out = capsys.readouterr().out
        assert "congestion-start" not in out
        assert "raclette:" in out
        assert "AS1:" in out  # grouped by probe id without a RIB

    def test_congested_stream_alerts(self, tmp_path, capsys):
        stream = tmp_path / "results.jsonl"
        write_stream(stream, [3.0] * 4 + [7.0] * 6 + [3.0] * 4)
        assert run([str(stream), "--min-bins", "3"]) == 0
        out = capsys.readouterr().out
        assert "congestion-start" in out
        assert "congestion-end" in out

    def test_rib_mapping(self, tmp_path, capsys):
        rib = tmp_path / "rib.txt"
        rib.write_text("20.0.0.0/16|64500\n")
        stream = tmp_path / "results.jsonl"
        write_stream(stream, [3.0] * 6)
        assert run([str(stream), "--rib", str(rib)]) == 0
        out = capsys.readouterr().out
        assert "AS64500:" in out

    def test_blank_lines_skipped(self, tmp_path, capsys):
        stream = tmp_path / "results.jsonl"
        write_stream(stream, [3.0] * 6)
        stream.write_text(stream.read_text() + "\n\n")
        assert run([str(stream)]) == 0

    def test_observed_run_reports_the_written_path(self, tmp_path, capsys):
        stream = tmp_path / "results.jsonl"
        write_stream(stream, [3.0] * 6)
        report = tmp_path / "m.json"
        events = tmp_path / "events.jsonl"
        assert run([
            str(stream), "--trace", "--metrics-out", str(report),
            "--log-jsonl", str(events),
        ]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "monitor-stream" in out
        assert f"wrote observability report to {report}" in out
        metrics = json.loads(report.read_text())["metrics"]
        assert metrics["raclette_results_total"]["samples"]
        assert events.exists()


@pytest.fixture(scope="module")
def faulted_stream(tmp_path_factory):
    """``repro simulate`` then ``repro inject`` with garbage RTTs at
    five times the default rate, and the RIB."""
    from repro.cli import main

    workdir = tmp_path_factory.mktemp("faulted")
    clean = workdir / "clean.jsonl"
    dirty = workdir / "dirty.jsonl"
    rib = workdir / "rib.txt"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([
            "simulate", str(clean), "--probes", "2", "--days", "1",
            "--rib-out", str(rib),
        ]) == 0
        assert main([
            "inject", str(clean), str(dirty), "--seed", "7",
            "--garbage-rtt", "0.05",
        ]) == 0
    return dirty, rib


def monitor_with_runs(monkeypatch, dirty, rib):
    """raclette's monitor over ``dirty``, and every result it was fed."""
    fed = []
    ingest_many = LastMileMonitor.ingest_many

    def recording(self, results):
        results = list(results)
        fed.extend(results)
        ingest_many(self, results)

    monkeypatch.setattr(LastMileMonitor, "ingest_many", recording)
    monitor = monitor_stream(
        build_parser().parse_args([str(dirty), "--rib", str(rib)])
    )
    return monitor, fed


class TestOneReader:
    """raclette and the batch loader read lines through one reader."""

    def test_raclette_and_loader_keep_the_same_traceroutes(
        self, faulted_stream, monkeypatch
    ):
        dirty, rib = faulted_stream
        monitor, fed = monitor_with_runs(monkeypatch, dirty, rib)
        dataset = load_traceroutes(dirty)
        loaded = dataset.quality

        kept = {}
        for result in fed:
            kept.setdefault(
                (result.prb_id, result.msm_id, result.timestamp), result
            )
        assert len(kept) == len(dataset)
        for prb_id in dataset.probe_ids():
            ours = sorted(
                (r for r in kept.values() if r.prb_id == prb_id),
                key=lambda r: r.timestamp,
            )
            assert ours == dataset.for_probe(prb_id)

        ledger = monitor.quality
        assert ledger.dropped_count(DropReason.STALE_RECORD) == 0
        for reason in (
            DropReason.CORRUPT_LINE, DropReason.DUPLICATE_RECORD,
            DropReason.MALFORMED_RECORD,
        ):
            assert ledger.dropped_count(reason) == (
                loaded.dropped_count(reason)
            ), reason
        garbage = ledger.degraded_count(DropReason.GARBAGE_RTT)
        assert garbage > 0
        assert garbage == loaded.degraded_count(DropReason.GARBAGE_RTT)

        # Each non-blank line is ingested once per stage.
        lines = sum(1 for line in dirty.open() if line.strip())
        assert ledger.stage(STAGE).ingested == lines
        load = loaded.stage("io-load-traceroutes")
        assert load.ingested == lines
        assert load.ingested == len(dataset) + load.dropped_total

    def test_no_garbage_rtt_reaches_the_monitor(
        self, faulted_stream, monkeypatch
    ):
        dirty, rib = faulted_stream
        monitor, fed = monitor_with_runs(monkeypatch, dirty, rib)
        assert monitor.quality.degraded_count(DropReason.GARBAGE_RTT) > 0
        assert monitor.results_seen == len(fed)
        rtts = [
            rtt for result in fed for hop in result.hops
            for rtt in hop.rtts
        ]
        assert rtts
        assert all(
            math.isfinite(rtt) and 0 <= rtt <= MAX_SANE_RTT_MS
            for rtt in rtts
        )
