"""Differential suite: the rebuilt monitor against its verbatim oracle.

``monitor_oracle.py`` keeps the per-record monitor the rebuilt one
replaced.  On timestamp-ordered streams the two must agree exactly —
every AS's ``delay_series`` and alert sequence, ``bins_skipped``, and
the per-reason ledger counts — however the stream is split: one
record at a time, runs of 7 and of 1,024, or the whole stream in one
call.  The streams are the seeded worlds of ``test_monitor.py``, the
example's two ISPs, and a synthetic stream with sparse bins, gaps,
unresolved probes, records without a last-mile sample, NaN timestamps
and adjacent duplicates.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

from repro.atlas import Hop, Reply, TracerouteResult
from repro.raclette import LastMileMonitor, ListSink, MonitorConfig
from repro.raclette.monitor import STAGE

from . import monitor_oracle
from .test_monitor import synthetic_result, world_stream

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / (
    "streaming_monitor.py"
)


def example_stream():
    """The example's two ISPs over two days, timestamp-ordered."""
    import datetime as dt

    from repro.timebase import MeasurementPeriod

    spec = importlib.util.spec_from_file_location("example", EXAMPLE)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    example.PERIOD = MeasurementPeriod(
        "stream-demo", dt.datetime(2019, 9, 2), 2
    )
    with contextlib.redirect_stdout(io.StringIO()):
        stream, probe_asn = example.build_stream()
    return stream, probe_asn.get


def no_boundary_result(prb_id, timestamp):
    """A traceroute whose public hop never answers: no sample."""
    return TracerouteResult(
        prb_id=prb_id, msm_id=5001, timestamp=timestamp,
        src_address="192.168.1.10", from_address="20.0.0.5",
        dst_address="192.5.0.1",
        hops=(
            Hop(1, (Reply("192.168.1.1", 0.5),) * 3),
            Hop(2, (Reply.timeout(),) * 3),
        ),
    )


def edge_stream():
    """Ordered stream exercising every skip and drop reason.

    Probes 1-2 (AS 10) congest in bins 20-29, probe 3 (AS 20) is
    quiet, probe 4 has no AS, probe 5 (AS 20) sends two results per
    bin (sparse), probe 6 (AS 10) only boundary-less traceroutes;
    probe 2 goes silent for bins 40-59, everyone for bins 70-74.
    NaN-stamped and adjacently duplicated results are sprinkled in.
    """
    rng = np.random.default_rng(17)
    ordered = []
    for bin_index in range(90):
        if 70 <= bin_index < 75:
            continue
        for k in range(6):
            for prb in (1, 2, 3, 4, 5, 6):
                if prb == 2 and 40 <= bin_index < 60:
                    continue
                if prb == 5 and k >= 2:
                    continue
                timestamp = bin_index * 1800.0 + k * 300.0 + prb
                if prb == 6:
                    ordered.append(no_boundary_result(prb, timestamp))
                    continue
                value = 3.0 + prb * 0.1 + rng.uniform(0.0, 0.3)
                if prb in (1, 2) and 20 <= bin_index < 30:
                    value += 4.0
                ordered.append(synthetic_result(prb, timestamp, value))
    stream = []
    for result in ordered:
        stream.append(result)
        draw = rng.random()
        if draw < 0.03:
            stream.append(result)
        elif draw < 0.05:
            stream.append(synthetic_result(
                result.prb_id, float("nan"), 3.0
            ))
    asns = {1: 10, 2: 10, 3: 20, 4: None, 5: 20, 6: 10}
    return stream, asns.get


STREAMS = {
    "seeded-world": lambda: world_stream(seed=55, days=2),
    "example": example_stream,
    "edge": edge_stream,
}

SPLITS = ("one-at-a-time", 7, 1024, "whole")

CONFIG = dict(
    alert_threshold_ms=1.0, alert_min_bins=3, baseline_window_bins=48,
)


@pytest.fixture(scope="module", params=sorted(STREAMS))
def stream(request):
    return STREAMS[request.param]()


def outcome(monitor, sink):
    """Everything the monitor reports, per AS and per reason."""
    entry = monitor.quality.stages[STAGE]
    asns = monitor.monitored_asns()
    return {
        "asns": asns,
        "series": {asn: monitor.delay_series(asn) for asn in asns},
        "alerts": {
            asn: [alert for alert in sink.alerts if alert.asn == asn]
            for asn in asns
        },
        "bins_skipped": monitor.bins_skipped,
        "ingested": entry.ingested,
        "dropped": dict(entry.dropped),
        "degraded": dict(entry.degraded),
        "counts": (
            monitor.results_seen, monitor.bins_closed,
            monitor.alerts_emitted,
        ),
    }


def run_oracle(results, asn_of):
    sink = ListSink()
    monitor = monitor_oracle.LastMileMonitor(
        asn_of=asn_of, sink=sink,
        config=monitor_oracle.MonitorConfig(**CONFIG),
    )
    monitor.ingest_many(results)
    monitor.flush()
    return outcome(monitor, sink)


def run_monitor(results, asn_of, split):
    sink = ListSink()
    monitor = LastMileMonitor(
        asn_of=asn_of, sink=sink, config=MonitorConfig(**CONFIG)
    )
    if split == "one-at-a-time":
        for result in results:
            monitor.ingest(result)
    elif split == "whole":
        monitor.ingest_many(results)
    else:
        for start in range(0, len(results), split):
            monitor.ingest_many(results[start:start + split])
    monitor.flush()
    return outcome(monitor, sink)


@pytest.fixture(scope="module")
def expected(stream):
    return run_oracle(*stream)


@pytest.mark.parametrize("split", SPLITS, ids=str)
def test_matches_oracle_for_any_split(stream, expected, split):
    assert run_monitor(*stream, split) == expected


def test_streams_are_not_trivial(stream, expected):
    """Each stream closes bins for at least one AS and raises alerts."""
    assert expected["asns"]
    assert all(expected["series"].values())
    assert expected["counts"][2] > 0


def test_edge_stream_covers_every_reason():
    expected = run_oracle(*edge_stream())
    assert set(expected["bins_skipped"]) == {
        "sparse-bin", "no-valid-bins", "unresolved-asn",
    }
    assert {reason.value for reason in expected["dropped"]} >= {
        "duplicate-record", "malformed-record",
    }
    assert expected["alerts"][10]
    assert not expected["alerts"][20]
