"""Synthetic survey archive builder shared by the serving scripts.

``overload_smoke.py`` and ``loadtest_gate.py`` both need a small,
deterministic archive with a few periods and a spread of severities —
built here once so the two harnesses stay in lockstep.
"""

import datetime as dt

from repro.core import Classification, Severity, SurveyResult
from repro.core.spectral import SpectralMarkers
from repro.core.survey import ASReport
from repro.store import SurveyArchive
from repro.timebase import MeasurementPeriod

PERIODS = ("2019-03", "2019-06", "2019-09")

#: Links every synthetic anomaly report observes (near, far).
LINKS = (
    ("60.0.0.1", "60.0.0.2"),
    ("60.0.0.3", "60.0.0.1"),
    ("60.0.0.2", "80.0.0.9"),
)


def build_anomaly_payload(period: str, offset: int = 0) -> dict:
    """A small deterministic anomaly-report payload for one period.

    Shape-compatible with :mod:`repro.anomaly` reports (kind, links,
    forwarding, events) so the serving routes and the loadtest mix
    exercise the real read paths; ``offset`` varies which link carries
    the period's delay event so cross-period deltas are non-trivial.
    """
    slots = 48
    links = {}
    events = []
    for i, (near, far) in enumerate(LINKS):
        name = f"{near}--{far}"
        anomalous = [10 + offset] if i == offset % len(LINKS) else []
        links[name] = {
            "near": near,
            "far": far,
            "samples": 900 + 10 * i,
            "bins": slots,
            "median_ms": 3.0 + 0.5 * i,
            "band_ms": [2.8 + 0.5 * i, 3.2 + 0.5 * i],
            "anomalous_bins": anomalous,
            "reference": {
                "median_ms": [3.0 + 0.5 * i] * slots,
                "low_ms": [2.8 + 0.5 * i] * slots,
                "high_ms": [3.2 + 0.5 * i] * slots,
            },
        }
        for bin_index in anomalous:
            events.append({
                "kind": "delay",
                "link": name,
                "bin": bin_index,
                "direction": "high",
                "median_ms": 40.0,
                "band_ms": [38.0, 42.0],
                "reference_ms": [2.8 + 0.5 * i, 3.2 + 0.5 * i],
                "reference_median_ms": 3.0 + 0.5 * i,
                "gap_ms": 34.8,
            })
    return {
        "kind": "anomaly-report",
        "period": period,
        "bin_seconds": 1800,
        "num_bins": slots,
        "bins_per_day": slots,
        "confidence": 0.95,
        "min_samples": 3,
        "forwarding_threshold": 0.5,
        "min_gap_ms": 2.0,
        "reference_source": "self",
        "processed": 4000,
        "links_total": len(links),
        "links": links,
        "forwarding": {
            "60.0.0.2--192.5.0.1": {"80.0.0.9": 450, "80.0.0.10": 30},
        },
        "events": events,
    }


def build_archive(
    root, ases_per_period: int = 8, with_anomalies: bool = True,
) -> SurveyArchive:
    """A committed archive with three periods and mixed severities.

    ``with_anomalies`` also attaches a synthetic anomaly report to
    each period, so the ``/v1/period/<p>/anomalies`` and
    ``/v1/link/<link>/history`` routes have content to serve.  Every
    period is committed as its packed segment, so the harnesses
    exercise the mmap read path.
    """
    archive = SurveyArchive(root)
    severities = (Severity.NONE, Severity.LOW, Severity.SEVERE)
    for offset, name in enumerate(PERIODS):
        result = SurveyResult(period=MeasurementPeriod(
            name, dt.datetime(2019, 3 * (offset + 1), 1), 15,
        ))
        for i in range(ases_per_period):
            asn = 64500 + i
            severity = severities[(i + offset) % len(severities)]
            markers = None
            if severity is not Severity.NONE:
                markers = SpectralMarkers(
                    prominent_frequency_cph=1 / 24,
                    prominent_amplitude_ms=2.5,
                    daily_amplitude_ms=2.5,
                )
            result.reports[asn] = ASReport(
                asn=asn, probe_count=5,
                classification=Classification(severity, markers),
            )
        archive.ingest(result)
        if with_anomalies:
            archive.ingest_anomalies(
                name, build_anomaly_payload(name, offset)
            )
    return archive
