"""Survey result export — the paper's public survey artifacts [1].

The authors publish per-period survey results on a static site; this
module writes the equivalent machine-readable (JSON, CSV) and
human-readable (markdown) artifacts, and reads the JSON back.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
from pathlib import Path
from typing import Dict, Optional, Union

from ..apnic import EyeballRanking
from ..core.classify import Classification, Severity
from ..core.spectral import SpectralMarkers
from ..core.survey import ASFailure, ASReport, SurveyResult, SurveySuite
from ..quality import DataQualityReport
from ..timebase import MeasurementPeriod

PathLike = Union[str, Path]


def survey_to_dict(result: SurveyResult) -> Dict:
    """JSON-serializable form of one period's survey.

    Besides the classifications, the dump carries the failure log and
    the counts-only quality ledger, so two runs compare byte-for-byte
    on everything the pipeline decided — the worker-count and cache
    equivalence suite relies on that.  Quarantine *samples* are
    excluded: their retention order is an artifact of processing
    order, not an analysis outcome.
    """
    return {
        "period": {
            "name": result.period.name,
            "start": result.period.start.isoformat(),
            "days": result.period.days,
        },
        "reports": {
            str(asn): report_to_dict(report)
            for asn, report in sorted(result.reports.items())
        },
        "failures": {
            str(asn): {
                "error": failure.error,
                "message": failure.message,
                "attempts": failure.attempts,
            }
            for asn, failure in sorted(result.failures.items())
        },
        "quality": quality_counts_dict(result.quality),
    }


def report_to_dict(report: ASReport) -> Dict:
    """JSON-serializable form of one AS's classification."""
    return {
        "probe_count": report.probe_count,
        "severity": report.severity.value,
        "markers": markers_to_dict(report.classification.markers),
    }


def report_from_dict(asn: int, entry: Dict) -> ASReport:
    """Inverse of :func:`report_to_dict`."""
    return ASReport(
        asn=asn,
        probe_count=int(entry["probe_count"]),
        classification=Classification(
            severity=Severity(entry["severity"]),
            markers=markers_from_dict(entry.get("markers")),
        ),
    )


def markers_to_dict(markers: Optional[SpectralMarkers]):
    """JSON form of spectral markers (None for degenerate signals)."""
    if markers is None:
        return None
    return {
        "prominent_frequency_cph": markers.prominent_frequency_cph,
        "prominent_amplitude_ms": markers.prominent_amplitude_ms,
        "daily_amplitude_ms": markers.daily_amplitude_ms,
    }


def markers_from_dict(data: Optional[Dict]) -> Optional[SpectralMarkers]:
    """Inverse of :func:`markers_to_dict`.

    Floats survive exactly: ``json`` emits shortest-round-trip reprs,
    so a cached or exported classification is bit-identical to the
    freshly computed one.
    """
    if data is None:
        return None
    return SpectralMarkers(
        prominent_frequency_cph=float(data["prominent_frequency_cph"]),
        prominent_amplitude_ms=float(data["prominent_amplitude_ms"]),
        daily_amplitude_ms=float(data["daily_amplitude_ms"]),
    )


def quality_counts_dict(quality: DataQualityReport) -> Dict:
    """Counts-only quality ledger (no quarantine samples)."""
    return {
        name: {
            key: value
            for key, value in entry.items() if key != "quarantine"
        }
        for name, entry in quality.to_dict().items()
    }


def survey_from_dict(data: Dict) -> SurveyResult:
    """Inverse of :func:`survey_to_dict`.

    Reads pre-extension dumps too: missing ``failures``/``quality``
    sections load as empty.
    """
    period = MeasurementPeriod(
        name=data["period"]["name"],
        start=dt.datetime.fromisoformat(data["period"]["start"]),
        days=int(data["period"]["days"]),
    )
    result = SurveyResult(period=period)
    for asn_text, entry in data["reports"].items():
        result.reports[int(asn_text)] = report_from_dict(
            int(asn_text), entry
        )
    for asn_text, entry in data.get("failures", {}).items():
        result.failures[int(asn_text)] = ASFailure(
            asn=int(asn_text),
            error=entry["error"],
            message=entry["message"],
            attempts=int(entry["attempts"]),
        )
    quality = data.get("quality")
    if quality:
        result.quality = DataQualityReport.from_dict(quality)
    return result


def save_suite(suite: SurveySuite, path: PathLike) -> None:
    """Write a whole suite as one JSON document."""
    Path(path).write_text(json.dumps({
        name: survey_to_dict(result)
        for name, result in suite.results.items()
    }, indent=1))


def load_suite(path: PathLike) -> SurveySuite:
    """Read a suite written by :func:`save_suite`."""
    suite = SurveySuite()
    for _name, data in json.loads(Path(path).read_text()).items():
        suite.add(survey_from_dict(data))
    return suite


def survey_to_csv(
    result: SurveyResult,
    ranking: Optional[EyeballRanking] = None,
) -> str:
    """One CSV row per classified AS (the site's downloadable table)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([
        "period", "asn", "country", "eyeball_rank", "probes",
        "severity", "daily_amplitude_ms", "prominent_frequency_cph",
    ])
    for asn, report in sorted(result.reports.items()):
        estimate = ranking.get(asn) if ranking is not None else None
        markers = report.classification.markers
        writer.writerow([
            result.period.name,
            asn,
            estimate.country if estimate else "",
            estimate.global_rank if estimate else "",
            report.probe_count,
            report.severity.value,
            f"{report.classification.daily_amplitude_ms:.4f}",
            (f"{markers.prominent_frequency_cph:.6f}"
             if markers is not None else ""),
        ])
    return buffer.getvalue()


def survey_from_csv(text: str) -> Dict[int, Dict]:
    """Parse :func:`survey_to_csv` output back into report fields.

    Returns ``{asn: row-dict}`` with the same value types the CSV
    carries (severity string, probe count int, formatted floats kept
    as floats).  This is the site table's documented contract — the
    round-trip tests compare it against :func:`survey_to_dict`.
    """
    rows: Dict[int, Dict] = {}
    for record in csv.DictReader(io.StringIO(text)):
        asn = int(record["asn"])
        rows[asn] = {
            "period": record["period"],
            "country": record["country"] or None,
            "eyeball_rank": (
                int(record["eyeball_rank"])
                if record["eyeball_rank"] else None
            ),
            "probe_count": int(record["probes"]),
            "severity": record["severity"],
            "daily_amplitude_ms": float(record["daily_amplitude_ms"]),
            "prominent_frequency_cph": (
                float(record["prominent_frequency_cph"])
                if record["prominent_frequency_cph"] else None
            ),
        }
    return rows


def failures_to_csv(result: SurveyResult) -> str:
    """One CSV row per failed (quarantined) AS."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([
        "period", "asn", "error", "message", "attempts",
    ])
    for asn, failure in sorted(result.failures.items()):
        writer.writerow([
            result.period.name, asn, failure.error,
            failure.message, failure.attempts,
        ])
    return buffer.getvalue()


def failures_from_csv(text: str) -> Dict[str, Dict]:
    """Inverse of :func:`failures_to_csv`.

    Returns the same shape as ``survey_to_dict(result)["failures"]``
    so the two can be compared directly.
    """
    failures: Dict[str, Dict] = {}
    for record in csv.DictReader(io.StringIO(text)):
        failures[record["asn"]] = {
            "error": record["error"],
            "message": record["message"],
            "attempts": int(record["attempts"]),
        }
    return failures


def quality_counts_to_csv(result: SurveyResult) -> str:
    """The counts-only quality ledger, flattened to CSV rows.

    ``kind`` is ``ingested`` (reason empty), ``dropped`` or
    ``degraded`` (reason = the taxonomy value).
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["period", "stage", "kind", "reason", "count"])
    for stage, entry in quality_counts_dict(result.quality).items():
        writer.writerow([
            result.period.name, stage, "ingested", "",
            entry["ingested"],
        ])
        for kind in ("dropped", "degraded"):
            for reason, count in entry[kind].items():
                writer.writerow([
                    result.period.name, stage, kind, reason, count,
                ])
    return buffer.getvalue()


def quality_counts_from_csv(text: str) -> Dict[str, Dict]:
    """Inverse of :func:`quality_counts_to_csv`.

    Returns the same shape as ``survey_to_dict(result)["quality"]``.
    """
    counts: Dict[str, Dict] = {}
    for record in csv.DictReader(io.StringIO(text)):
        entry = counts.setdefault(record["stage"], {
            "ingested": 0, "dropped": {}, "degraded": {},
        })
        if record["kind"] == "ingested":
            entry["ingested"] = int(record["count"])
        else:
            entry[record["kind"]][record["reason"]] = (
                int(record["count"])
            )
    return counts


def survey_to_markdown(
    result: SurveyResult,
    ranking: Optional[EyeballRanking] = None,
    max_rows: int = 50,
) -> str:
    """The site's per-period summary page, as markdown."""
    counts = result.severity_counts()
    lines = [
        f"# Last-mile congestion survey — {result.period.name}",
        "",
        f"Monitored ASes: **{result.monitored_count}**  ",
        f"Reported (congested): **{len(result.reported_asns())}** "
        f"(severe {counts[Severity.SEVERE]}, "
        f"mild {counts[Severity.MILD]}, low {counts[Severity.LOW]})",
        "",
        "| ASN | country | rank | probes | class | daily amp (ms) |",
        "|---|---|---|---|---|---|",
    ]
    reported = sorted(
        (report for report in result.reports.values()
         if report.is_reported),
        key=lambda r: -r.classification.daily_amplitude_ms,
    )
    for report in reported[:max_rows]:
        estimate = ranking.get(report.asn) if ranking else None
        lines.append(
            f"| AS{report.asn} "
            f"| {estimate.country if estimate else '—'} "
            f"| {estimate.global_rank if estimate else '—'} "
            f"| {report.probe_count} "
            f"| {report.severity.value} "
            f"| {report.classification.daily_amplitude_ms:.2f} |"
        )
    return "\n".join(lines) + "\n"


def export_site(
    suite: SurveySuite,
    directory: PathLike,
    ranking: Optional[EyeballRanking] = None,
) -> Dict[str, Path]:
    """Write the whole public-site bundle: JSON + CSV + markdown.

    Returns the written paths keyed by artifact name.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: Dict[str, Path] = {}

    suite_path = directory / "surveys.json"
    save_suite(suite, suite_path)
    written["suite"] = suite_path

    from ..core.report import cdf
    from .charts import bar_chart_svg, line_chart_svg

    for name, result in suite.results.items():
        csv_path = directory / f"survey-{name}.csv"
        csv_path.write_text(survey_to_csv(result, ranking))
        written[f"csv-{name}"] = csv_path
        if result.failures:
            failures_path = directory / f"survey-{name}-failures.csv"
            failures_path.write_text(failures_to_csv(result))
            written[f"csv-failures-{name}"] = failures_path
        quality_path = directory / f"survey-{name}-quality.csv"
        quality_path.write_text(quality_counts_to_csv(result))
        written[f"csv-quality-{name}"] = quality_path
        md_path = directory / f"survey-{name}.md"
        md_path.write_text(survey_to_markdown(result, ranking))
        written[f"md-{name}"] = md_path

        amplitudes = result.daily_amplitudes()
        if amplitudes.size:
            x, y = cdf(amplitudes)
            svg_path = directory / f"survey-{name}-amplitudes.svg"
            svg_path.write_text(line_chart_svg(
                {"daily amplitude": (x, y)},
                title=f"Daily amplitude CDF — {name}",
                x_label="peak-to-peak amplitude (ms)",
                y_label="CDF (ASes)",
            ))
            written[f"svg-amplitudes-{name}"] = svg_path
        counts = result.severity_counts()
        svg_path = directory / f"survey-{name}-classes.svg"
        svg_path.write_text(bar_chart_svg(
            [severity.value for severity in counts],
            [counts[severity] for severity in counts],
            title=f"Classification — {name}",
            y_label="ASes",
        ))
        written[f"svg-classes-{name}"] = svg_path

    index = directory / "index.md"
    index.write_text("\n".join(
        ["# Persistent last-mile congestion — survey results", ""]
        + [f"- [{name}](survey-{name}.md)"
           for name in suite.results]
    ) + "\n")
    written["index"] = index
    return written
