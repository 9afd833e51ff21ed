"""Report generation: the series behind each figure, as text.

The benchmark harness regenerates every figure of the paper as data
series plus a plain-text rendering (the environment has no plotting
stack).  Each ``figN_*`` helper returns the numbers a plotting script
would consume; ``render_*`` helpers format them for the bench logs and
EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple,
)

import numpy as np

from ..quality import DataQualityReport
from ..timebase import TimeGrid, weekly_overlay
from .aggregate import AggregatedSignal
from .classify import ClassificationThresholds, DEFAULT_THRESHOLDS, Severity
from .spectral import Periodogram
from .survey import SurveyResult

if TYPE_CHECKING:
    from .throughput import ThroughputSeries


def weekly_delay_overlay(
    signal: AggregatedSignal, utc_offset_hours: float = 0.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Fig. 1 series: aggregated delay folded onto one week."""
    return weekly_overlay(
        signal.grid, signal.delay_ms, utc_offset_hours
    )


def cdf(values: Iterable[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: sorted values and cumulative fractions.

    NaNs are dropped.  The y value at index i is the fraction of
    samples <= x[i] — the paper's 'CDF (Nb. of ASes)' axes (Fig. 3).
    """
    array = np.asarray(list(values), dtype=np.float64)
    array = array[~np.isnan(array)]
    array.sort()
    if array.size == 0:
        return array, array
    fractions = np.arange(1, array.size + 1) / array.size
    return array, fractions


def amplitude_distribution(
    amplitudes: Iterable[float],
    thresholds: ClassificationThresholds = DEFAULT_THRESHOLDS,
) -> Dict[str, float]:
    """The §3.1 amplitude split (≈ 83/7/6/4 % in the paper)."""
    array = np.asarray(list(amplitudes), dtype=np.float64)
    array = array[~np.isnan(array)]
    if array.size == 0:
        return {bucket: float("nan") for bucket in (
            "below_low", "low_to_mild", "mild_to_severe", "above_severe",
        )}
    n = array.size
    return {
        "below_low": float((array <= thresholds.low_ms).sum()) / n,
        "low_to_mild": float(
            ((array > thresholds.low_ms)
             & (array <= thresholds.mild_ms)).sum()
        ) / n,
        "mild_to_severe": float(
            ((array > thresholds.mild_ms)
             & (array <= thresholds.severe_ms)).sum()
        ) / n,
        "above_severe": float((array > thresholds.severe_ms).sum()) / n,
    }


def daily_fraction(
    frequencies_cph: Iterable[float], tolerance: float = 0.26
) -> float:
    """Share of signals whose prominent component is daily (Fig. 3 top)."""
    array = np.asarray(list(frequencies_cph), dtype=np.float64)
    array = array[~np.isnan(array)]
    if array.size == 0:
        return float("nan")
    daily = 1.0 / 24.0
    return float((np.abs(array - daily) <= daily * tolerance).mean())


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    float_format: str = "{:.3f}",
) -> str:
    """Fixed-width text table used across the bench reports."""
    def fmt(cell):
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    text_rows = [[fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in text_rows))
        if text_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in text_rows:
        lines.append(
            "  ".join(row[i].ljust(widths[i]) for i in range(len(row)))
        )
    return "\n".join(lines)


def render_weekly_overlay(
    series: Dict[str, Tuple[np.ndarray, np.ndarray]],
    slots_per_row: int = 8,
) -> str:
    """Summarize Fig. 1-style overlays: per-series peak hour and range."""
    rows = []
    for label, (hours, medians) in series.items():
        if len(medians) == 0:
            rows.append([label, "-", float("nan"), float("nan")])
            continue
        peak_index = int(np.nanargmax(medians))
        day = int(hours[peak_index] // 24)
        hour = hours[peak_index] % 24
        day_names = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
        rows.append([
            label,
            f"{day_names[day]} {hour:04.1f}h",
            float(np.nanmax(medians)),
            float(np.nanmin(medians)),
        ])
    return format_table(
        ["series", "peak at", "max delay (ms)", "min delay (ms)"], rows
    )


def render_periodogram_summary(
    periodograms: Dict[str, Periodogram]
) -> str:
    """Fig. 2 summary: prominent frequency and daily amplitude."""
    rows = []
    for label, periodogram in periodograms.items():
        freq, amp = periodogram.prominent()
        rows.append([
            label, float(freq), float(amp),
            float(periodogram.amplitude_at(1.0 / 24.0)),
        ])
    return format_table(
        ["series", "prominent freq (cph)", "amplitude (ms)",
         "daily amplitude (ms)"],
        rows,
        float_format="{:.4f}",
    )


def render_severity_breakdown(
    breakdown_pct: Dict[str, Dict[Severity, float]],
    title: str = "",
) -> str:
    """Fig. 4 text: percentage of ASes per rank bucket and class."""
    severities = [
        Severity.SEVERE, Severity.MILD, Severity.LOW, Severity.NONE,
    ]
    rows = [
        [bucket] + [float(classes[s]) for s in severities]
        for bucket, classes in breakdown_pct.items()
    ]
    table = format_table(
        ["APNIC rank"] + [s.value for s in severities], rows,
        float_format="{:.1f}",
    )
    return f"{title}\n{table}" if title else table


def render_survey_headline(result: SurveyResult) -> str:
    """§3.1 headline numbers for one period."""
    counts = result.severity_counts()
    line = (
        f"period {result.period.name}: monitored={result.monitored_count} "
        f"none={counts[Severity.NONE]} low={counts[Severity.LOW]} "
        f"mild={counts[Severity.MILD]} severe={counts[Severity.SEVERE]} "
        f"(none fraction {result.none_fraction():.1%})"
    )
    if result.failures:
        line += f" failures={len(result.failures)}"
    return line


def render_quality_report(quality: DataQualityReport) -> str:
    """Data-quality accounting as a fixed-width table.

    One row per (stage, dropped/degraded, reason); the header line
    carries the totals.  A clean run renders as a single line.
    """
    header = (
        f"data quality: {quality.total_ingested} ingested, "
        f"{quality.total_dropped} dropped, "
        f"{quality.total_degraded} degraded"
    )
    rows = [
        [stage, kind, reason, count]
        for stage, kind, reason, count in quality.rows()
    ]
    if not rows:
        return header + " (clean)"
    table = format_table(
        ["stage", "kind", "reason", "count"], rows,
        float_format="{:.0f}",
    )
    return header + "\n" + table


def render_failure_log(result: SurveyResult) -> str:
    """The survey's isolated per-AS failures, one line each."""
    if not result.failures:
        return "failures: none"
    lines = [f"failures: {len(result.failures)} AS(es) isolated"]
    for asn in result.failed_asns():
        lines.append(f"  {result.failures[asn]}")
    return "\n".join(lines)


def render_throughput_summary(
    series: Dict[str, ThroughputSeries]
) -> str:
    """Fig. 6/9 summary: overall median, worst daily minimum."""
    rows = []
    for label, ts in series.items():
        with np.errstate(all="ignore"):
            rows.append([
                label,
                float(np.nanmedian(ts.median_mbps)),
                float(np.nanmin(ts.daily_min_mbps())),
                float(np.nanmax(ts.median_mbps)),
            ])
    return format_table(
        ["series", "median (Mbps)", "worst daily min", "max"],
        rows,
        float_format="{:.1f}",
    )


def delay_throughput_scatter_bins(
    delay_ms: np.ndarray,
    throughput_mbps: np.ndarray,
    delay_edges: Optional[Sequence[float]] = None,
) -> List[Tuple[float, float, int]]:
    """Fig. 7 digest: median throughput per delay bin.

    Returns (delay_bin_center, median_throughput, samples) triples —
    the numeric backbone of the scatter plot.
    """
    if delay_edges is None:
        delay_edges = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0]
    delay_ms = np.asarray(delay_ms, dtype=np.float64)
    throughput_mbps = np.asarray(throughput_mbps, dtype=np.float64)
    out = []
    for low, high in zip(delay_edges, delay_edges[1:]):
        mask = (delay_ms >= low) & (delay_ms < high)
        mask &= ~np.isnan(throughput_mbps)
        if mask.sum() == 0:
            continue
        out.append((
            (low + high) / 2.0,
            float(np.median(throughput_mbps[mask])),
            int(mask.sum()),
        ))
    return out
