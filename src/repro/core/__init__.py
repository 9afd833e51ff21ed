"""Core analysis pipeline: the paper's methodology (§2–§4).

See DESIGN.md §3 for the stage map.

The CDN-throughput side (:mod:`~repro.core.throughput`,
:mod:`~repro.core.correlation`) loads on first use: it pulls in
:mod:`repro.cdn`, which no survey, classify or stream run needs.
"""

from .._lazy import lazy_exports

from .aggregate import (
    AggregatedSignal,
    aggregate_population,
    probe_queuing_delay,
    probes_with_daily_delay_over,
)
from .classify import (
    Classification,
    ClassificationThresholds,
    DEFAULT_THRESHOLDS,
    Severity,
    classify_markers,
    classify_signal,
)
from .kernels import DEFAULT_KERNELS, resolve_kernels
from .filtering import (
    asns_with_min_probes,
    non_anchor_probes,
    probes_in_asn,
    probes_in_cities,
    probes_in_greater_tokyo,
    resolve_probe_asn,
)
from .lastmile import (
    MIN_TRACEROUTES_PER_BIN,
    classify_hop_address,
    estimate_dataset,
    estimate_probe_series,
    lastmile_samples,
)
from .report import (
    amplitude_distribution,
    cdf,
    daily_fraction,
    delay_throughput_scatter_bins,
    format_table,
    render_failure_log,
    render_periodogram_summary,
    render_quality_report,
    render_severity_breakdown,
    render_survey_headline,
    render_throughput_summary,
    render_weekly_overlay,
    weekly_delay_overlay,
)
from .pipeline import ASAnalysis, analyze_asn
from .series import LastMileDataset, ProbeBinSeries
from .spectral import (
    DAILY_FREQUENCY_CPH,
    Periodogram,
    SpectralMarkers,
    extract_markers,
    fill_gaps,
    welch_periodogram,
)
from .stats import (
    BootstrapEstimate,
    bootstrap_daily_amplitude,
    bootstrap_spearman,
    bootstrap_statistic,
    churn_jaccard,
    wilson_rank_bounds,
    wilson_score_interval,
)
from .textplot import (
    daily_panel,
    downsample,
    horizontal_bars,
    sparkline,
    timeseries_panel,
)
from .survey import (
    ASFailure,
    ASReport,
    SurveyResult,
    SurveySuite,
    breakdown_by_rank,
    breakdown_percentages,
    classify_asn_batch,
    classify_dataset,
    geographic_distribution,
)

__all__ = [
    "cdf",
    "amplitude_distribution",
    "daily_fraction",
    "weekly_delay_overlay",
    "format_table",
    "render_weekly_overlay",
    "render_periodogram_summary",
    "render_severity_breakdown",
    "render_survey_headline",
    "render_quality_report",
    "render_failure_log",
    "render_throughput_summary",
    "delay_throughput_scatter_bins",
    "BootstrapEstimate",
    "bootstrap_statistic",
    "bootstrap_daily_amplitude",
    "bootstrap_spearman",
    "churn_jaccard",
    "wilson_rank_bounds",
    "wilson_score_interval",
    "sparkline",
    "downsample",
    "timeseries_panel",
    "daily_panel",
    "horizontal_bars",
    "CorrelationResult",
    "align_series",
    "spearman_delay_throughput",
    "ASAnalysis",
    "analyze_asn",
    "ASFailure",
    "ASReport",
    "SurveyResult",
    "SurveySuite",
    "classify_dataset",
    "classify_asn_batch",
    "DEFAULT_KERNELS",
    "resolve_kernels",
    "breakdown_by_rank",
    "breakdown_percentages",
    "geographic_distribution",
    "MIN_OBJECT_BYTES",
    "ThroughputSeries",
    "filter_requests",
    "median_throughput_series",
    "per_asn_throughput",
    "resolve_client_asns",
    "LastMileDataset",
    "ProbeBinSeries",
    "MIN_TRACEROUTES_PER_BIN",
    "classify_hop_address",
    "lastmile_samples",
    "estimate_probe_series",
    "estimate_dataset",
    "resolve_probe_asn",
    "non_anchor_probes",
    "probes_in_asn",
    "probes_in_cities",
    "probes_in_greater_tokyo",
    "asns_with_min_probes",
    "AggregatedSignal",
    "probe_queuing_delay",
    "aggregate_population",
    "probes_with_daily_delay_over",
    "DAILY_FREQUENCY_CPH",
    "Periodogram",
    "SpectralMarkers",
    "welch_periodogram",
    "extract_markers",
    "fill_gaps",
    "Severity",
    "Classification",
    "ClassificationThresholds",
    "DEFAULT_THRESHOLDS",
    "classify_markers",
    "classify_signal",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "correlation": (
        "CorrelationResult", "align_series", "spearman_delay_throughput",
    ),
    "throughput": (
        "MIN_OBJECT_BYTES", "ThroughputSeries", "filter_requests",
        "median_throughput_series", "per_asn_throughput",
        "resolve_client_asns",
    ),
})
