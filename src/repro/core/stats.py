"""Statistical utilities: bootstrap and rank-based confidence intervals.

The paper reports point estimates (amplitudes, Spearman ρ); a
production deployment of this pipeline should attach uncertainty.
These helpers bootstrap over probes (for population-level delay
statistics) and over bins (for correlation), respecting the data's
structure: resampling probes keeps within-probe temporal correlation
intact, which naive per-bin resampling would destroy.

:func:`wilson_score_interval` is the non-resampling counterpart: a
closed-form rank-based confidence band on the median (Fontugne et
al., "Pinpointing Delay and Forwarding Anomalies"), cheap enough to
run per link per time bin where a bootstrap would not be.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .aggregate import aggregate_population
from .series import LastMileDataset
from .spectral import extract_markers


@dataclass(frozen=True)
class BootstrapEstimate:
    """Point estimate with a percentile-bootstrap interval."""

    value: float
    low: float
    high: float
    confidence: float
    replicates: int

    def __str__(self) -> str:
        pct = int(round(self.confidence * 100))
        return (
            f"{self.value:.3f} [{self.low:.3f}, {self.high:.3f}] "
            f"({pct}% CI, {self.replicates} replicates)"
        )

    @property
    def width(self) -> float:
        """Interval width."""
        return self.high - self.low


def bootstrap_statistic(
    sample: np.ndarray,
    statistic: Callable[[np.ndarray], float],
    replicates: int = 1000,
    confidence: float = 0.95,
    rng: Optional[np.random.Generator] = None,
) -> BootstrapEstimate:
    """Generic percentile bootstrap of a 1-D statistic."""
    sample = np.asarray(sample)
    if sample.shape[0] < 2:
        raise ValueError("need at least 2 observations to bootstrap")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence {confidence} outside (0,1)")
    rng = rng if rng is not None else np.random.default_rng()

    point = float(statistic(sample))
    values = np.empty(replicates)
    n = sample.shape[0]
    for i in range(replicates):
        indices = rng.integers(0, n, size=n)
        values[i] = statistic(sample[indices])
    alpha = (1.0 - confidence) / 2.0
    return BootstrapEstimate(
        value=point,
        low=float(np.quantile(values, alpha)),
        high=float(np.quantile(values, 1.0 - alpha)),
        confidence=confidence,
        replicates=replicates,
    )


def bootstrap_daily_amplitude(
    dataset: LastMileDataset,
    probe_ids: Optional[Sequence[int]] = None,
    replicates: int = 200,
    confidence: float = 0.95,
    rng: Optional[np.random.Generator] = None,
) -> BootstrapEstimate:
    """CI on an AS's daily amplitude by resampling *probes*.

    Each replicate re-aggregates a bootstrap probe sample and re-runs
    the Welch extraction — the uncertainty a different Atlas probe
    deployment would have produced.
    """
    if probe_ids is None:
        probe_ids = dataset.probe_ids()
    probe_ids = list(probe_ids)
    if len(probe_ids) < 2:
        raise ValueError("need at least 2 probes to bootstrap")
    rng = rng if rng is not None else np.random.default_rng()

    def amplitude(ids) -> float:
        signal = aggregate_population(dataset, list(ids))
        markers = extract_markers(
            signal.delay_ms, dataset.grid.bin_seconds
        )
        return markers.daily_amplitude_ms if markers else 0.0

    point = amplitude(probe_ids)
    values = np.empty(replicates)
    n = len(probe_ids)
    for i in range(replicates):
        indices = rng.integers(0, n, size=n)
        values[i] = amplitude([probe_ids[j] for j in indices])
    alpha = (1.0 - confidence) / 2.0
    return BootstrapEstimate(
        value=point,
        low=float(np.quantile(values, alpha)),
        high=float(np.quantile(values, 1.0 - alpha)),
        confidence=confidence,
        replicates=replicates,
    )


def bootstrap_spearman(
    x: np.ndarray,
    y: np.ndarray,
    replicates: int = 1000,
    confidence: float = 0.95,
    block: int = 8,
    rng: Optional[np.random.Generator] = None,
) -> BootstrapEstimate:
    """Block-bootstrap CI on Spearman ρ for time-binned series.

    Delay/throughput bins are autocorrelated (diurnal structure), so a
    naive bootstrap understates uncertainty; resampling contiguous
    blocks of ``block`` bins (4 hours at 30-minute bins) preserves the
    short-range correlation.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("series length mismatch")
    mask = ~np.isnan(x) & ~np.isnan(y)
    x, y = x[mask], y[mask]
    if x.shape[0] < 2 * block:
        raise ValueError("too few joint bins for block bootstrap")
    rng = rng if rng is not None else np.random.default_rng()
    from scipy import stats as sp_stats     # off the import path

    point, _p = sp_stats.spearmanr(x, y)
    n = x.shape[0]
    n_blocks = int(np.ceil(n / block))
    starts_max = n - block
    values = np.empty(replicates)
    for i in range(replicates):
        starts = rng.integers(0, starts_max + 1, size=n_blocks)
        indices = (
            starts[:, None] + np.arange(block)[None, :]
        ).ravel()[:n]
        rho, _p = sp_stats.spearmanr(x[indices], y[indices])
        values[i] = rho if np.isfinite(rho) else 0.0
    alpha = (1.0 - confidence) / 2.0
    return BootstrapEstimate(
        value=float(point),
        low=float(np.quantile(values, alpha)),
        high=float(np.quantile(values, 1.0 - alpha)),
        confidence=confidence,
        replicates=replicates,
    )


@lru_cache(maxsize=None)
def _wilson_z(confidence: float) -> float:
    """The two-sided normal quantile of ``confidence``, once per value.

    ``ndtri`` is the inverse normal CDF ``scipy.stats.norm.ppf``
    evaluates, bit for bit, without importing ``scipy.stats``.
    """
    from scipy.special import ndtri     # off the import path

    return float(ndtri(1.0 - (1.0 - confidence) / 2.0))


def wilson_rank_bounds(n: int, confidence: float = 0.95) -> Tuple[float, float]:
    """Wilson score bounds on the median's *rank proportion*.

    For ``n`` samples the median is the p=0.5 order statistic; the
    Wilson score interval around p=0.5 gives the proportion range the
    true median's rank falls in with the requested confidence.  The
    bounds depend only on ``n`` and ``confidence``, so they can be
    precomputed once per (link, bin) population size.  Width shrinks
    monotonically as ``n`` grows.  ``n < 2`` has no interior ranks to
    bound: returns ``(nan, nan)``.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence {confidence} outside (0,1)")
    if n < 2:
        return (float("nan"), float("nan"))
    z = _wilson_z(confidence)
    p = 0.5
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    margin = (
        z * np.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    )
    return (center - margin, center + margin)


def wilson_score_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """Rank-based Wilson confidence band on the sample median.

    Maps the Wilson proportion bounds from :func:`wilson_rank_bounds`
    to order statistics of the sorted sample (floor below, ceil above,
    clipped to the sample), so the band is a pair of actually-observed
    values bracketing the median — the closed-form alternative to a
    bootstrap, cheap enough for every link × time bin.  Fewer than 2
    samples → ``(nan, nan)``.
    """
    values = np.sort(np.asarray(samples, dtype=np.float64))
    n = int(values.shape[0])
    lo_p, hi_p = wilson_rank_bounds(n, confidence)
    if not np.isfinite(lo_p):
        return (float("nan"), float("nan"))
    lo_rank = int(np.clip(np.floor(lo_p * (n - 1)), 0, n - 1))
    hi_rank = int(np.clip(np.ceil(hi_p * (n - 1)), 0, n - 1))
    return (float(values[lo_rank]), float(values[hi_rank]))


def churn_jaccard(before: Sequence[int], after: Sequence[int]) -> float:
    """Jaccard similarity of two reported-AS sets (§3.1 'little churn').

    1.0 = identical sets; 0.0 = disjoint.  Both empty counts as 1.0.
    """
    a, b = set(before), set(after)
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)
