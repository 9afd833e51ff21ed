"""Delay–throughput correlation (paper §4.3).

The paper cross-references the 30-minute aggregated queueing-delay
signal with the 15-minute median throughput series and reports
Spearman's rank correlation (the relationship is clearly non-linear).
We align the two series by averaging throughput bins into delay bins,
drop bins where either side is missing, and compute ρ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .aggregate import AggregatedSignal
from .throughput import ThroughputSeries


@dataclass(frozen=True)
class CorrelationResult:
    """Spearman correlation between delay and throughput."""

    rho: float
    p_value: float
    n_bins: int
    #: Aligned samples, for scatter plots (Fig. 7).
    delay_ms: np.ndarray
    throughput_mbps: np.ndarray


def align_series(
    delay: AggregatedSignal, throughput: ThroughputSeries
) -> Tuple[np.ndarray, np.ndarray]:
    """Resample throughput onto the delay grid and mask joint gaps.

    The throughput grid must be an integer refinement of the delay
    grid (15-minute bins inside 30-minute bins in the paper).
    """
    delay_bin = delay.grid.bin_seconds
    tput_bin = throughput.grid.bin_seconds
    if delay_bin % tput_bin:
        raise ValueError(
            f"throughput bin {tput_bin}s does not divide delay bin "
            f"{delay_bin}s"
        )
    factor = delay_bin // tput_bin
    expected = delay.grid.num_bins * factor
    if throughput.grid.num_bins != expected:
        raise ValueError(
            f"grids cover different spans: {throughput.grid.num_bins} "
            f"throughput bins vs {expected} expected"
        )
    blocks = throughput.median_mbps.reshape(delay.grid.num_bins, factor)
    counts = np.sum(~np.isnan(blocks), axis=1)
    with np.errstate(invalid="ignore"):
        resampled = np.where(
            counts > 0, np.nansum(blocks, axis=1) / np.maximum(counts, 1),
            np.nan,
        )
    return delay.delay_ms, resampled


def spearman_delay_throughput(
    delay: AggregatedSignal,
    throughput: ThroughputSeries,
    min_bins: int = 10,
) -> CorrelationResult:
    """Spearman ρ between aggregated delay and median throughput."""
    delay_values, tput_values = align_series(delay, throughput)
    mask = ~np.isnan(delay_values) & ~np.isnan(tput_values)
    if mask.sum() < min_bins:
        raise ValueError(
            f"only {int(mask.sum())} joint bins, need {min_bins}"
        )
    d = delay_values[mask]
    t = tput_values[mask]
    if np.all(d == d[0]) or np.all(t == t[0]):
        # A constant series has undefined rank correlation; the paper's
        # "no correlation" case reports rho = 0.
        return CorrelationResult(0.0, 1.0, int(mask.sum()), d, t)
    from scipy import stats     # off the import path

    rho, p_value = stats.spearmanr(d, t)
    return CorrelationResult(
        rho=float(rho),
        p_value=float(p_value),
        n_bins=int(mask.sum()),
        delay_ms=d,
        throughput_mbps=t,
    )
