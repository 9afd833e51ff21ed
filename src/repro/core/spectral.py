"""Frequency-domain detection of persistent congestion (paper §2.3).

The aggregated queueing-delay signal is converted to the frequency
domain with the Welch method (overlapping segments, per-segment
periodograms, averaged).  The periodogram is scaled so that the y-axis
reads directly as *average peak-to-peak amplitude* in milliseconds —
matching the paper's Fig. 2/3 axes — and two markers are extracted:

* the prominent (highest-power) frequency component, and
* the peak-to-peak amplitude of the daily (1/24 cycles-per-hour)
  component.

A pure sinusoid ``A·sin(2πft)`` has Welch 'spectrum'-scaled power
``A²/2`` at ``f``, so peak-to-peak amplitude is ``2·√(2·P)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import numpy.fft  # noqa: F401 -- loaded at import, not on first use

from ..obs import get_observer
from ..timebase import SECONDS_PER_DAY, SECONDS_PER_HOUR

STAGE = "core-spectral"

#: The daily frequency in cycles per hour (the paper's x = 1/24).
DAILY_FREQUENCY_CPH = 1.0 / 24.0
#: Welch segment length: 4 days of bins.  Gives exact alignment of the
#: daily frequency on a periodogram bin for any bin width dividing a
#: day, and ~6 averaged segments over a 15-day period.
SEGMENT_DAYS = 4


@dataclass(frozen=True)
class Periodogram:
    """Welch periodogram in peak-to-peak-amplitude units."""

    frequencies_cph: np.ndarray     # cycles per hour
    amplitude_ms: np.ndarray        # average peak-to-peak amplitude

    def amplitude_at(self, frequency_cph: float) -> float:
        """Amplitude of the bin nearest to a frequency."""
        index = int(
            np.argmin(np.abs(self.frequencies_cph - frequency_cph))
        )
        return float(self.amplitude_ms[index])

    def prominent(
        self, skip_bins: int = 1
    ) -> Tuple[float, float]:
        """(frequency, amplitude) of the strongest component.

        The DC bin and ``skip_bins`` lowest bins are excluded: they
        carry the signal mean and multi-day trend, not periodicity.
        """
        start = 1 + skip_bins
        if start >= len(self.frequencies_cph):
            raise ValueError("periodogram too short")
        index = start + int(np.argmax(self.amplitude_ms[start:]))
        return (
            float(self.frequencies_cph[index]),
            float(self.amplitude_ms[index]),
        )


def fill_gaps(values: np.ndarray) -> np.ndarray:
    """Linearly interpolate NaN gaps (probe outages) in a signal.

    Leading/trailing NaNs take the nearest valid value.  An all-NaN
    signal is returned as zeros so downstream spectral analysis yields
    an empty (flat) spectrum instead of propagating NaN.
    """
    values = np.asarray(values, dtype=np.float64)
    mask = np.isnan(values)
    if not mask.any():
        return values
    if mask.all():
        return np.zeros_like(values)
    filled = values.copy()
    indices = np.arange(len(values))
    filled[mask] = np.interp(
        indices[mask], indices[~mask], values[~mask]
    )
    return filled


def welch_power(
    values: np.ndarray, sample_rate: float, nperseg: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Welch power spectrum along the last axis of ``values``.

    Bit-identical to SciPy's ``signal.welch(values, sample_rate,
    nperseg=nperseg, scaling="spectrum", detrend="constant",
    axis=-1)`` (pinned by ``tests/kernels/test_welch.py``), without
    SciPy's import cost: a periodic Hann window built and normalised
    the way SciPy builds it, ``nperseg // 2`` overlap, per-segment
    mean removal, one-sided doubling and a mean over segments taken
    along a contiguous axis (numpy's pairwise summation order).
    Returns ``(frequencies, power)``; ``power`` has the leading shape
    of ``values``.
    """
    values = np.asarray(values, dtype=np.float64)
    hop = nperseg - nperseg // 2
    segments = (values.shape[-1] - nperseg // 2) // hop
    fac = np.linspace(-np.pi, np.pi, nperseg + 1)
    window = (0.5 + 0.5 * np.cos(fac))[:-1]
    window = window * (1 / abs(sum(window)))    # builtin sum, as SciPy
    spectra = np.zeros(
        values.shape[:-1] + (nperseg // 2 + 1, segments), dtype=complex
    )
    for p in range(segments):
        segment = values[..., p * hop:p * hop + nperseg]
        segment = segment - np.mean(segment, axis=-1, keepdims=True)
        spectra[..., p] = np.fft.rfft(segment * window, axis=-1)
    power = spectra.real ** 2 + spectra.imag ** 2
    power[..., 1:-1 if nperseg % 2 == 0 else None, :] *= 2
    frequencies = np.fft.rfftfreq(nperseg, 1 / sample_rate)
    return frequencies, power.mean(axis=-1)


def welch_periodogram(
    values: np.ndarray,
    bin_seconds: int,
    segment_days: int = SEGMENT_DAYS,
) -> Periodogram:
    """Welch periodogram of a binned delay signal.

    ``values`` may contain NaN gaps (interpolated first).  The segment
    length adapts downward for signals shorter than ``segment_days``.
    """
    values = fill_gaps(values)
    bins_per_day = SECONDS_PER_DAY // bin_seconds
    nperseg = min(segment_days * bins_per_day, len(values))
    if nperseg < 2:
        raise ValueError(f"signal too short for Welch: {len(values)} bins")
    sample_rate_per_hour = SECONDS_PER_HOUR / bin_seconds
    freqs, power = welch_power(values, sample_rate_per_hour, nperseg)
    amplitude = 2.0 * np.sqrt(2.0 * power)
    return Periodogram(frequencies_cph=freqs, amplitude_ms=amplitude)


@dataclass(frozen=True)
class SpectralMarkers:
    """The two markers the classifier consumes (§2.3)."""

    prominent_frequency_cph: float
    prominent_amplitude_ms: float
    daily_amplitude_ms: float

    @property
    def daily_is_prominent(self) -> bool:
        """True when the strongest component is the daily one.

        The tolerance is half a periodogram bin at the standard
        4-day segment length (bin width 1/96 cph around 1/24 cph).
        """
        tolerance = DAILY_FREQUENCY_CPH * 0.26
        return abs(
            self.prominent_frequency_cph - DAILY_FREQUENCY_CPH
        ) <= tolerance


#: Signals with more than this fraction of NaN bins are too gappy to
#: classify: interpolation over dominant gaps manufactures structure
#: the probes never measured, so the honest answer is "no pattern".
MAX_GAP_FRACTION = 0.5


def extract_markers(
    values: np.ndarray,
    bin_seconds: int,
    segment_days: int = SEGMENT_DAYS,
    max_gap_fraction: float = MAX_GAP_FRACTION,
) -> Optional[SpectralMarkers]:
    """Compute the paper's two spectral markers for one signal.

    Returns None — "no daily pattern", classified None downstream —
    for every degenerate input rather than raising or hallucinating
    peaks: empty and single-bin series, all-NaN and constant signals,
    series whose NaN gap fraction exceeds ``max_gap_fraction``, and
    series too short for even one Welch segment.  Observed as one
    ``spectral`` stage; :func:`compute_markers` is the same work
    unobserved.
    """
    obs = get_observer()
    with obs.stage_span("spectral", bins=int(np.size(values))):
        obs.items_in(STAGE)
        markers = compute_markers(
            values, bin_seconds, segment_days, max_gap_fraction
        )
        if markers is not None:
            obs.items_out(STAGE)
        return markers


def compute_markers(
    values: np.ndarray,
    bin_seconds: int,
    segment_days: int = SEGMENT_DAYS,
    max_gap_fraction: float = MAX_GAP_FRACTION,
) -> Optional[SpectralMarkers]:
    """:func:`extract_markers` without the observability (the
    reference kernel's per-signal step; its caller observes the
    batch)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size < 2:
        return None
    nan_fraction = float(np.mean(np.isnan(values)))
    if nan_fraction > max_gap_fraction:
        return None
    filled = fill_gaps(values)
    if np.allclose(filled, filled[0]):
        return None
    try:
        periodogram = welch_periodogram(filled, bin_seconds, segment_days)
        frequency, amplitude = periodogram.prominent()
    except ValueError:
        return None  # too short for Welch / for the prominence scan
    return SpectralMarkers(
        prominent_frequency_cph=frequency,
        prominent_amplitude_ms=amplitude,
        daily_amplitude_ms=periodogram.amplitude_at(DAILY_FREQUENCY_CPH),
    )
