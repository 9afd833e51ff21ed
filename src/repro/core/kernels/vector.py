"""The vectorized kernel backend: batched numpy fast paths.

Same work as :mod:`.reference`, restructured around flat arrays:

* per-bin medians via one grouped-median pass (segment extents by
  ``searchsorted``, per-segment ordering by one padded row-wise sort)
  over ``(group, sample)`` arrays instead of one :func:`numpy.median`
  call per bin — and, for whole datasets, one such pass over flat
  ``(probe, bin, sample)`` arrays for *all* probes at once;
* queueing-delay stacking as 2-D masked arithmetic with one
  ``nanmin`` over the probe axis;
* spectral markers via a single
  :func:`~repro.core.spectral.welch_power` call over an (AS x bins)
  matrix, with the degenerate-signal gates applied per row
  beforehand.

Bit-for-bit equivalence with the reference backend is a hard
contract (see the package docstring); the trickiest corner is NaN
propagation in :func:`grouped_median`, handled explicitly below.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...timebase import SECONDS_PER_DAY, SECONDS_PER_HOUR


#: Largest group size the padded-matrix median path handles; groups
#: bigger than this (pathological inputs) fall back to a full lexsort.
_PAD_MAX_GROUP = 512
#: Cap on padded-matrix elements (memory guard for the fast path).
_PAD_MAX_ELEMENTS = 8_000_000


def grouped_median(
    group_ids: np.ndarray,
    values: np.ndarray,
    num_groups: int,
) -> np.ndarray:
    """Median of ``values`` per group, bit-equal to ``numpy.median``.

    Groups are made contiguous with one stable integer sort (a no-op
    when ``group_ids`` is already non-decreasing, as the pipeline's
    flat arrays are in the common chronological case), then the small
    per-group segments are scattered into a ``+inf``-padded
    (groups x max_size) matrix and sorted along the rows — far cheaper
    than one global ``lexsort`` of the flat values.  The median is the
    middle element (odd groups) or the exact ``0.5 * (lo + hi)``
    midpoint average ``numpy.median`` computes (even groups); the pads
    never enter it because every pad sorts at or after each group's
    real values.  ``numpy.median`` propagates NaN — any NaN member
    makes the group's median NaN — which is applied from a per-group
    NaN count.  Empty groups yield NaN.  Pathologically large groups
    take a ``lexsort`` fallback with identical semantics.
    """
    medians = np.full(num_groups, np.nan)
    if len(values) == 0:
        return medians
    group_ids = np.asarray(group_ids, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if np.all(group_ids[1:] >= group_ids[:-1]):
        sorted_groups, sorted_values = group_ids, values
    else:
        order = np.argsort(group_ids, kind="stable")
        sorted_groups = group_ids[order]
        sorted_values = values[order]
    labels = np.arange(num_groups, dtype=np.int64)
    starts = np.searchsorted(sorted_groups, labels, side="left")
    ends = np.searchsorted(sorted_groups, labels, side="right")
    sizes = ends - starts
    present_idx = np.flatnonzero(sizes > 0)
    if not len(present_idx):
        return medians
    max_size = int(sizes.max())
    if (
        max_size <= _PAD_MAX_GROUP
        and max_size * len(present_idx) <= _PAD_MAX_ELEMENTS
    ):
        pair = _padded_segment_medians(
            sorted_groups, sorted_values, starts, sizes, present_idx,
            max_size, num_groups,
        )
    else:
        pair = _lexsorted_segment_medians(
            sorted_groups, sorted_values, num_groups, present_idx
        )
    has_nan = np.bincount(
        sorted_groups, weights=np.isnan(sorted_values),
        minlength=num_groups,
    )[present_idx] > 0
    medians[present_idx] = np.where(has_nan, np.nan, pair)
    return medians


def _padded_segment_medians(
    sorted_groups, sorted_values, starts, sizes, present_idx,
    max_size, num_groups,
):
    """Per-group median pairs via one row-wise sort of padded rows."""
    row_of_group = np.full(num_groups, -1, dtype=np.int64)
    row_of_group[present_idx] = np.arange(len(present_idx))
    rows = row_of_group[sorted_groups]
    cols = np.arange(len(sorted_values)) - starts[sorted_groups]
    matrix = np.full((len(present_idx), max_size), np.inf)
    matrix[rows, cols] = sorted_values
    matrix.sort(axis=1)
    present_sizes = sizes[present_idx]
    row = np.arange(len(present_idx))
    lo = matrix[row, (present_sizes - 1) // 2]
    hi = matrix[row, present_sizes // 2]
    return 0.5 * (lo + hi)


def _lexsorted_segment_medians(
    sorted_groups, sorted_values, num_groups, present_idx
):
    """Fallback: order values within groups with a full lexsort."""
    order = np.lexsort((sorted_values, sorted_groups))
    resorted = sorted_values[order]
    labels = np.arange(num_groups, dtype=np.int64)
    starts = np.searchsorted(sorted_groups, labels, side="left")
    ends = np.searchsorted(sorted_groups, labels, side="right")
    sizes = ends - starts
    last = len(resorted) - 1
    lo = np.clip(starts + (sizes - 1) // 2, 0, last)
    hi = np.clip(starts + sizes // 2, 0, last)
    pair = 0.5 * (resorted[lo] + resorted[hi])
    return pair[present_idx]


def _flatten_samples(
    sample_bins: Sequence[int],
    sample_lists: Sequence[List[float]],
    keys: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand per-traceroute sample lists into flat (key, value) arrays.

    ``keys`` defaults to the bin indices; callers batching a whole
    dataset pass combined ``probe * num_bins + bin`` keys instead.
    """
    if keys is None:
        keys = np.asarray(sample_bins, dtype=np.int64)
    lengths = np.fromiter(
        (len(samples) for samples in sample_lists),
        dtype=np.int64, count=len(sample_lists),
    )
    flat_keys = np.repeat(keys, lengths)
    flat_values = np.fromiter(
        itertools.chain.from_iterable(sample_lists),
        dtype=np.float64, count=int(lengths.sum()),
    )
    return flat_keys, flat_values


class VectorKernels:
    """Batched implementations of the four pipeline hot spots."""

    name = "vector"
    #: Callers with whole-dataset / whole-survey scope should use the
    #: batched entry points (``dataset_bin_medians``, batched
    #: classification) instead of iterating.
    batched = True
    #: The backend supports the flat survey pass (:mod:`.flat`):
    #: flat-array traceroute scans and one grouped-median aggregation
    #: pass over every AS.  Orchestrators check this capability before
    #: routing; backends without it keep the per-AS path.
    flat = True

    def bin_medians(
        self,
        sample_bins: Sequence[int],
        sample_lists: Sequence[List[float]],
        counts: np.ndarray,
        num_bins: int,
        min_traceroutes: int,
    ) -> Tuple[np.ndarray, int]:
        """Per-bin medians for one probe via one grouped-median pass."""
        medians = np.full(num_bins, np.nan)
        if not len(sample_bins):
            return medians, 0
        counts = np.asarray(counts)
        flat_bins, flat_values = _flatten_samples(
            sample_bins, sample_lists
        )
        grouped = grouped_median(flat_bins, flat_values, num_bins)
        sampled = np.zeros(num_bins, dtype=bool)
        sampled[np.unique(flat_bins)] = True
        estimated = sampled & (counts >= min_traceroutes)
        medians[estimated] = grouped[estimated]
        return medians, int(estimated.sum())

    def dataset_bin_medians(
        self,
        probe_rows: Sequence[int],
        sample_bins: Sequence[int],
        sample_lists: Sequence[List[float]],
        num_probes: int,
        num_bins: int,
        counts_matrix: np.ndarray,
        min_traceroutes: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Whole-dataset medians over flat (probe, bin, sample) arrays.

        One grouped-median pass over ``probe * num_bins + bin`` keys
        covers every probe of the dataset.  Returns the
        (probe x bin) median matrix and the per-probe count of
        estimated bins.
        """
        medians = np.full((num_probes, num_bins), np.nan)
        if not len(probe_rows):
            return medians, np.zeros(num_probes, dtype=np.int64)
        counts_matrix = np.asarray(counts_matrix)
        keys = (
            np.asarray(probe_rows, dtype=np.int64) * num_bins
            + np.asarray(sample_bins, dtype=np.int64)
        )
        flat_keys, flat_values = _flatten_samples(
            sample_bins, sample_lists, keys=keys
        )
        grouped = grouped_median(
            flat_keys, flat_values, num_probes * num_bins
        ).reshape(num_probes, num_bins)
        sampled = np.zeros(num_probes * num_bins, dtype=bool)
        sampled[np.unique(flat_keys)] = True
        sampled = sampled.reshape(num_probes, num_bins)
        estimated = sampled & (counts_matrix >= min_traceroutes)
        medians[estimated] = grouped[estimated]
        return medians, estimated.sum(axis=1).astype(np.int64)

    def flat_bin_medians(
        self,
        sample_bins: np.ndarray,
        sample_values: np.ndarray,
        counts: np.ndarray,
        num_bins: int,
        min_traceroutes: int,
    ) -> Tuple[np.ndarray, int]:
        """Per-bin medians from one probe's flat per-sample arrays."""
        from .flat import flat_bin_medians

        return flat_bin_medians(
            sample_bins, sample_values, counts, num_bins,
            min_traceroutes,
        )

    def flat_dataset_bin_medians(
        self,
        sample_keys: np.ndarray,
        sample_values: np.ndarray,
        num_probes: int,
        num_bins: int,
        counts_matrix: np.ndarray,
        min_traceroutes: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Whole-dataset medians from flat per-sample key arrays."""
        from .flat import flat_dataset_bin_medians

        return flat_dataset_bin_medians(
            sample_keys, sample_values, num_probes, num_bins,
            counts_matrix, min_traceroutes,
        )

    def population_medians(
        self,
        delays: np.ndarray,
        group_rows: Sequence[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Aggregated medians for every AS in one grouped pass."""
        from .flat import population_median_pass

        return population_median_pass(delays, group_rows)

    def stack_probe_delays(
        self,
        dataset,
        probe_ids: Sequence[int],
        min_traceroutes: int,
    ) -> np.ndarray:
        """Queueing-delay rows via 2-D masking and one axis-1 nanmin.

        Rows without any valid bin stay all-NaN *unsubtracted*, as
        :func:`~repro.core.aggregate.probe_queuing_delay` leaves them
        (and so ``nanmin`` never sees an all-NaN row to warn about).
        """
        medians = np.stack([
            dataset.series[p].median_rtt_ms for p in probe_ids
        ])
        counts = np.stack([
            dataset.series[p].traceroute_counts for p in probe_ids
        ])
        valid = (counts >= min_traceroutes) & ~np.isnan(medians)
        delays = np.where(valid, medians, np.nan)
        rows = valid.any(axis=1)
        if rows.any():
            baselines = np.nanmin(delays[rows], axis=1)
            delays[rows] -= baselines[:, None]
        return delays

    def markers_batch(
        self,
        signals: Sequence[np.ndarray],
        bin_seconds: int,
        segment_days: Optional[int] = None,
        max_gap_fraction: Optional[float] = None,
    ) -> List:
        """Spectral markers for many signals with one Welch call.

        The degenerate gates of
        :func:`~repro.core.spectral.extract_markers` run per row, in
        the same order (shape, gap fraction, constant-after-fill,
        too-short-for-Welch); surviving rows of equal length share a
        single :func:`~repro.core.spectral.welch_power` call, which is
        bit-identical to per-row calls.  Degenerate rows yield None.
        """
        from ..spectral import (
            DAILY_FREQUENCY_CPH,
            MAX_GAP_FRACTION,
            SEGMENT_DAYS,
            SpectralMarkers,
            fill_gaps,
            welch_power,
        )

        if segment_days is None:
            segment_days = SEGMENT_DAYS
        if max_gap_fraction is None:
            max_gap_fraction = MAX_GAP_FRACTION
        markers: List[Optional[SpectralMarkers]] = [None] * len(signals)
        by_length: Dict[int, List[Tuple[int, np.ndarray]]] = {}
        for i, values in enumerate(signals):
            values = np.asarray(values, dtype=np.float64)
            if values.ndim != 1 or values.size < 2:
                continue
            nan_fraction = float(np.mean(np.isnan(values)))
            if nan_fraction > max_gap_fraction:
                continue
            filled = fill_gaps(values)
            if np.allclose(filled, filled[0]):
                continue
            by_length.setdefault(len(filled), []).append((i, filled))
        bins_per_day = SECONDS_PER_DAY // bin_seconds
        sample_rate_per_hour = SECONDS_PER_HOUR / bin_seconds
        for length, entries in by_length.items():
            nperseg = min(segment_days * bins_per_day, length)
            if nperseg < 2:
                continue    # welch_periodogram raises -> None markers
            matrix = np.vstack([filled for _, filled in entries])
            freqs, power = welch_power(
                matrix, sample_rate_per_hour, nperseg
            )
            amplitude = 2.0 * np.sqrt(2.0 * power)
            start = 2           # DC bin + 1 skipped multi-day-trend bin
            if start >= len(freqs):
                continue        # prominent() raises -> None markers
            prominent = start + np.argmax(
                amplitude[:, start:], axis=1
            )
            daily_index = int(
                np.argmin(np.abs(freqs - DAILY_FREQUENCY_CPH))
            )
            for row, (i, _filled) in enumerate(entries):
                index = int(prominent[row])
                markers[i] = SpectralMarkers(
                    prominent_frequency_cph=float(freqs[index]),
                    prominent_amplitude_ms=float(amplitude[row, index]),
                    daily_amplitude_ms=float(
                        amplitude[row, daily_index]
                    ),
                )
        return markers


#: The process-wide shared instance (backends are stateless).
VECTOR = VectorKernels()
