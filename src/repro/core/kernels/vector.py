"""The vectorized kernel backend, the default: the contract in numpy.

Same work as :mod:`.reference`, restructured around flat arrays:

* group medians via one grouped-median pass (segment extents by
  ``searchsorted``, per-segment ordering by one padded row-wise sort)
  over flat ``(key, value)`` arrays instead of one
  :func:`numpy.median` call per key;
* population medians via one sort of a padded
  (population x bin x probe) cube instead of one ``nanmedian`` per
  population;
* spectral markers via a single
  :func:`~repro.core.spectral.welch_power` call over an (AS x bins)
  matrix, with the degenerate-signal gates applied per row
  beforehand.

Bit-for-bit equivalence with the reference backend is a hard
contract (see the package docstring); the trickiest corner is NaN
propagation in :func:`grouped_median`, handled explicitly below.
"""

from __future__ import annotations

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


class VectorKernels:
    """Numpy implementations of the three kernel operations."""

    name = "vector"

    def group_medians(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        num_keys: int,
    ) -> np.ndarray:
        """Per-key medians in one grouped-median pass."""
        return grouped_median(keys, values, num_keys)

    def population_medians(
        self,
        delays: np.ndarray,
        group_rows: Sequence[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Population medians via a NaN-padded (group x bin x probe) cube.

        Each group's delay rows fill its slice of a NaN-padded cube;
        one sort of the contiguous last axis puts every group's
        non-NaN members first (numpy sorts NaN last), and the median
        is the exact ``0.5 * (lo + hi)`` midpoint
        :func:`numpy.nanmedian` computes.  Memory is groups x widest
        group x bins: callers bound it by chunking
        (:func:`repro.core.kernels.flat.plan_chunks`).
        """
        num_bins = delays.shape[1]
        max_rows = max((len(rows) for rows in group_rows), default=0)
        # (group, bin, probe-slot), contiguous so the sort stays cheap.
        cube = np.full((len(group_rows), num_bins, max_rows), np.nan)
        for group, rows in enumerate(group_rows):
            cube[group, :, : len(rows)] = delays[rows].T
        contributing = (~np.isnan(cube)).sum(axis=2)
        if max_rows == 0:
            return np.full(contributing.shape, np.nan), contributing
        cube.sort(axis=2)   # NaNs sort last, after every member
        flat = cube.reshape(-1, max_rows)
        cells = np.arange(flat.shape[0])
        counts = contributing.reshape(-1)
        lo = flat[cells, np.maximum(counts - 1, 0) // 2]
        hi = flat[cells, counts // 2]
        medians = (0.5 * (lo + hi)).reshape(contributing.shape)
        medians[contributing == 0] = np.nan
        return medians, contributing

    def markers_batch(
        self,
        signals: Sequence[np.ndarray],
        bin_seconds: int,
        segment_days: Optional[int] = None,
        max_gap_fraction: Optional[float] = None,
    ) -> List:
        """Spectral markers for many signals with one Welch call.

        Signals of equal length are stacked into one matrix and the
        degenerate gates of
        :func:`~repro.core.spectral.compute_markers` run on its rows,
        in the same order (shape, gap fraction, constant-after-fill,
        too-short-for-Welch): the gap fraction as an exact NaN count
        over the length, gap filling only on rows that have gaps, and
        the constant test as one broadcast ``isclose`` against each
        row's first bin.  Surviving rows share a single
        :func:`~repro.core.spectral.welch_power` call, which is
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
        by_length: Dict[int, List[int]] = {}
        arrays = [np.asarray(values, dtype=np.float64) for values in signals]
        for i, values in enumerate(arrays):
            if values.ndim == 1 and values.size >= 2:
                by_length.setdefault(values.size, []).append(i)
        bins_per_day = SECONDS_PER_DAY // bin_seconds
        sample_rate_per_hour = SECONDS_PER_HOUR / bin_seconds
        for length, indices in by_length.items():
            matrix = np.vstack([arrays[i] for i in indices])
            gaps = np.isnan(matrix)
            gap_counts = gaps.sum(axis=1)
            keep = gap_counts / length <= max_gap_fraction
            for row in np.flatnonzero(keep & (gap_counts > 0)):
                matrix[row] = fill_gaps(matrix[row])
            keep &= ~np.isclose(matrix, matrix[:, :1]).all(axis=1)
            nperseg = min(segment_days * bins_per_day, length)
            if nperseg < 2 or not keep.any():
                continue    # welch_periodogram raises -> None markers
            entries = [i for i, kept in zip(indices, keep) if kept]
            matrix = matrix[keep]
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
            for row, i in enumerate(entries):
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
