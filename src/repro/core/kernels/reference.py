"""The reference kernel backend: the contract as plain loops.

Each operation reads like the paper's prose: one :func:`numpy.median`
per (probe, bin), one :func:`numpy.nanmedian` per population, one
:func:`~repro.core.spectral.compute_markers` per signal.  The
differential suites treat it as ground truth for the ``vector``
backend.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


class ReferenceKernels:
    """Loop implementations of the three kernel operations."""

    name = "reference"

    def group_medians(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        num_keys: int,
    ) -> np.ndarray:
        """``numpy.median`` of each present key's values; NaN elsewhere."""
        members: Dict[int, List[float]] = {}
        for key, value in zip(
            np.asarray(keys).tolist(), np.asarray(values).tolist()
        ):
            members.setdefault(key, []).append(value)
        medians = np.full(num_keys, np.nan)
        for key, samples in members.items():
            medians[key] = float(np.median(samples))
        return medians

    def population_medians(
        self,
        delays: np.ndarray,
        group_rows: Sequence[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per population: ``nanmedian`` across its rows, per bin."""
        num_bins = delays.shape[1]
        medians = np.empty((len(group_rows), num_bins))
        contributing = np.empty((len(group_rows), num_bins), dtype=np.int64)
        for group, rows in enumerate(group_rows):
            stacked = delays[np.asarray(rows, dtype=np.int64)]
            contributing[group] = np.sum(~np.isnan(stacked), axis=0)
            with warnings.catch_warnings():
                # All-NaN bins (every probe invalid) legitimately
                # yield NaN.
                warnings.simplefilter("ignore", RuntimeWarning)
                medians[group] = np.nanmedian(stacked, axis=0)
        return medians, contributing

    def markers_batch(
        self,
        signals: Sequence[np.ndarray],
        bin_seconds: int,
        segment_days: Optional[int] = None,
        max_gap_fraction: Optional[float] = None,
    ) -> List:
        """Spectral markers per signal, one Welch run each."""
        from ..spectral import MAX_GAP_FRACTION, SEGMENT_DAYS, compute_markers

        if segment_days is None:
            segment_days = SEGMENT_DAYS
        if max_gap_fraction is None:
            max_gap_fraction = MAX_GAP_FRACTION
        return [
            compute_markers(
                values, bin_seconds, segment_days, max_gap_fraction
            )
            for values in signals
        ]


#: The process-wide shared instance (backends are stateless).
REFERENCE = ReferenceKernels()
