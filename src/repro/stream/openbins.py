"""The exact open-bin store shared by the stream engine and raclette.

Both streaming consumers — :class:`~repro.stream.StreamingSurvey` and
:class:`~repro.raclette.LastMileMonitor` — hold the last-mile samples
of every open (probe, bin) in one columnar store: chunks of
``(slot, bin, sample)`` arrays in arrival order, one chunk per
ingested column batch.  A *slot* is the caller's row for a probe.
Closing sorts the closing samples by (probe, bin)
with one ``lexsort`` and computes each key's median with the batch
estimator's :func:`~repro.core.kernels.flat.bin_medians` — the same
mask and ``group_medians`` kernel call — in chunks under the survey's
chunk budget, so a closed bin is bit-identical to the batch
pipeline's.

Traceroute counts stay with the caller, which passes them to
:meth:`OpenBins.close_through`: the engine keeps them in its
per-period series matrix, the monitor in its open bins' duplicate
sets.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

from ..core.kernels.flat import bin_medians, plan_chunks

_EMPTY_INT = np.zeros(0, dtype=np.int64)
_EMPTY_FLOAT = np.zeros(0, dtype=np.float64)


class OpenBins:
    """Open last-mile samples, keyed by (slot, bin), in arrival order."""

    def __init__(self):
        self._chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def extend(
        self, slots: np.ndarray, bins: np.ndarray, samples: np.ndarray
    ) -> None:
        """A column chunk of samples, one ``(slot, bin)`` per sample."""
        if len(samples):
            self._chunks.append((slots, bins, samples))

    def samples(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every open sample as one ``(slots, bins, values)`` chunk,
        in arrival order."""
        if len(self._chunks) != 1:
            # The empty chunk keeps the dtypes when there is no other.
            self._chunks = [tuple(
                np.concatenate(column) for column in zip(
                    *self._chunks,
                    (_EMPTY_INT, _EMPTY_INT, _EMPTY_FLOAT),
                )
            )]
        return self._chunks[0]

    def close_through(
        self,
        bin_index: int,
        probe_of: np.ndarray,
        counts_of: Callable[[np.ndarray, np.ndarray], np.ndarray],
        min_traceroutes: int,
        kernels,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Remove the samples of every bin ≤ ``bin_index`` and return
        their keys' medians.

        Keys — the (slot, bin) pairs holding at least one sample — come
        back sorted by probe (``probe_of[slot]``), then bin, as
        ``(slots, bins, counts, medians)``; ``counts_of(slots, bins)``
        supplies each key's traceroute count, and a key whose count is
        under ``min_traceroutes`` gets a NaN median.
        """
        slots, bins, samples = self.samples()
        closes = bins <= bin_index
        self._chunks = [(slots[~closes], bins[~closes], samples[~closes])]
        slots, bins, samples = slots[closes], bins[closes], samples[closes]
        order = np.lexsort((bins, probe_of[slots]))
        slots, bins, samples = slots[order], bins[order], samples[order]
        new_key = np.ones(len(slots), dtype=bool)
        new_key[1:] = (slots[1:] != slots[:-1]) | (bins[1:] != bins[:-1])
        starts = np.flatnonzero(new_key)
        key_slots, key_bins = slots[starts], bins[starts]
        counts = counts_of(key_slots, key_bins)
        bounds = np.append(starts, len(samples))
        sizes = np.diff(bounds)
        values = np.full(len(starts), np.nan)
        for start, stop in plan_chunks(sizes.tolist(), 1):
            values[start:stop], _estimated = bin_medians(
                np.repeat(
                    np.arange(stop - start, dtype=np.int64),
                    sizes[start:stop],
                ),
                samples[bounds[start]:bounds[stop]],
                counts[start:stop], min_traceroutes, kernels,
            )
        return key_slots, key_bins, counts, values
