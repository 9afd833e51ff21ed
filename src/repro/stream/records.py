"""Stream record types and batch-dataset decomposition.

The streaming engine (:class:`repro.stream.StreamingSurvey`) accepts
three record granularities:

* :class:`ProbeRecord` — a probe registration: metadata (AS, anchor
  flag, public address) plus whether the probe is *tracked* (owns a
  measurement series).  Registration is what makes dead probes
  visible: a tracked probe that never observes anything still exists
  as an all-NaN series, exactly as in a batch dataset, and a probe
  whose series was lost (``tracked=False`` — the PoisonAS fault shape)
  reproduces the batch pipeline's metadata-without-data accounting.
* :class:`TraceRecord` — one raw traceroute, the engine's native
  arrival unit.  Timestamp gating, binning and boundary sampling
  mirror :func:`repro.core.kernels.flat.scan_lastmile_flat` decision
  for decision.
* :class:`SampleRecord` — one already-sampled traceroute: a bin index
  plus its last-mile samples (possibly empty: a boundary-less
  traceroute that still counts toward bin sanity).  This is the unit
  :func:`dataset_to_records` decomposes batch datasets into, so any
  :class:`~repro.core.series.LastMileDataset` can be replayed through
  the engine and compared field-by-field with the batch result.

:func:`dataset_to_records` inverts a binned dataset into a record
stream whose streaming replay is *bit-identical* to classifying the
dataset directly: each bin with a finite median ``m`` and count ``c``
becomes ``c`` sampled traceroutes carrying ``[m]`` (``numpy.median``
of ``c`` copies of ``m`` is exactly ``m``), and each bin with a NaN
median becomes ``c`` sample-less traceroutes (counted for bin sanity,
no estimate — the batch kernels leave such bins NaN too).  Bins whose
count is below the sanity threshold are NaN under either route, so
the reconstruction is faithful wherever it can influence the survey.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Union

import numpy as np

from ..atlas.traceroute import TracerouteResult
from ..core.series import LastMileDataset


@dataclass(frozen=True)
class ProbeRecord:
    """Register one probe: metadata plus series presence."""

    prb_id: int
    meta: Optional[object] = None
    #: False reproduces a metadata-without-series probe (the archive
    #: of a PoisonAS-shaped loss): the probe is considered by the
    #: filter but aggregation finds nothing.
    tracked: bool = True


@dataclass(frozen=True)
class SampleRecord:
    """One sampled traceroute: bin index + last-mile samples.

    ``samples`` may be empty — the traceroute reached no usable
    boundary but still counts toward the bin's sanity threshold.
    """

    prb_id: int
    bin_index: int
    samples: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))


@dataclass(frozen=True)
class TraceRecord:
    """One raw traceroute result, as it arrives from the platform."""

    result: TracerouteResult

    @property
    def prb_id(self) -> int:
        return self.result.prb_id


StreamRecord = Union[ProbeRecord, SampleRecord, TraceRecord]


def dataset_to_records(
    dataset: LastMileDataset,
    rng: Optional[np.random.Generator] = None,
) -> List[StreamRecord]:
    """Decompose a binned dataset into an equivalent record stream.

    Registrations come first (the platform knows its fleet before
    measurements arrive), then one :class:`SampleRecord` per
    traceroute, ordered by bin then probe — the arrival order of a
    well-behaved stream.  Pass ``rng`` to shuffle the observation
    records *within each bin* (registrations stay first): the engine's
    output must be invariant under any such permutation, which the
    differential harness asserts.
    """
    records: List[StreamRecord] = []
    probe_ids = sorted(set(dataset.probe_meta) | set(dataset.series))
    for prb_id in probe_ids:
        records.append(ProbeRecord(
            prb_id=prb_id,
            meta=dataset.probe_meta.get(prb_id),
            tracked=prb_id in dataset.series,
        ))
    observations: List[SampleRecord] = []
    for prb_id in sorted(dataset.series):
        series = dataset.series[prb_id]
        medians = series.median_rtt_ms
        counts = series.traceroute_counts
        for bin_index in range(series.num_bins):
            count = int(counts[bin_index])
            median = float(medians[bin_index])
            if count <= 0:
                continue
            samples = () if np.isnan(median) else (median,)
            observations.extend(
                SampleRecord(
                    prb_id=prb_id, bin_index=bin_index,
                    samples=samples,
                )
                for _ in range(count)
            )
    observations.sort(key=lambda r: r.bin_index)
    if rng is not None:
        observations = shuffle_within_bins(observations, rng)
    records.extend(observations)
    return records


def shuffle_within_bins(
    observations: List[SampleRecord],
    rng: np.random.Generator,
) -> List[SampleRecord]:
    """Permute observation records inside each bin, keeping bins in
    order — the reordering a real collection pipeline exhibits."""
    by_bin: dict = {}
    for record in observations:
        by_bin.setdefault(record.bin_index, []).append(record)
    shuffled: List[SampleRecord] = []
    for bin_index in sorted(by_bin):
        group = by_bin[bin_index]
        order = rng.permutation(len(group))
        shuffled.extend(group[i] for i in order)
    return shuffled


def micro_batches(
    records: List[StreamRecord], size: int
) -> Iterator[List[StreamRecord]]:
    """Split a record stream into ingest batches of ``size``."""
    if size <= 0:
        raise ValueError("micro-batch size must be positive")
    for start in range(0, len(records), size):
        yield records[start:start + size]
