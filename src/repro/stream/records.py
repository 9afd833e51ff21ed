"""Stream record types and batch-dataset decomposition.

The streaming engine (:class:`repro.stream.StreamingSurvey`) accepts
three record granularities and one column batch:

* :class:`ProbeRecord` — a probe registration: metadata (AS, anchor
  flag, public address) plus whether the probe is *tracked* (owns a
  measurement series).  Registration is what makes dead probes
  visible: a tracked probe that never observes anything still exists
  as an all-NaN series, exactly as in a batch dataset, and a probe
  whose series was lost (``tracked=False`` — the PoisonAS fault shape)
  reproduces the batch pipeline's metadata-without-data accounting.
* :class:`TraceRecord` — one raw traceroute, the engine's native
  arrival unit.  A run of them rides the batch scan of
  :mod:`repro.core.kernels.flat` — the same gate, hop walk and ledger
  — into one column batch.
* :class:`SampleRecord` — one already-sampled traceroute: a bin index
  plus its last-mile samples (possibly empty: a boundary-less
  traceroute that still counts toward bin sanity).  The engine
  ingests a run of them as one :class:`SampleBatch`
  (:meth:`SampleBatch.from_records`).
* :class:`SampleBatch` — many sampled traceroutes as columns: one row
  per traceroute (probe id, bin index) and its samples in CSR form
  (row ``i`` owns ``samples[offsets[i]:offsets[i + 1]]``).  A batch of
  ``n`` rows is ``n`` records; the engine ingests it with array
  operations.  This is the unit datasets decompose into.

:func:`decompose` inverts a binned dataset into registrations plus one
:class:`SampleBatch` whose streaming replay is *bit-identical* to
classifying the dataset directly: each bin with a finite median ``m``
and count ``c`` becomes ``c`` rows carrying ``[m]`` (``numpy.median``
of ``c`` copies of ``m`` is exactly ``m``), and each bin with a NaN
median becomes ``c`` sample-less rows (counted for bin sanity, no
estimate — the batch kernels leave such bins NaN too).  Bins whose
count is below the sanity threshold are NaN under either route, so
the reconstruction is faithful wherever it can influence the survey.
:func:`column_batches` slices that decomposition into micro-batches,
and :func:`dataset_to_records` is its object view: the same records,
in the same order, one :class:`SampleRecord` per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, List, Optional, Sequence, Tuple, Union

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


class SampleBatch:
    """Sampled traceroutes as columns: rows plus CSR samples.

    ``prb_ids`` and ``bin_indexes`` hold one entry per row (one
    traceroute); ``offsets`` has one more entry than there are rows,
    and row ``i``'s samples are ``samples[offsets[i]:offsets[i + 1]]``
    — zero, one or many.  ``offsets[0]`` is 0.
    """

    __slots__ = ("prb_ids", "bin_indexes", "offsets", "samples")

    def __init__(
        self,
        prb_ids: np.ndarray,
        bin_indexes: np.ndarray,
        offsets: np.ndarray,
        samples: np.ndarray,
    ):
        self.prb_ids = prb_ids
        self.bin_indexes = bin_indexes
        self.offsets = offsets
        self.samples = samples

    @classmethod
    def from_records(cls, records: Sequence[SampleRecord]) -> "SampleBatch":
        """The records as rows, in order: the inverse of
        :meth:`records`."""
        n = len(records)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(
                (len(record.samples) for record in records),
                dtype=np.int64, count=n,
            ),
            out=offsets[1:],
        )
        return cls(
            prb_ids=np.fromiter(
                (record.prb_id for record in records),
                dtype=np.int64, count=n,
            ),
            bin_indexes=np.fromiter(
                (record.bin_index for record in records),
                dtype=np.int64, count=n,
            ),
            offsets=offsets,
            samples=np.fromiter(
                chain.from_iterable(record.samples for record in records),
                dtype=np.float64, count=int(offsets[-1]),
            ),
        )

    def __len__(self) -> int:
        return len(self.prb_ids)

    def __getitem__(self, rows: slice) -> "SampleBatch":
        """Rows ``start:stop`` (step 1) as a batch of views."""
        start, stop, step = rows.indices(len(self))
        if step != 1:
            raise ValueError("a SampleBatch slices with step 1 only")
        stop = max(start, stop)
        offsets = self.offsets[start:stop + 1]
        return SampleBatch(
            prb_ids=self.prb_ids[start:stop],
            bin_indexes=self.bin_indexes[start:stop],
            offsets=offsets - offsets[0],
            samples=self.samples[offsets[0]:offsets[-1]],
        )

    def sample_rows(self) -> np.ndarray:
        """The row each sample belongs to."""
        return np.repeat(
            np.arange(len(self), dtype=np.int64), np.diff(self.offsets)
        )

    def records(self) -> List[SampleRecord]:
        """One :class:`SampleRecord` per row, in row order.

        A run of equal consecutive rows — same probe, same bin, no
        sample or the same single one bit for bit — shares its field
        values: a decomposed bin's ``c`` records hold one probe id, one
        bin index and one ``samples`` tuple between them.
        """
        lengths = np.diff(self.offsets)
        firsts = np.full(len(self), np.nan)
        single = lengths == 1
        firsts[single] = self.samples[self.offsets[:-1][single]]
        bits = firsts.view(np.int64)
        new = np.ones(len(self), dtype=bool)
        new[1:] = (
            (self.prb_ids[1:] != self.prb_ids[:-1])
            | (self.bin_indexes[1:] != self.bin_indexes[:-1])
            | (lengths[1:] != lengths[:-1]) | (lengths[1:] > 1)
            | (bits[1:] != bits[:-1])
        )
        prb_ids = self.prb_ids[new].tolist()
        bin_indexes = self.bin_indexes[new].tolist()
        samples = self.samples.tolist()
        tuples = [
            tuple(samples[lo:hi]) for lo, hi in zip(
                self.offsets[:-1][new].tolist(),
                self.offsets[1:][new].tolist(),
            )
        ]
        return [
            SampleRecord(prb_ids[i], bin_indexes[i], tuples[i])
            for i in (np.cumsum(new) - 1).tolist()
        ]


StreamRecord = Union[ProbeRecord, SampleRecord, TraceRecord]


def decompose(
    dataset: LastMileDataset,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[List[ProbeRecord], SampleBatch]:
    """Decompose a binned dataset into registrations plus sample rows.

    Registrations cover every probe with metadata or a series, in
    probe order (the platform knows its fleet before measurements
    arrive).  The rows are one per traceroute, ordered by bin then
    probe — the arrival order of a well-behaved stream.  Pass ``rng``
    to shuffle the rows *within each bin* (:func:`shuffle_within_bins`):
    the engine's output must be invariant under any such permutation,
    which the differential harness asserts.
    """
    registrations = [
        ProbeRecord(
            prb_id=prb_id,
            meta=dataset.probe_meta.get(prb_id),
            tracked=prb_id in dataset.series,
        )
        for prb_id in sorted(set(dataset.probe_meta) | set(dataset.series))
    ]
    tracked = sorted(dataset.series)
    num_bins = max(
        (dataset.series[p].num_bins for p in tracked), default=0
    )
    counts = np.zeros((num_bins, len(tracked)), dtype=np.int64)
    medians = np.full((num_bins, len(tracked)), np.nan)
    for column, prb_id in enumerate(tracked):
        series = dataset.series[prb_id]
        counts[:series.num_bins, column] = series.traceroute_counts
        medians[:series.num_bins, column] = series.median_rtt_ms
    # Bin-major cells, probes in order within a bin, each repeated
    # once per traceroute it counted: a row is its cell.
    width = max(len(tracked), 1)
    cells = np.repeat(
        np.arange(counts.size, dtype=np.int64),
        np.maximum(counts, 0).reshape(-1),
    )
    if rng is not None:
        cells = cells[shuffle_within_bins(cells // width, rng)]
    values = medians.reshape(-1)[cells]
    has_sample = ~np.isnan(values)
    offsets = np.zeros(len(cells) + 1, dtype=np.int64)
    np.cumsum(has_sample, out=offsets[1:])
    rows = SampleBatch(
        prb_ids=np.asarray(tracked, dtype=np.int64)[cells % width],
        bin_indexes=cells // width,
        offsets=offsets,
        samples=values[has_sample],
    )
    return registrations, rows


def shuffle_within_bins(
    bin_indexes: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """An order that permutes sorted rows inside each bin, keeping bins
    in order — the reordering a real collection pipeline exhibits.
    Draws one ``rng.permutation`` per non-empty bin, in bin order."""
    starts = np.flatnonzero(np.diff(bin_indexes, prepend=-1))
    stops = np.append(starts[1:], len(bin_indexes))
    return np.concatenate([
        start + rng.permutation(stop - start)
        for start, stop in zip(starts.tolist(), stops.tolist())
    ] + [np.zeros(0, dtype=np.int64)])


def column_batches(
    registrations: List[ProbeRecord],
    rows: SampleBatch,
    size: int,
) -> Iterator[list]:
    """Split a decomposed stream into ingest batches of ``size``
    records: the boundaries :func:`micro_batches` puts in the same
    stream's object view, with each batch's rows as one
    :class:`SampleBatch` slice after its registrations."""
    if size <= 0:
        raise ValueError("micro-batch size must be positive")
    head = len(registrations)
    for start in range(0, head + len(rows), size):
        stop = start + size
        batch: list = registrations[start:stop]
        if stop > head:
            batch.append(rows[max(start - head, 0):stop - head])
        yield batch


def dataset_to_records(
    dataset: LastMileDataset,
    rng: Optional[np.random.Generator] = None,
) -> List[StreamRecord]:
    """The record-object view of :func:`decompose`: registrations,
    then one :class:`SampleRecord` per row, in row order."""
    registrations, rows = decompose(dataset, rng)
    return registrations + rows.records()


def micro_batches(
    records: List[StreamRecord], size: int
) -> Iterator[List[StreamRecord]]:
    """Split a record stream into ingest batches of ``size``."""
    if size <= 0:
        raise ValueError("micro-batch size must be positive")
    for start in range(0, len(records), size):
        yield records[start:start + size]
