"""The incremental survey engine: traceroutes append as they arrive.

:class:`StreamingSurvey` is the streaming twin of
:func:`repro.core.survey.classify_dataset`: records are ingested one
at a time or in micro-batches, and every sampled input — a run of
raw traceroutes, a run of :class:`~repro.stream.records.SampleRecord`
objects, a :class:`~repro.stream.records.SampleBatch` — enters as one
column batch, ingested with array operations into one columnar store
of open samples (:class:`~repro.stream.openbins.OpenBins`, which the
raclette monitor shares).  Bins are finalized as the watermark
passes them, and AS-level aggregates plus daily-pattern
classifications are recomputed *only for ASes whose inputs changed*.

Equivalence contract (enforced by ``tests/stream``): a finalized
streaming survey is **bit-identical** — under
:func:`repro.io.survey_to_dict` — to the batch pipeline run over the
same data, for any arrival order within a bin and any micro-batch
split, on either kernel backend.  The contract holds because every
numeric decision is delegated to the same code the batch path runs:

* raw traceroutes ride the batch scan: a run of raw traceroutes
  (:class:`~repro.stream.records.TraceRecord`) goes through its
  :func:`~repro.core.kernels.flat.gate`, a stale drop against the
  watermark and its last-mile walk and ledger
  (:func:`~repro.core.kernels.flat.sample_lastmile`, same
  quality-ledger entries), and lands as one column batch;
* a run of sampled records becomes one column batch
  (:meth:`~repro.stream.records.SampleBatch.from_records`), so a run
  with an out-of-grid bin is rejected whole, as a batch is;
* bin finalization (:meth:`~repro.stream.openbins.OpenBins.close_through`)
  sorts the closing bins' samples out of the store with one
  ``lexsort`` and runs the batch estimator's
  :func:`~repro.core.kernels.flat.bin_medians` — the same mask and
  the same ``group_medians`` kernel call — over them, in chunks under
  the survey's chunk budget, so ``reference``/``vector`` selection
  applies to streaming runs too;
* classification runs :func:`repro.core.survey.classify_asn_batch`
  over the changed ASes with per-AS quality fragments, and the final
  ledger is assembled in the batch pipeline's stage order.

Ledger fine print: the survey-facing ledger (``result.quality``)
matches a batch run's **counts exactly**; quarantine *samples* (the
capped human-readable details) may list in a different order because
the batch path books all aggregation entries before any
classification entry while the engine merges per-AS fragments.
Streaming-only events — late records dropped against a closed bin
(``STALE_RECORD``) and bins that closed under the sanity threshold
(``SPARSE_BIN``) — land on the separate :attr:`engine_quality`
ledger: the batch pipeline has no equivalent entries, and the
equivalence contract is over the survey ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..core.filtering import asns_with_min_probes
from ..core.kernels import resolve_kernels
from ..core.kernels.flat import gate, sample_lastmile
from ..core.lastmile import MIN_TRACEROUTES_PER_BIN
from ..core.series import LastMileDataset, ProbeBinSeries
from ..core.survey import (
    ASFailure,
    ASReport,
    DEFAULT_THRESHOLDS,
    SurveyResult,
    _record_survey_metrics,
    classify_asn_batch,
)
from ..obs import get_observer
from ..quality import DataQualityReport, DropReason
from ..timebase import MeasurementPeriod, TimeGrid
from .openbins import OpenBins
from .records import ProbeRecord, SampleBatch, SampleRecord, TraceRecord

STAGE = "stream-engine"


def _sampled_kind(record):
    """The run key of :meth:`StreamingSurvey.ingest_many`: the record
    kinds that are ingested as column batches, else None."""
    for kind in (TraceRecord, SampleRecord):
        if isinstance(record, kind):
            return kind
    return None


@dataclass
class _CachedAS:
    """One AS's last classification: inputs, outcome, ledger fragment."""

    probe_ids: Tuple[int, ...]
    report: Optional[ASReport]
    failure: Optional[ASFailure]
    fragment: DataQualityReport


class StreamingSurvey:
    """Incremental per-period survey over an appending record stream.

    Ingest :class:`~repro.stream.records.ProbeRecord` /
    :class:`~repro.stream.records.SampleRecord` /
    :class:`~repro.stream.records.TraceRecord` via :meth:`ingest` or
    :meth:`ingest_many`, close bins with :meth:`close_through` (or
    :meth:`advance_watermark`), snapshot an in-progress survey with
    :meth:`emit_partial`, and complete it with :meth:`finalize`.
    """

    def __init__(
        self,
        period: MeasurementPeriod,
        min_probes: int = 3,
        thresholds=DEFAULT_THRESHOLDS,
        table=None,
        kernels=None,
        min_traceroutes: int = MIN_TRACEROUTES_PER_BIN,
        max_attempts: int = 2,
    ):
        self.period = period
        self.grid = TimeGrid(period)
        self.min_probes = min_probes
        self.thresholds = thresholds
        self.table = table
        self.kernels = resolve_kernels(kernels)
        self.min_traceroutes = min_traceroutes
        self.max_attempts = max_attempts
        #: Quality fragment of the raw-traceroute scan (core-lastmile
        #: entries) — merged into every emitted survey's ledger.
        self.scan_quality = DataQualityReport()
        #: Streaming-only accounting (stale records, sparse bins);
        #: deliberately *not* part of the survey ledger.
        self.engine_quality = DataQualityReport()
        #: Per-probe series: row ``_slots[prb_id]`` of the median and
        #: count matrices, whose probe is ``_slot_prb[row]``.
        self._slots: Dict[int, int] = {}
        self._slot_prb = np.zeros(0, dtype=np.int64)
        self._medians = np.zeros((0, self.grid.num_bins))
        self._counts = np.zeros((0, self.grid.num_bins), dtype=np.int64)
        self._meta: Dict[int, object] = {}
        #: The open bins' samples, the shared columnar store.
        self._store = OpenBins()
        self._closed_through = -1
        self._newest_bin = -1
        self._dirty: Set[int] = set()
        self._cache: Dict[int, _CachedAS] = {}
        self._final: Optional[SurveyResult] = None
        self.records_ingested = 0
        self.stale_records = 0
        self.sparse_bins = 0

    # -- ingest --------------------------------------------------------

    def ingest(self, record) -> int:
        """Append one record (or one :class:`SampleBatch`) to the
        survey; returns how many records it held."""
        return self.ingest_many((record,))

    def ingest_many(self, records: Iterable) -> int:
        """Append a micro-batch; returns how many records it held.

        Each run of consecutive raw traceroutes is scanned as one
        column batch (:meth:`_ingest_traces`), and each run of
        consecutive :class:`SampleRecord` objects is ingested as one
        (:meth:`SampleBatch.from_records`).
        """
        if self._final is not None:
            raise ValueError(
                "survey already finalized; no further records accepted"
            )
        n = 0
        for kind, run in groupby(records, key=_sampled_kind):
            if kind is TraceRecord:
                n += self._ingest_traces(list(run))
                continue
            if kind is SampleRecord:
                run = (SampleBatch.from_records(list(run)),)
            for record in run:
                n += self._ingest_record(record)
        return n

    def _ingest_record(self, record) -> int:
        """One :class:`SampleBatch` or :class:`ProbeRecord`."""
        held = 1
        if isinstance(record, SampleBatch):
            self._ingest_batch(record)
            held = len(record)
        elif isinstance(record, ProbeRecord):
            self._register(record)
        else:
            raise TypeError(
                f"not a stream record: {type(record).__name__}"
            )
        self.records_ingested += held
        return held

    def _register(self, record: ProbeRecord) -> None:
        if record.meta is not None:
            self._meta[record.prb_id] = record.meta
        if record.tracked:
            self._slot(record.prb_id)
        self._dirty.add(record.prb_id)

    def _slot(self, prb_id: int) -> int:
        """The probe's row in the series matrices (created on demand)."""
        slot = self._slots.get(prb_id)
        if slot is None:
            slot = len(self._slots)
            if slot == len(self._slot_prb):
                grown = max(16, 2 * slot)
                medians = np.full((grown, self.grid.num_bins), np.nan)
                counts = np.zeros((grown, self.grid.num_bins), np.int64)
                medians[:slot] = self._medians
                counts[:slot] = self._counts
                self._medians, self._counts = medians, counts
                self._slot_prb = np.resize(self._slot_prb, grown)
            self._slots[prb_id] = slot
            self._slot_prb[slot] = prb_id
        return slot

    def _ingest_traces(self, records: List[TraceRecord]) -> int:
        """Stages 1–3 of the paper for a run of arriving traceroutes:
        the batch scan's :func:`~repro.core.kernels.flat.gate`, a stale
        drop against the watermark, its
        :func:`~repro.core.kernels.flat.sample_lastmile` over the fresh
        records, then the columnar :meth:`_ingest_batch`.  A stale
        record is never walked, so it is never booked ``NO_BOUNDARY``.
        """
        results = [record.result for record in records]
        bins = gate(results, self.grid)
        prb_ids = np.fromiter(
            (result.prb_id for result in results), dtype=np.int64,
            count=len(results),
        )
        stale = (bins >= 0) & (bins <= self._closed_through)
        for row in np.flatnonzero(stale).tolist():
            self._stale(int(prb_ids[row]), int(bins[row]))
        fresh = np.flatnonzero(bins > self._closed_through)
        sizes, samples = sample_lastmile(
            results, bins, fresh, self.grid, self.scan_quality
        )
        offsets = np.zeros(len(fresh) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        self._ingest_batch(
            SampleBatch(prb_ids[fresh], bins[fresh], offsets, samples)
        )
        self.records_ingested += len(records)
        return len(records)

    def _stale(self, prb_id: int, bin_index: int) -> None:
        self.stale_records += 1
        self.engine_quality.drop(
            STAGE, DropReason.STALE_RECORD,
            detail=f"probe {prb_id}: bin {bin_index} already "
            f"closed (watermark {self._closed_through})",
        )

    def _ingest_batch(self, batch: SampleBatch) -> None:
        """Every row of a batch, in array ops: rows whose bin already
        closed are dropped as stale, the rest count toward their
        (probe, bin) and their samples join the open-bin store.

        The grid check covers the whole batch before any state
        changes, so a rejected batch leaves the engine as it was.
        """
        bins = batch.bin_indexes
        outside = (bins < 0) | (bins >= self.grid.num_bins)
        if outside.any():
            raise ValueError(
                f"bin index {bins[outside.argmax()]} outside grid "
                f"0..{self.grid.num_bins - 1}"
            )
        fresh = bins > self._closed_through
        for row in np.flatnonzero(~fresh).tolist():
            self._stale(int(batch.prb_ids[row]), int(bins[row]))
        if not fresh.any():
            return
        probes, inverse = np.unique(
            batch.prb_ids[fresh], return_inverse=True
        )
        probes = probes.tolist()
        row_slots = np.zeros(len(batch), dtype=np.int64)
        row_slots[fresh] = np.array([self._slot(p) for p in probes])[inverse]
        np.add.at(self._counts, (row_slots[fresh], bins[fresh]), 1)
        self._newest_bin = max(self._newest_bin, int(bins[fresh].max()))
        self._dirty.update(probes)
        sample_rows = batch.sample_rows()
        kept = fresh[sample_rows]
        sample_rows = sample_rows[kept]
        self._store.extend(
            row_slots[sample_rows], bins[sample_rows], batch.samples[kept]
        )

    # -- bin lifecycle -------------------------------------------------

    @property
    def closed_through(self) -> int:
        """Highest finalized bin index (-1: every bin still open)."""
        return self._closed_through

    @property
    def newest_bin(self) -> int:
        """Highest bin index an accepted record has reached (-1:
        none yet)."""
        return self._newest_bin

    def open_bins(self) -> int:
        """Open (probe, bin) buffers currently held."""
        slots, bins, _values = self._store.samples()
        return len(np.unique(slots * self.grid.num_bins + bins))

    def advance_watermark(self, seconds: float) -> int:
        """Close every bin that ends at or before ``seconds``.

        Returns the number of (probe, bin) buffers finalized.  A
        record arriving later for a closed bin is dropped as
        ``STALE_RECORD`` on :attr:`engine_quality`.
        """
        raw = int(seconds // self.grid.bin_seconds)
        return self.close_through(
            min(raw, self.grid.num_bins) - 1
        )

    def close_through(self, bin_index: int) -> int:
        """Finalize all open bins with index ≤ ``bin_index``.

        They close in the shared store
        (:meth:`~repro.stream.openbins.OpenBins.close_through`: the
        batch estimator's own mask and ``group_medians`` call, so
        finalized bins are bit-identical to it).  Bins under the
        sanity threshold stay NaN and are booked ``SPARSE_BIN`` on
        :attr:`engine_quality`.
        """
        bin_index = min(bin_index, self.grid.num_bins - 1)
        if bin_index <= self._closed_through:
            return 0
        key_slots, key_bins, counts, values = self._store.close_through(
            bin_index, self._slot_prb,
            lambda slots, bins: self._counts[slots, bins],
            self.min_traceroutes, self.kernels,
        )
        key_prb = self._slot_prb[key_slots]
        for i in np.flatnonzero(counts < self.min_traceroutes).tolist():
            self.sparse_bins += 1
            self.engine_quality.degrade(
                STAGE, DropReason.SPARSE_BIN,
                detail=f"probe {key_prb[i]}: bin {key_bins[i]} closed "
                f"with {counts[i]} < {self.min_traceroutes} traceroutes",
            )
        estimated = ~np.isnan(values)
        self._medians[key_slots[estimated], key_bins[estimated]] = (
            values[estimated]
        )
        self._dirty.update(np.unique(key_prb[estimated]).tolist())
        self._closed_through = bin_index
        return len(key_bins)

    # -- classification ------------------------------------------------

    def emit_partial(self) -> SurveyResult:
        """Classify the survey as it stands (open bins count as
        not-yet-estimated); reuses cached results for unchanged ASes.
        """
        return self._classify()

    def finalize(self) -> SurveyResult:
        """Close every bin, classify, and seal the survey.

        Idempotent: repeated calls return the same result object.
        """
        if self._final is None:
            self.close_through(self.grid.num_bins - 1)
            self._final = self._classify()
        return self._final

    def dataset(self) -> LastMileDataset:
        """The current finalized view as a batch dataset (open bins
        render as NaN)."""
        dataset = LastMileDataset(grid=self.grid)
        for prb_id in sorted(self._slots):
            slot = self._slots[prb_id]
            dataset.add(
                ProbeBinSeries(
                    prb_id=prb_id,
                    median_rtt_ms=self._medians[slot],
                    traceroute_counts=self._counts[slot],
                ),
                meta=self._meta.get(prb_id),
            )
        # Metadata-only probes (registered untracked) must stay
        # visible to the filter, exactly like a batch dataset holding
        # metadata without a series.
        for prb_id, meta in self._meta.items():
            if prb_id not in dataset.probe_meta:
                dataset.probe_meta[prb_id] = meta
        return dataset

    def _classify(self) -> SurveyResult:
        obs = get_observer()
        kern = self.kernels
        log = obs.logger.bind(stage=STAGE, period=self.period.name)
        with obs.stage_span(
            "stream-classify", period=self.period.name,
            kernel=kern.name,
        ) as span:
            dataset = self.dataset()
            filter_quality = DataQualityReport()
            groups = asns_with_min_probes(
                dataset.probe_meta, min_probes=self.min_probes,
                table=self.table, quality=filter_quality,
            )
            for asn in list(self._cache):
                if asn not in groups:
                    del self._cache[asn]
            to_run: List[Tuple[int, List[int]]] = []
            for asn, probe_ids in groups.items():
                cached = self._cache.get(asn)
                if (
                    cached is None
                    or cached.probe_ids != tuple(probe_ids)
                    or self._dirty.intersection(probe_ids)
                ):
                    to_run.append((asn, probe_ids))
            fragments = {
                asn: DataQualityReport() for asn, _ in to_run
            }
            outcomes = classify_asn_batch(
                dataset, to_run, thresholds=self.thresholds,
                max_attempts=self.max_attempts, keep_signals=False,
                kernels=kern,
                quality_for=lambda asn: fragments[asn], log=log,
            )
            for asn, report, failure, _signal in outcomes:
                self._cache[asn] = _CachedAS(
                    probe_ids=tuple(groups[asn]),
                    report=report, failure=failure,
                    fragment=fragments[asn],
                )
            self._dirty.clear()
            quality = DataQualityReport()
            quality.merge(self.scan_quality)
            quality.merge(filter_quality)
            result = SurveyResult(period=self.period, quality=quality)
            for asn in groups:
                cached = self._cache[asn]
                quality.merge(cached.fragment)
                if cached.failure is not None:
                    result.failures[asn] = cached.failure
                else:
                    result.reports[asn] = cached.report
            span.set_attr("ases", len(groups))
            span.set_attr("reclassified", len(to_run))
            obs.counter(
                "stream_reclassified_total",
                "ASes reclassified per incremental emit",
            ).inc(len(to_run))
            _record_survey_metrics(obs, result)
        return result

    # -- status --------------------------------------------------------

    def status(self) -> Dict:
        """A machine-readable snapshot of engine state for operators."""
        return {
            "period": self.period.name,
            "kernel": self.kernels.name,
            "records_ingested": self.records_ingested,
            "probes": len(self._slots),
            "registered": len(self._meta),
            "open_bins": self.open_bins(),
            "closed_through": self._closed_through,
            "num_bins": self.grid.num_bins,
            "stale_records": self.stale_records,
            "sparse_bins": self.sparse_bins,
            "finalized": self._final is not None,
        }
