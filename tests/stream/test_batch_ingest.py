"""Columnar ingest ≡ per-record ingest — the column-batch differential.

``repro.stream`` decomposes a dataset into one
:class:`~repro.stream.SampleBatch` and ingests micro-batches of it
with array operations into one columnar open-bin store; a run of
:class:`SampleRecord` objects enters the same way, as one batch
(``SampleBatch.from_records``).  The oracle below is the earlier
path, kept verbatim: ``dataset_to_records`` / ``shuffle_within_bins``
building one :class:`SampleRecord` per traceroute, and a
record-at-a-time ``_observe`` feeding a per-(probe, bin)
:class:`ExactMedian` buffer.  Every replay here runs both routes over
the same stream, batch boundaries and watermark, and asserts
byte-equal partial and final surveys and equal quality-ledger counts:
on the seeded, faulted, degenerate, single-probe and empty worlds, in
order and shuffled within bins, at batch sizes 1, 7, 997/1000 and the
whole stream, on both kernel backends.  Mixed streams — registrations,
raw traceroutes, record runs and column batches in one
``ingest_many`` — are held to the same oracle.

Like ``test_differential.py``, this file runs in the CI chaos leg
under ``-W error::RuntimeWarning``.
"""

import datetime as dt
import itertools
import math
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np
import pytest

from repro.core.kernels.flat import bin_medians, plan_chunks
from repro.core.lastmile import STAGE as LASTMILE_STAGE
from repro.core.series import LastMileDataset, ProbeBinSeries
from repro.quality import DropReason
from repro.scenarios import generate_specs
from repro.stream import (
    ProbeRecord,
    SampleBatch,
    SampleRecord,
    StreamingSurvey,
    StreamRecord,
    TraceRecord,
    column_batches,
    dataset_to_records,
    decompose,
    micro_batches,
)
from repro.stream.engine import STAGE
from repro.timebase import MeasurementPeriod
from tests.core.lastmile_oracle import lastmile_samples
from tests.core.test_lastmile import hop, traceroute
from tests.kernels.test_differential import degenerate_dataset
from tests.stream.conftest import (
    WORLD_SEED,
    canonical_bytes,
    faulted_dataset,
    quality_counts,
    seeded_dataset,
)


# -- the oracle: per-record decomposition and ingest, kept verbatim -------


class ExactMedian:
    """Exact online median: buffer the open bin, ``numpy.median`` it."""

    __slots__ = ("_samples", "_has_nan")

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._has_nan = False

    @property
    def n(self) -> int:
        """Samples seen so far."""
        return len(self._samples)

    def add(self, sample: float) -> None:
        """Accumulate one sample (NaN propagates, like the kernels)."""
        sample = float(sample)
        if math.isnan(sample):
            self._has_nan = True
        self._samples.append(sample)

    def extend(self, samples: Iterable[float]) -> None:
        """Accumulate many samples."""
        for sample in samples:
            self.add(sample)

    def value(self) -> float:
        """The median of everything seen; NaN when empty or poisoned."""
        if not self._samples or self._has_nan:
            return float("nan")
        return float(np.median(self._samples))

    def samples(self) -> List[float]:
        """The buffered samples (the finalization kernel consumes them)."""
        return self._samples


def oracle_dataset_to_records(
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
        observations = oracle_shuffle_within_bins(observations, rng)
    records.extend(observations)
    return records


def oracle_shuffle_within_bins(
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


class OracleSurvey(StreamingSurvey):
    """The engine's record-at-a-time ingest and per-key buffers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._medians: Dict[int, np.ndarray] = {}
        self._counts: Dict[int, np.ndarray] = {}
        self._meta: Dict[int, object] = {}
        self._open: Dict[Tuple[int, int], object] = {}


    def ingest(self, record) -> None:
        """Append one record to the survey."""
        if self._final is not None:
            raise ValueError(
                "survey already finalized; no further records accepted"
            )
        self.records_ingested += 1
        if isinstance(record, ProbeRecord):
            self._register(record)
        elif isinstance(record, SampleRecord):
            self._observe(
                record.prb_id, record.bin_index, record.samples,
                trusted=True,
            )
        elif isinstance(record, TraceRecord):
            self._ingest_trace(record)
        else:
            raise TypeError(
                f"not a stream record: {type(record).__name__}"
            )

    def ingest_many(self, records: Iterable) -> int:
        """Append a micro-batch; returns how many records it held."""
        n = 0
        for record in records:
            self.ingest(record)
            n += 1
        return n

    def _register(self, record: ProbeRecord) -> None:
        if record.meta is not None:
            self._meta[record.prb_id] = record.meta
        if record.tracked:
            self._ensure_series(record.prb_id)
        self._dirty.add(record.prb_id)

    def _ensure_series(self, prb_id: int) -> None:
        if prb_id not in self._medians:
            self._medians[prb_id] = np.full(
                self.grid.num_bins, np.nan, dtype=np.float64
            )
            self._counts[prb_id] = np.zeros(
                self.grid.num_bins, dtype=np.int64
            )

    def _ingest_trace(self, record: TraceRecord) -> None:
        """Stages 1–3 of the paper for one arriving traceroute —
        the same decisions
        :func:`repro.core.kernels.flat.scan_lastmile_flat` makes, one
        record at a time."""
        result = record.result
        quality = self.scan_quality
        quality.ingest(LASTMILE_STAGE)
        timestamp = result.timestamp
        if not np.isfinite(timestamp):
            quality.drop(
                LASTMILE_STAGE, DropReason.MALFORMED_RECORD,
                detail=f"probe {result.prb_id}: timestamp "
                f"{timestamp!r}",
            )
            return
        duration = self.grid.num_bins * self.grid.bin_seconds
        if timestamp < 0 or timestamp > duration:
            quality.drop(
                LASTMILE_STAGE, DropReason.OUT_OF_PERIOD,
                detail=f"probe {result.prb_id}: timestamp "
                f"{timestamp:.0f}s outside 0..{duration}s",
            )
            return
        bin_index = int(self.grid.bin_index(timestamp))
        samples = lastmile_samples(result)
        counted = self._observe(
            result.prb_id, bin_index, samples, trusted=False
        )
        if counted and not samples:
            # Counted toward bin sanity, but flagged: the probe was
            # measuring yet produced no usable boundary pair.
            quality.degrade(
                LASTMILE_STAGE, DropReason.NO_BOUNDARY,
                detail=f"probe {result.prb_id}: no usable "
                "private→public hop pair",
            )

    def _observe(
        self,
        prb_id: int,
        bin_index: int,
        samples: Iterable[float],
        trusted: bool,
    ) -> bool:
        if not 0 <= bin_index < self.grid.num_bins:
            raise ValueError(
                f"bin index {bin_index} outside grid "
                f"0..{self.grid.num_bins - 1}"
            )
        if bin_index <= self._closed_through:
            self.stale_records += 1
            self.engine_quality.drop(
                STAGE, DropReason.STALE_RECORD,
                detail=f"probe {prb_id}: bin {bin_index} already "
                f"closed (watermark {self._closed_through})",
            )
            return False
        self._ensure_series(prb_id)
        self._counts[prb_id][bin_index] += 1
        samples = list(samples)
        if samples:
            key = (prb_id, bin_index)
            estimator = self._open.get(key)
            if estimator is None:
                estimator = ExactMedian()
                self._open[key] = estimator
            estimator.extend(samples)
        self._dirty.add(prb_id)
        return True

    def open_bins(self) -> int:
        """Open (probe, bin) buffers currently held."""
        return len(self._open)

    def close_through(self, bin_index: int) -> int:
        """Finalize all open bins with index ≤ ``bin_index``.

        Computes the medians of the closing buffers through
        :func:`~repro.core.kernels.flat.bin_medians` — the batch
        estimator's own mask and ``group_medians`` call, so finalized
        bins are bit-identical to it — in chunks whose padded sample
        matrix stays within the survey's chunk budget.  Bins under the
        sanity threshold stay NaN and are booked ``SPARSE_BIN`` on
        :attr:`engine_quality`.
        """
        bin_index = min(bin_index, self.grid.num_bins - 1)
        if bin_index <= self._closed_through:
            return 0
        closing = sorted(k for k in self._open if k[1] <= bin_index)
        sizes = [self._open[key].n for key in closing]
        for start, stop in plan_chunks(sizes, 1):
            # Pop one chunk at a time, so closed buffers are freed
            # before the next chunk's arrays are built.
            chunk = closing[start:stop]
            estimators = [self._open.pop(key) for key in chunk]
            counts = np.fromiter(
                (self._counts[prb_id][b] for prb_id, b in chunk),
                dtype=np.int64, count=len(chunk),
            )
            values, _estimated = bin_medians(
                np.repeat(
                    np.arange(len(chunk), dtype=np.int64),
                    sizes[start:stop],
                ),
                np.fromiter(
                    itertools.chain.from_iterable(
                        estimator.samples() for estimator in estimators
                    ),
                    dtype=np.float64, count=sum(sizes[start:stop]),
                ),
                counts, self.min_traceroutes, self.kernels,
            )
            for (prb_id, b), count, value in zip(chunk, counts, values):
                if count < self.min_traceroutes:
                    self.sparse_bins += 1
                    self.engine_quality.degrade(
                        STAGE, DropReason.SPARSE_BIN,
                        detail=f"probe {prb_id}: bin {b} closed with "
                        f"{count} < {self.min_traceroutes} traceroutes",
                    )
                if not math.isnan(value):
                    self._medians[prb_id][b] = value
                    self._dirty.add(prb_id)
        self._closed_through = bin_index
        return len(closing)

    def dataset(self) -> LastMileDataset:
        """The current finalized view as a batch dataset (open bins
        render as NaN)."""
        dataset = LastMileDataset(grid=self.grid)
        for prb_id in sorted(self._medians):
            dataset.add(
                ProbeBinSeries(
                    prb_id=prb_id,
                    median_rtt_ms=self._medians[prb_id],
                    traceroute_counts=self._counts[prb_id],
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

    def status(self) -> Dict:
        """A machine-readable snapshot of engine state for operators."""
        return {
            "period": self.period.name,
            "kernel": self.kernels.name,
            "records_ingested": self.records_ingested,
            "probes": len(self._medians),
            "registered": len(self._meta),
            "open_bins": len(self._open),
            "closed_through": self._closed_through,
            "num_bins": self.grid.num_bins,
            "stale_records": self.stale_records,
            "sparse_bins": self.sparse_bins,
            "finalized": self._final is not None,
        }


# -- the harness -----------------------------------------------------------


def small_dataset():
    """A 2-AS seeded world over one day: short enough to replay one
    record per batch."""
    specs = generate_specs(num_ases=2, num_countries=2, seed=WORLD_SEED)
    period = MeasurementPeriod("2019-09", dt.datetime(2019, 9, 2), 1)
    return seeded_dataset(specs, period)


def run(engine, batches, newest, watermark, emits):
    """Ingest ``batches``; after each, close through the newest bin
    seen minus one when ``watermark``; emit ``emits`` evenly spaced
    partials.  Returns the partial and final survey bytes."""
    batches = list(batches)
    every = max(len(batches) // (emits + 1), 1) if emits else 0
    partials = []
    for index, batch in enumerate(batches, start=1):
        engine.ingest_many(batch)
        if watermark:
            engine.close_through(newest(batch) - 1)
        if every and index % every == 0 and len(partials) < emits:
            partials.append(canonical_bytes(engine.emit_partial()))
    return partials, canonical_bytes(engine.finalize())


def replay_both(
    dataset,
    table=None,
    kernels="reference",
    shuffle_seed=None,
    batch_size=None,
    watermark=True,
    emits=3,
    **kwargs,
):
    """The same stream through the oracle and the columnar path."""
    def rng():
        if shuffle_seed is None:
            return None
        return np.random.default_rng(shuffle_seed)

    period = dataset.grid.period
    records = oracle_dataset_to_records(dataset, rng=rng())
    size = batch_size or max(len(records), 1)
    oracle = OracleSurvey(period, table=table, kernels=kernels, **kwargs)
    seen = [-1]

    def oracle_newest(batch):
        for record in batch:
            if isinstance(record, SampleRecord):
                seen[0] = max(seen[0], record.bin_index)
        return seen[0]

    want = run(
        oracle, micro_batches(records, size), oracle_newest, watermark,
        emits,
    )
    registrations, rows = decompose(dataset, rng=rng())
    engine = StreamingSurvey(period, table=table, kernels=kernels, **kwargs)
    got = run(
        engine, column_batches(registrations, rows, size),
        lambda _batch: engine.newest_bin, watermark, emits,
    )
    assert got[0] == want[0], "partial surveys differ"
    assert got[1] == want[1], "final surveys differ"
    assert_same_state(engine, oracle)
    return engine, oracle


def assert_same_state(engine, oracle):
    assert engine.status() == oracle.status()
    for ledger in ("scan_quality", "engine_quality"):
        assert quality_counts(getattr(engine, ledger)) == quality_counts(
            getattr(oracle, ledger)
        ), ledger
    ours, theirs = engine.dataset(), oracle.dataset()
    assert sorted(ours.series) == sorted(theirs.series)
    assert ours.probe_meta == theirs.probe_meta
    for prb_id, series in ours.series.items():
        other = theirs.series[prb_id]
        assert np.array_equal(
            series.median_rtt_ms, other.median_rtt_ms, equal_nan=True
        )
        assert np.array_equal(
            series.traceroute_counts, other.traceroute_counts
        )


def expanded(items):
    """The object view of ``items``: column batches as records."""
    return [
        record for item in items for record in (
            item.records() if isinstance(item, SampleBatch) else [item]
        )
    ]


@pytest.fixture(scope="module")
def seeded():
    specs = generate_specs(num_ases=10, num_countries=6, seed=WORLD_SEED)
    return seeded_dataset(specs)


@pytest.fixture(scope="module")
def faulted():
    specs = generate_specs(num_ases=10, num_countries=6, seed=WORLD_SEED)
    dataset, table, _log = faulted_dataset(specs)
    return dataset, table


@pytest.fixture(scope="module")
def small():
    return small_dataset()


# -- the decomposition -----------------------------------------------------


class TestDecomposition:
    @pytest.mark.parametrize("shuffle_seed", [None, 11])
    def test_records_view_equals_oracle(self, seeded, shuffle_seed):
        dataset, _table = seeded

        def rng():
            if shuffle_seed is None:
                return None
            return np.random.default_rng(shuffle_seed)

        want = oracle_dataset_to_records(dataset, rng=rng())
        got = dataset_to_records(dataset, rng=rng())
        assert got == want

    @pytest.mark.parametrize("world", ["faulted", "degenerate", "empty"])
    def test_records_view_equals_oracle_on_corner_worlds(
        self, faulted, world
    ):
        dataset = {
            "faulted": lambda: faulted[0],
            "degenerate": degenerate_dataset,
            "empty": lambda: LastMileDataset(grid=faulted[0].grid),
        }[world]()
        for seed in (None, 3):
            want = oracle_dataset_to_records(
                dataset, rng=None if seed is None
                else np.random.default_rng(seed),
            )
            got = dataset_to_records(
                dataset, rng=None if seed is None
                else np.random.default_rng(seed),
            )
            assert got == want

    @pytest.mark.parametrize("size", [1, 7, 1000, 10**9])
    def test_column_batches_keep_micro_batch_boundaries(self, small, size):
        dataset, _table = small
        records = dataset_to_records(dataset, np.random.default_rng(2))
        registrations, rows = decompose(dataset, np.random.default_rng(2))
        want = list(micro_batches(records, size))
        got = list(column_batches(registrations, rows, size))
        assert len(got) == len(want)
        for ours, theirs in zip(got, want):
            assert expanded(ours) == theirs

    def test_batch_slices_and_records(self):
        batch = SampleBatch(
            prb_ids=np.array([1, 2, 1, 1, 1]),
            bin_indexes=np.array([0, 0, 1, 1, 1]),
            offsets=np.array([0, 2, 2, 3, 4, 4]),
            samples=np.array([1.0, 2.0, -0.0, 0.0]),
        )
        records = batch.records()
        assert records == [
            SampleRecord(1, 0, (1.0, 2.0)),
            SampleRecord(2, 0),
            SampleRecord(1, 1, (-0.0,)),
            SampleRecord(1, 1, (0.0,)),
            SampleRecord(1, 1),
        ]
        # Equal floats with different bits keep their own tuples.
        assert str(records[2].samples) == "(-0.0,)"
        assert batch[1:].records() == records[1:]
        assert batch[2:4].records() == records[2:4]
        assert batch[1:1].records() == []
        with pytest.raises(ValueError, match="step 1"):
            batch[::2]

    def test_from_records_inverts_records(self):
        """Multi-sample, empty and signed-zero rows come back column
        for column, dtypes included."""
        batch = SampleBatch(
            prb_ids=np.array([1, 2, 1, 1, 1, 3], dtype=np.int64),
            bin_indexes=np.array([0, 0, 1, 1, 1, 2], dtype=np.int64),
            offsets=np.array([0, 2, 2, 3, 4, 4, 7], dtype=np.int64),
            samples=np.array([1.0, 2.0, -0.0, 0.0, 5.0, np.nan, 4.0]),
        )
        rebuilt = SampleBatch.from_records(batch.records())
        for column in ("prb_ids", "bin_indexes", "offsets", "samples"):
            ours, theirs = getattr(rebuilt, column), getattr(batch, column)
            assert ours.dtype == theirs.dtype, column
            assert ours.tobytes() == theirs.tobytes(), column
        empty = SampleBatch.from_records([])
        assert len(empty) == 0
        assert empty.offsets.tolist() == [0]
        assert empty.samples.dtype == np.float64


# -- whole-survey replays --------------------------------------------------


class TestReplayEquivalence:
    @pytest.mark.parametrize("kernels,shuffle_seed,batch_size,watermark", [
        ("vector", 11, 1000, True),
        ("reference", None, None, False),
        ("reference", 23, 1000, True),
    ])
    def test_seeded_world(
        self, seeded, kernels, shuffle_seed, batch_size, watermark
    ):
        dataset, table = seeded
        engine, _ = replay_both(
            dataset, table=table, kernels=kernels,
            shuffle_seed=shuffle_seed, batch_size=batch_size,
            watermark=watermark,
        )
        assert engine.stale_records == 0

    @pytest.mark.parametrize("kernels,shuffle_seed,batch_size", [
        ("reference", 31, 997),
        ("vector", None, None),
    ])
    def test_faulted_world(self, faulted, kernels, shuffle_seed, batch_size):
        """NaN bursts leave sample-less rows; PoisonAS leaves
        untracked probes."""
        dataset, table = faulted
        engine, _ = replay_both(
            dataset, table=table, kernels=kernels,
            shuffle_seed=shuffle_seed, batch_size=batch_size,
        )
        registered = engine.status()["registered"]
        assert engine.status()["probes"] < registered

    @pytest.mark.parametrize("kernels", ["reference", "vector"])
    @pytest.mark.parametrize("batch_size,shuffle_seed", [(1, 5), (7, None)])
    def test_small_world_tiny_batches(
        self, small, kernels, batch_size, shuffle_seed
    ):
        dataset, table = small
        replay_both(
            dataset, table=table, kernels=kernels,
            shuffle_seed=shuffle_seed, batch_size=batch_size,
        )

    @pytest.mark.parametrize("kernels", ["reference", "vector"])
    @pytest.mark.parametrize("batch_size", [7, None])
    def test_degenerate_world(self, kernels, batch_size):
        engine, _ = replay_both(
            degenerate_dataset(), kernels=kernels, shuffle_seed=3,
            batch_size=batch_size,
        )
        assert engine.sparse_bins > 0

    def test_single_probe_world(self):
        replay_both(degenerate_dataset(), min_probes=1, batch_size=1000)

    @pytest.mark.parametrize("batch_size", [1, None])
    def test_empty_world(self, seeded, batch_size):
        empty = LastMileDataset(grid=seeded[0].grid)
        engine, _ = replay_both(empty, batch_size=batch_size)
        assert engine.records_ingested == 0



# -- mixed rows, stale rows, rejected batches ------------------------------


def mixed_batch(seed=0, probes=4, bins=6, rows=400):
    """Rows in bin order with zero to four samples each, NaN among
    them: the shape a decomposed dataset never has."""
    rng = np.random.default_rng(seed)
    bin_indexes = np.sort(rng.integers(0, bins, rows))
    prb_ids = rng.integers(1, probes + 1, rows) * 10
    lengths = rng.integers(0, 5, rows)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    samples = rng.normal(10.0, 2.0, offsets[-1])
    samples[rng.random(offsets[-1]) < 0.01] = np.nan
    return SampleBatch(prb_ids, bin_indexes, offsets, samples)


class TestMixedRows:
    @pytest.mark.parametrize("as_records", [False, True])
    @pytest.mark.parametrize("kernels", ["reference", "vector"])
    def test_multi_sample_rows_match_oracle(self, as_records, kernels):
        """Many samples per row, several rows per key, fed as column
        batches or as runs of record objects: the store sees each
        key's samples in row order."""
        batch = mixed_batch()
        oracle = OracleSurvey(
            MeasurementPeriod("d", dt.datetime(2019, 9, 2), 1),
            kernels=kernels, min_traceroutes=1,
        )
        engine = StreamingSurvey(
            oracle.period, kernels=kernels, min_traceroutes=1,
        )
        for start in range(0, len(batch), 57):
            piece = batch[start:start + 57]
            oracle.ingest_many(piece.records())
            engine.ingest_many(piece.records() if as_records else [piece])
            assert engine.open_bins() == oracle.open_bins()
            newest = int(piece.bin_indexes.max())
            oracle.close_through(newest - 2)
            engine.close_through(newest - 2)
        assert_same_state(engine, oracle)
        oracle.close_through(5)
        engine.close_through(5)
        assert_same_state(engine, oracle)
        medians = engine.dataset().series[10].median_rtt_ms[:6]
        assert np.isfinite(medians).any()

    def test_stale_rows_book_the_same_drops(self):
        """A batch reaching into closed bins: those rows are dropped
        as STALE_RECORD, one per row, the rest are ingested."""
        batch = mixed_batch(seed=1)
        period = MeasurementPeriod("d", dt.datetime(2019, 9, 2), 1)
        oracle = OracleSurvey(period)
        engine = StreamingSurvey(period)
        early = batch[:int(np.searchsorted(batch.bin_indexes, 3))]
        oracle.ingest_many(early.records())
        engine.ingest(early)
        oracle.close_through(1)
        engine.close_through(1)
        oracle.ingest_many(batch.records())
        engine.ingest(batch)
        stale = int(np.sum(batch.bin_indexes <= 1))
        assert stale > 0
        assert engine.stale_records == oracle.stale_records == stale
        assert engine.engine_quality.dropped_count(
            DropReason.STALE_RECORD
        ) == stale
        assert_same_state(engine, oracle)
        assert canonical_bytes(engine.finalize()) == canonical_bytes(
            oracle.finalize()
        )
        # An all-stale batch changes nothing but the stale ledger.
        late = StreamingSurvey(period)
        late.close_through(5)
        late.ingest(batch[:10])
        assert late.stale_records == 10
        assert late.status()["probes"] == 0

    @pytest.mark.parametrize("bad_bin", [-1, 48])
    def test_out_of_grid_record_rejects_its_run(self, bad_bin):
        """A run of sampled records is one batch: an out-of-grid bin
        anywhere in it rejects the whole run."""
        period = MeasurementPeriod("d", dt.datetime(2019, 9, 2), 1)
        engine = StreamingSurvey(period)
        engine.ingest(ProbeRecord(10))
        engine.ingest_many(mixed_batch(seed=2)[:50].records())
        engine.close_through(0)
        before = (engine.status(), engine.open_bins())
        run = mixed_batch(seed=3)[:40].records()
        run[17] = SampleRecord(20, bad_bin, (1.0,))
        with pytest.raises(ValueError, match="outside grid"):
            engine.ingest_many(run)
        assert (engine.status(), engine.open_bins()) == before

    @pytest.mark.parametrize("bad_bin", [-1, 48])
    def test_out_of_grid_batch_rejected_whole(self, bad_bin):
        period = MeasurementPeriod("d", dt.datetime(2019, 9, 2), 1)
        engine = StreamingSurvey(period)
        engine.ingest(ProbeRecord(10))
        engine.ingest(mixed_batch(seed=2)[:50])
        engine.close_through(0)
        before = (
            engine.status(), quality_counts(engine.engine_quality),
            canonical_bytes(engine.emit_partial()),
        )
        bad = mixed_batch(seed=3)[:40]
        bins = bad.bin_indexes.copy()
        bins[17] = bad_bin
        bad = SampleBatch(bad.prb_ids, bins, bad.offsets, bad.samples)
        with pytest.raises(ValueError, match="outside grid"):
            engine.ingest(bad)
        after = (
            engine.status(), quality_counts(engine.engine_quality),
            canonical_bytes(engine.emit_partial()),
        )
        assert after == before


# -- mixed record kinds in one ingest_many ---------------------------------


def trace_record(prb_id, timestamp, public_rtt):
    """A raw traceroute for ``prb_id``; a NaN ``public_rtt`` leaves it
    without a usable boundary."""
    return TraceRecord(traceroute([
        hop(1, "192.168.1.1", [0.5] * 3),
        hop(2, "60.0.0.1", [public_rtt] * 3),
        hop(3, "80.0.0.1", [10.0] * 3),
    ], timestamp=timestamp, prb_id=prb_id))


def mixed_stream(seed=4):
    """Registrations, then bin-ordered pieces of a mixed batch, each
    as a column batch, a run of record objects, or a run of records
    with raw traceroutes of the same bins among them."""
    batch = mixed_batch(seed=seed, rows=240)
    rng = np.random.default_rng(seed)
    items: list = [ProbeRecord(prb_id) for prb_id in (10, 20, 30, 40, 50)]
    for index, start in enumerate(range(0, len(batch), 20)):
        piece = batch[start:start + 20]
        if index % 3 == 0:
            items.append(piece)
            continue
        for row, record in enumerate(piece.records()):
            if index % 3 == 2 and row % 4 == 0:
                rtt = float(rng.normal(4.0, 1.0))
                items.append(trace_record(
                    record.prb_id,
                    (record.bin_index + rng.random()) * 1800.0,
                    rtt if rng.random() > 0.2 else float("nan"),
                ))
            items.append(record)
    return items


class TestMixedKinds:
    @pytest.mark.parametrize("size", [1, 7, None])
    def test_mixed_ingest_matches_oracle(self, size):
        items = mixed_stream()
        kinds = {type(item) for item in items}
        assert kinds == {ProbeRecord, SampleRecord, TraceRecord, SampleBatch}
        period = MeasurementPeriod("d", dt.datetime(2019, 9, 2), 1)
        engine = StreamingSurvey(period, kernels="reference")
        oracle = OracleSurvey(period, kernels="reference")
        batches = list(micro_batches(items, size or len(items)))
        middle = len(batches) // 2
        for index, batch in enumerate(batches):
            if index == middle:
                # Later records of the newest bin so far arrive stale.
                assert_same_state(engine, oracle)
                newest = engine.newest_bin
                engine.close_through(newest)
                oracle.close_through(newest)
            held = engine.ingest_many(batch)
            assert held == oracle.ingest_many(expanded(batch))
        assert_same_state(engine, oracle)
        if size is not None:
            assert engine.stale_records > 0
        assert engine.scan_quality.degraded_count(
            DropReason.NO_BOUNDARY
        ) > 0
        assert canonical_bytes(engine.finalize()) == canonical_bytes(
            oracle.finalize()
        )
        assert_same_state(engine, oracle)
