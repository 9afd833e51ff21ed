"""Streaming-vs-batch differential harness — the equivalence tentpole.

The contract (``repro.stream.engine``): with exact medians, a
finalized streaming survey is **bit-identical** — under
``survey_to_dict`` — to the batch pipeline over the same data, for
any arrival order within a bin, any micro-batch split, on either
kernel backend.  This file proves it by replaying every seeded world
the kernel differential suite pins the backends on: the 10-AS survey
world, the synthetic sinusoid dataset, the degenerate corners, and
the fault-injected variants — in order, shuffled within bins, and
micro-batched with mid-stream partial emits, as column batches (the
path ``repro stream`` runs) and, once, as record objects (the path
``benchmarks/e2e``'s traced stream job runs).

Like ``tests/kernels/test_differential.py``, this file runs in the
CI chaos leg under ``-W error::RuntimeWarning``.
"""

import pytest

from repro.core import LastMileDataset
from repro.quality import DropReason
from tests.kernels.test_differential import (
    degenerate_dataset,
    synthetic_dataset,
)
from tests.stream.conftest import (
    GRID,
    batch_survey,
    canonical_bytes,
    faulted_dataset,
    quality_counts,
    seeded_dataset,
    stream_replay,
)


@pytest.fixture(scope="module")
def seeded(specs):
    return seeded_dataset(specs)


@pytest.fixture(scope="module")
def batch_reference(seeded):
    dataset, table = seeded
    return batch_survey(dataset, table=table, kernels="reference")


@pytest.fixture(scope="module")
def batch_vector(seeded):
    dataset, table = seeded
    return batch_survey(dataset, table=table, kernels="vector")


class TestSeededWorldReplay:
    def test_in_order_replay_bit_identical(self, seeded, batch_reference):
        dataset, table = seeded
        batch, _ = batch_reference
        engine, stream = stream_replay(dataset, table=table)
        assert canonical_bytes(stream) == canonical_bytes(batch)
        assert len(stream.reports) == 10
        assert quality_counts(stream.quality) == quality_counts(
            batch.quality
        )

    def test_shuffled_within_bin_invariant(self, seeded, batch_reference):
        """Arrival order inside a bin is measurement noise — the
        survey must not see it."""
        dataset, table = seeded
        batch, _ = batch_reference
        _, stream = stream_replay(dataset, table=table, shuffle_seed=11)
        assert canonical_bytes(stream) == canonical_bytes(batch)

    def test_micro_batched_with_partial_emits(
        self, seeded, batch_reference
    ):
        """Micro-batched ingest with periodic ``emit_partial`` calls
        (exercising the incremental cache mid-stream) must finalize
        to the same bytes as one uninterrupted batch run."""
        dataset, table = seeded
        batch, _ = batch_reference
        engine, stream = stream_replay(
            dataset, table=table, shuffle_seed=23,
            batch_size=509, emit_every=3,
        )
        assert canonical_bytes(stream) == canonical_bytes(batch)
        status = engine.status()
        assert status["finalized"]
        assert status["closed_through"] == GRID.num_bins - 1
        assert status["open_bins"] == 0

    def test_record_object_replay(self, seeded, batch_reference):
        """The record-object view, micro-batched with partial emits:
        each batch's run of sampled records is ingested as one column
        batch, to the same bytes."""
        dataset, table = seeded
        batch, _ = batch_reference
        engine, stream = stream_replay(
            dataset, table=table, shuffle_seed=23,
            batch_size=509, emit_every=3, record_objects=True,
        )
        assert canonical_bytes(stream) == canonical_bytes(batch)
        status = engine.status()
        assert status["finalized"]
        assert status["closed_through"] == GRID.num_bins - 1
        assert status["open_bins"] == 0

    def test_vector_backend_replay(
        self, seeded, batch_reference, batch_vector
    ):
        """The backend seam applies to streaming runs too: a vector
        replay matches the vector batch, which matches reference."""
        dataset, table = seeded
        reference, _ = batch_reference
        vector, _ = batch_vector
        _, stream = stream_replay(
            dataset, table=table, kernels="vector", shuffle_seed=11
        )
        assert canonical_bytes(stream) == canonical_bytes(vector)
        assert canonical_bytes(vector) == canonical_bytes(reference)


class TestFaultedWorldReplay:
    @pytest.fixture(scope="class")
    def faulted(self, specs):
        return faulted_dataset(specs)

    def test_faulted_replay_identical_both_backends(self, faulted):
        """Bin loss, NaN bursts and poisoned ASes: failure accounting
        and quality counts must survive the streaming route intact,
        on both backends."""
        dataset, table, _log = faulted
        batch_ref, _ = batch_survey(
            dataset, table=table, kernels="reference"
        )
        batch_vec, _ = batch_survey(
            dataset, table=table, kernels="vector"
        )
        _, stream_ref = stream_replay(
            dataset, table=table, kernels="reference",
            shuffle_seed=31, batch_size=997,
        )
        _, stream_vec = stream_replay(
            dataset, table=table, kernels="vector"
        )
        want = canonical_bytes(batch_ref)
        assert canonical_bytes(stream_ref) == want
        assert canonical_bytes(batch_vec) == want
        assert canonical_bytes(stream_vec) == want
        assert batch_ref.failures, "PoisonAS should fail ASes"
        assert set(stream_ref.failures) == set(batch_ref.failures)
        assert quality_counts(stream_ref.quality) == quality_counts(
            batch_ref.quality
        )


class TestCuratedDatasetReplay:
    def test_synthetic_dataset_replay(self):
        dataset = synthetic_dataset()
        batch, _ = batch_survey(dataset)
        _, stream = stream_replay(dataset, shuffle_seed=7)
        assert canonical_bytes(stream) == canonical_bytes(batch)

    def test_degenerate_dataset_replay_both_backends(self):
        """All-NaN populations, flat signals, dead probes, and a
        probe forever under the sanity threshold."""
        surveys = []
        for kernels in ("reference", "vector"):
            batch, _ = batch_survey(degenerate_dataset(), kernels=kernels)
            engine, stream = stream_replay(
                degenerate_dataset(), kernels=kernels, shuffle_seed=3
            )
            assert canonical_bytes(stream) == canonical_bytes(batch)
            # The under-threshold probe's bins closed sparse — booked
            # on the engine ledger, invisible to the survey ledger.
            assert engine.sparse_bins == GRID.num_bins
            assert engine.engine_quality.degraded_count(
                DropReason.SPARSE_BIN
            ) == engine.sparse_bins
            assert engine.stale_records == 0
            surveys.append(canonical_bytes(stream))
        assert surveys[0] == surveys[1]

    def test_single_probe_asn_replay(self):
        batch, _ = batch_survey(degenerate_dataset(), min_probes=1)
        _, stream = stream_replay(
            degenerate_dataset(), min_probes=1
        )
        assert canonical_bytes(stream) == canonical_bytes(batch)
        assert 201 in stream.reports

    def test_empty_period_replay(self):
        empty = LastMileDataset(grid=GRID)
        batch, _ = batch_survey(empty)
        engine, stream = stream_replay(empty)
        assert canonical_bytes(stream) == canonical_bytes(batch)
        assert stream.reports == {}
        assert engine.records_ingested == 0
