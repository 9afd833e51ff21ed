"""Property suite for the zero-copy shared-memory shard transport.

The transport contract (:mod:`repro.parallel.transport`): arbitrary
flat survey arrays round-trip through shared-memory blocks losslessly
(bit-for-bit, NaN placement included); the sharded survey is
byte-identical across worker counts and kernel backends whether the
data rides shared memory or the pickle fallback; and blocks are
always unlinked — on success, on pickle fallback, and when a shard
worker raises mid-flight.
"""

import datetime as dt
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import survey_to_dict
from repro.parallel import (
    SHM_ENV,
    WORKERS_ENV,
    classify_dataset_sharded,
)
from repro.parallel import executor as executor_module
from repro.parallel import transport
from repro.parallel.transport import (
    PackedDataset,
    pack_arrays,
    pack_dataset,
    pack_signals,
    shm_enabled,
    unpack_arrays,
    unpack_dataset,
    unpack_signals,
)
from repro.core.aggregate import AggregatedSignal
from repro.core.series import LastMileDataset, ProbeBinSeries
from repro.timebase import MeasurementPeriod, TimeGrid

from tests.kernels.test_differential import (
    PERIOD,
    degenerate_dataset,
    synthetic_dataset,
)

GRID = TimeGrid(PERIOD)


def attach_fails(block_name: str) -> bool:
    """True when the named block no longer exists (was unlinked)."""
    from multiprocessing import shared_memory

    try:
        segment = shared_memory.SharedMemory(name=block_name)
    except FileNotFoundError:
        return True
    transport._untrack(segment)
    segment.close()
    return False


@pytest.fixture(autouse=True)
def _pin_environment(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    monkeypatch.delenv(SHM_ENV, raising=False)


@st.composite
def flat_arrays(draw):
    """A mapping of named arrays with adversarial shapes/NaNs."""
    count = draw(st.integers(min_value=0, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    arrays = {}
    for index in range(count):
        kind = draw(st.sampled_from(["f8", "i8", "f8-2d", "empty"]))
        if kind == "empty":
            arrays[f"a{index}"] = np.zeros(0, dtype=np.float64)
        elif kind == "i8":
            n = draw(st.integers(min_value=1, max_value=64))
            arrays[f"a{index}"] = rng.integers(
                -(2**40), 2**40, n
            ).astype(np.int64)
        else:
            shape = (
                (draw(st.integers(1, 16)),)
                if kind == "f8"
                else (draw(st.integers(1, 8)), draw(st.integers(1, 16)))
            )
            values = rng.normal(0, 100, shape)
            values[rng.random(shape) < 0.3] = np.nan
            if values.size:
                values.flat[0] = np.inf
            arrays[f"a{index}"] = values
    return arrays


class TestArrayRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(arrays=flat_arrays())
    def test_lossless_and_unlinked(self, arrays):
        ref = pack_arrays(arrays)
        try:
            got, close = unpack_arrays(ref)
            assert set(got) == set(arrays)
            for name, original in arrays.items():
                view = got[name]
                assert view.dtype == original.dtype
                assert view.shape == original.shape
                np.testing.assert_array_equal(view, original)
                assert not view.flags.writeable
            close()
        finally:
            ref.release()
        assert attach_fails(ref.block_name)

    def test_release_is_idempotent(self):
        ref = pack_arrays({"x": np.arange(4.0)})
        ref.release()
        ref.release()
        assert attach_fails(ref.block_name)


def dataset_from_matrix(medians, counts):
    from repro.atlas import ProbeMeta

    dataset = LastMileDataset(grid=GRID)
    for row in range(medians.shape[0]):
        prb_id = row + 1
        dataset.add(
            ProbeBinSeries(
                prb_id=prb_id, median_rtt_ms=medians[row],
                traceroute_counts=counts[row],
            ),
            meta=ProbeMeta(
                prb_id=prb_id, asn=100 + row % 3, is_anchor=False,
                public_address="20.0.0.1",
            ),
        )
    return dataset


class TestDatasetRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        num_probes=st.integers(min_value=0, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_lossless(self, num_probes, seed):
        rng = np.random.default_rng(seed)
        medians = rng.normal(3.0, 1.0, (num_probes, GRID.num_bins))
        medians[rng.random(medians.shape) < 0.4] = np.nan
        counts = rng.integers(0, 30, medians.shape).astype(np.int64)
        dataset = dataset_from_matrix(medians, counts)

        packed = pack_dataset(dataset, use_shm=True)
        try:
            assert packed.block is not None
            rebuilt, close = unpack_dataset(packed)
            assert sorted(rebuilt.series) == sorted(dataset.series)
            assert rebuilt.probe_meta == dataset.probe_meta
            for prb_id, series in dataset.series.items():
                twin = rebuilt.series[prb_id]
                np.testing.assert_array_equal(
                    twin.median_rtt_ms, series.median_rtt_ms
                )
                np.testing.assert_array_equal(
                    twin.traceroute_counts, series.traceroute_counts
                )
            close()
        finally:
            packed.release()
        assert attach_fails(packed.block.block_name)

    def test_zero_probe_dataset(self):
        dataset = LastMileDataset(grid=GRID)
        packed = pack_dataset(dataset, use_shm=True)
        try:
            rebuilt, close = unpack_dataset(packed)
            assert len(rebuilt) == 0
            close()
        finally:
            packed.release()

    def test_meta_only_probe_survives(self):
        """A probe with metadata but no series (the missing-series
        drop case) must survive the framing."""
        from repro.atlas import ProbeMeta

        dataset = LastMileDataset(grid=GRID)
        dataset.probe_meta[99] = ProbeMeta(
            prb_id=99, asn=100, is_anchor=False,
            public_address="20.0.0.1",
        )
        packed = pack_dataset(dataset, use_shm=True)
        try:
            rebuilt, close = unpack_dataset(packed)
            assert 99 in rebuilt.probe_meta
            assert 99 not in rebuilt.series
            close()
        finally:
            packed.release()

    def test_pickle_fallback_reuses_dataset(self):
        dataset = synthetic_dataset(num_ases=2, seed=1)
        packed = pack_dataset(dataset, use_shm=False)
        assert packed.block is None
        rebuilt, close = unpack_dataset(packed)
        assert rebuilt is dataset
        close()
        packed.release()  # no-op, must not raise

    def test_env_knob_disables_shm(self, monkeypatch):
        monkeypatch.setenv(SHM_ENV, "0")
        assert not shm_enabled()
        packed = pack_dataset(synthetic_dataset(num_ases=1, seed=0))
        assert packed.block is None
        monkeypatch.setenv(SHM_ENV, "1")
        assert shm_enabled()


class TestSignalsRoundTrip:
    def test_lossless(self):
        rng = np.random.default_rng(4)
        signals = {}
        for asn in (300, 301):
            delay = rng.normal(1.0, 0.5, GRID.num_bins)
            delay[rng.random(GRID.num_bins) < 0.2] = np.nan
            signals[asn] = AggregatedSignal(
                grid=GRID, delay_ms=delay,
                probe_count=int(rng.integers(1, 9)),
                contributing=rng.integers(
                    0, 5, GRID.num_bins
                ).astype(np.int64),
            )
        packed = pack_signals(signals, use_shm=True)
        got = unpack_signals(packed, GRID)
        packed.release()
        assert set(got) == set(signals)
        for asn, signal in signals.items():
            np.testing.assert_array_equal(
                got[asn].delay_ms, signal.delay_ms
            )
            np.testing.assert_array_equal(
                got[asn].contributing, signal.contributing
            )
            assert got[asn].probe_count == signal.probe_count
            # Copies, not views: usable after the block is gone.
            assert got[asn].delay_ms.flags.owndata
        assert attach_fails(packed.block.block_name)

    def test_empty_signals_skip_block(self):
        assert pack_signals({}, use_shm=True) is None
        assert pack_signals({}, use_shm=False) is None


def canonical(result):
    return json.dumps(survey_to_dict(result), sort_keys=True)


class TestShardedEquivalence:
    @pytest.mark.parametrize("kernels", ["reference", "vector"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_and_backends_identical(self, workers, kernels):
        dataset = synthetic_dataset(num_ases=6, seed=8)
        serial = classify_dataset_sharded(
            dataset, PERIOD, workers=1, kernels="reference",
        )
        sharded = classify_dataset_sharded(
            dataset, PERIOD, workers=workers, kernels=kernels,
        )
        assert canonical(sharded) == canonical(serial)

    @pytest.mark.parametrize("shm", ["1", "0"])
    def test_shm_vs_pickle_identical(self, shm, monkeypatch):
        dataset = degenerate_dataset()
        reference = classify_dataset_sharded(
            dataset, PERIOD, workers=1, kernels="reference",
        )
        monkeypatch.setenv(SHM_ENV, shm)
        sharded = classify_dataset_sharded(
            dataset, PERIOD, workers=3, kernels="vector",
        )
        assert canonical(sharded) == canonical(reference)

    def test_keep_signals_through_shm(self):
        dataset = synthetic_dataset(num_ases=4, seed=2)
        serial = classify_dataset_sharded(
            dataset, PERIOD, workers=1, kernels="reference",
            keep_signals=True,
        )
        sharded = classify_dataset_sharded(
            dataset, PERIOD, workers=2, kernels="vector",
            keep_signals=True,
        )
        assert set(sharded.signals) == set(serial.signals)
        for asn, signal in serial.signals.items():
            np.testing.assert_array_equal(
                sharded.signals[asn].delay_ms, signal.delay_ms
            )
            np.testing.assert_array_equal(
                sharded.signals[asn].contributing,
                signal.contributing,
            )


class TestUnlinkDiscipline:
    def test_blocks_unlinked_when_worker_raises(self, monkeypatch):
        """Every parent-created block must be gone after a run whose
        shard workers all blew up."""
        created = []
        real_pack = transport.pack_dataset

        def spying_pack(dataset, use_shm=None):
            packed = real_pack(dataset, use_shm=use_shm)
            if packed.block is not None:
                created.append(packed.block.block_name)
            return packed

        def exploding_shard(task):
            raise RuntimeError("worker crashed mid-shard")

        monkeypatch.setattr(
            executor_module, "pack_dataset", spying_pack
        )
        monkeypatch.setattr(
            executor_module, "run_dataset_shard", exploding_shard
        )
        # Force the in-process path so the monkeypatched worker is
        # actually the one that runs (a pool would re-import the
        # original by reference).
        def no_pool(*args, **kwargs):
            raise OSError("pools disabled for this test")

        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", no_pool
        )

        dataset = synthetic_dataset(num_ases=4, seed=5)
        result = classify_dataset_sharded(
            dataset, PERIOD, workers=2, kernels="vector",
        )
        assert created, "expected shared-memory blocks to be created"
        assert result.failures and not result.reports
        for failure in result.failures.values():
            assert failure.error == "ShardExecutionError"
        for name in created:
            assert attach_fails(name), f"leaked shm block {name}"

    def test_blocks_unlinked_on_success(self, monkeypatch):
        created = []
        real_pack = transport.pack_dataset

        def spying_pack(dataset, use_shm=None):
            packed = real_pack(dataset, use_shm=use_shm)
            if packed.block is not None:
                created.append(packed.block.block_name)
            return packed

        monkeypatch.setattr(
            executor_module, "pack_dataset", spying_pack
        )
        dataset = synthetic_dataset(num_ases=4, seed=5)
        result = classify_dataset_sharded(
            dataset, PERIOD, workers=2, kernels="vector",
        )
        assert created
        assert result.reports and not result.failures
        for name in created:
            assert attach_fails(name), f"leaked shm block {name}"

    def test_object_dtype_rejected_before_any_block(self):
        with pytest.raises(TypeError, match="object dtype"):
            pack_arrays({"good": np.arange(4.0), "bad": object()})

    def test_pack_failure_unlinks_partial_block(self, monkeypatch):
        """If writing into a fresh block raises, the block must not
        leak."""
        from multiprocessing import shared_memory

        names = []
        real_shm = shared_memory.SharedMemory

        class UndersizedShm(real_shm):
            """Allocates one byte no matter what was asked for, so
            the packer's writes blow up mid-block."""

            def __init__(self, *args, **kwargs):
                if kwargs.get("create"):
                    kwargs["size"] = 1
                super().__init__(*args, **kwargs)
                if kwargs.get("create"):
                    names.append(self.name)

        monkeypatch.setattr(
            "multiprocessing.shared_memory.SharedMemory",
            UndersizedShm,
        )
        with pytest.raises(Exception):
            pack_arrays({"x": np.arange(64.0)})
        assert names, "expected a block to be created"
        for name in names:
            assert attach_fails(name)
