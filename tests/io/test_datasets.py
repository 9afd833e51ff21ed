"""Tests for dataset persistence."""

import datetime as dt
import shutil
import zipfile

import numpy as np
import pytest

from repro.atlas import AtlasPlatform, ProbeVersion
from repro.core import LastMileDataset, ProbeBinSeries
from repro.io import (
    lastmile_files,
    load_lastmile,
    load_traceroutes,
    save_lastmile,
    save_traceroutes,
)
from repro.netbase import AccessTechnology, ASInfo, ASRole
from repro.timebase import MeasurementPeriod, TimeGrid
from repro.topology import ProvisioningPolicy, World

PERIOD = MeasurementPeriod("io-test", dt.datetime(2019, 9, 2), 1)


@pytest.fixture(scope="module")
def platform_and_probes():
    world = World(seed=31)
    isp = world.add_isp(
        ASInfo(
            64500, "IO", "JP", ASRole.EYEBALL,
            access_technologies=[AccessTechnology.FTTH_OWN],
        ),
        provisioning=ProvisioningPolicy(),
    )
    world.add_default_targets()
    world.finalize()
    platform = AtlasPlatform(world)
    platform.config.outage_rate_per_day = 0.0
    probes = platform.deploy_probes_on_isp(
        isp, 2, version=ProbeVersion.V3
    )
    return platform, probes


class TestTraceroutePersistence:
    def test_roundtrip(self, platform_and_probes, tmp_path):
        platform, probes = platform_and_probes
        dataset = platform.run_period(PERIOD, probes)
        path = tmp_path / "results.jsonl"
        rows = save_traceroutes(dataset, path)
        assert rows == len(dataset)

        restored = load_traceroutes(path)
        assert len(restored) == len(dataset)
        assert restored.probe_ids() == dataset.probe_ids()
        # A load puts each probe's results in time order; the results
        # themselves come back equal.
        dataset.sort_results()
        for prb in dataset.probe_ids():
            assert restored.for_probe(prb) == dataset.for_probe(prb)
        prb = dataset.probe_ids()[0]
        # Metadata sidecar restored too.
        assert restored.probe_meta[prb] == dataset.probe_meta[prb]

    def test_load_without_sidecar(self, platform_and_probes, tmp_path):
        platform, probes = platform_and_probes
        dataset = platform.run_period(PERIOD, probes)
        path = tmp_path / "bare.jsonl"
        save_traceroutes(dataset, path)
        (tmp_path / "bare.jsonl.meta.json").unlink()
        restored = load_traceroutes(path)
        assert len(restored) == len(dataset)
        assert restored.probe_meta == {}


def assert_same_bytes(original: ProbeBinSeries, loaded: ProbeBinSeries):
    """Equal dtypes and equal bytes, NaN payloads included."""
    for name in ("median_rtt_ms", "traceroute_counts"):
        want, got = getattr(original, name), getattr(loaded, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


class TestLastMilePersistence:
    def test_roundtrip(self, platform_and_probes, tmp_path):
        platform, probes = platform_and_probes
        dataset = platform.run_period_binned(PERIOD, probes)
        base = tmp_path / "lastmile"
        save_lastmile(dataset, base)
        restored = load_lastmile(base)

        assert restored.probe_ids() == dataset.probe_ids()
        assert restored.grid.num_bins == dataset.grid.num_bins
        assert restored.grid.period.name == PERIOD.name
        for prb_id in dataset.probe_ids():
            original = dataset.series[prb_id]
            loaded = restored.series[prb_id]
            assert_same_bytes(original, loaded)
            assert restored.probe_meta[prb_id] == (
                dataset.probe_meta[prb_id]
            )

    def test_empty_dataset(self, tmp_path):
        grid = TimeGrid(PERIOD)
        dataset = LastMileDataset(grid=grid)
        base = tmp_path / "empty"
        save_lastmile(dataset, base)
        restored = load_lastmile(base)
        assert len(restored) == 0
        assert restored.grid.num_bins == grid.num_bins

    def test_nan_preserved(self, tmp_path):
        grid = TimeGrid(PERIOD)
        medians = np.full(grid.num_bins, 5.0)
        medians[3] = np.nan
        dataset = LastMileDataset(grid=grid)
        dataset.add(ProbeBinSeries(
            prb_id=1, median_rtt_ms=medians,
            traceroute_counts=np.full(grid.num_bins, 24),
        ))
        base = tmp_path / "nan"
        save_lastmile(dataset, base)
        restored = load_lastmile(base)
        assert np.isnan(restored.series[1].median_rtt_ms[3])


class TestLenientLoading:
    """Corrupted corpora load with exact accounting."""

    def corrupted_file(self, platform_and_probes, tmp_path, seed=17):
        from repro.faults import (
            CorruptLines,
            DuplicateRecords,
            FaultLog,
            GarbageRTT,
            inject_lines,
            inject_records,
        )

        platform, probes = platform_and_probes
        dataset = platform.run_period(PERIOD, probes)
        path = tmp_path / "dirty.jsonl"
        save_traceroutes(dataset, path)
        records = [
            result.to_json()
            for prb_id in dataset.probe_ids()
            for result in dataset.for_probe(prb_id)
        ]
        log = FaultLog()
        out, _ = inject_records(
            records, [DuplicateRecords(0.05), GarbageRTT(0.01)],
            seed=seed, log=log,
        )
        import json as json_module

        lines, _ = inject_lines(
            [json_module.dumps(r) for r in out],
            [CorruptLines(0.03)], seed=seed + 1, log=log,
        )
        path.write_text("\n".join(lines) + "\n")
        return dataset, path, log

    def test_lenient_roundtrip_accounts_exactly(
        self, platform_and_probes, tmp_path
    ):
        from repro.quality import DropReason

        clean, path, log = self.corrupted_file(
            platform_and_probes, tmp_path
        )
        restored = load_traceroutes(path)
        quality = restored.quality
        assert quality is not None
        # Only lines the corruptor did not touch survive as records;
        # corrupt-lines may hit injected duplicates, so dropped
        # duplicates can undercount injected ones — never overcount.
        assert quality.dropped_count(DropReason.CORRUPT_LINE) == (
            log.count("corrupt-lines")
        )
        assert quality.dropped_count(DropReason.DUPLICATE_RECORD) <= (
            log.count("duplicates")
        )
        assert quality.degraded_count(DropReason.GARBAGE_RTT) <= (
            log.count("garbage-rtt")
        )
        # Conservation: every ingested line is kept or dropped.
        kept = sum(len(restored.for_probe(p))
                   for p in restored.probe_ids())
        assert quality.stage("io.load_traceroutes").ingested == (
            kept + quality.total_dropped
        )
        # Surviving records match the clean originals.
        for prb_id in restored.probe_ids():
            clean_by_key = {
                (r.msm_id, r.timestamp): r
                for r in clean.for_probe(prb_id)
            }
            for result in restored.for_probe(prb_id):
                original = clean_by_key[(result.msm_id, result.timestamp)]
                assert result.prb_id == original.prb_id
                assert len(result.hops) == len(original.hops)

    def test_lenient_on_clean_file_is_clean(
        self, platform_and_probes, tmp_path
    ):
        platform, probes = platform_and_probes
        dataset = platform.run_period(PERIOD, probes)
        path = tmp_path / "pristine.jsonl"
        save_traceroutes(dataset, path)
        restored = load_traceroutes(path)
        # Nothing dropped; the only allowed repair is the stream-order
        # normalization (the simulator interleaves measurements, so a
        # probe's stored stream may be legitimately non-monotonic).
        from repro.quality import DropReason

        assert restored.quality.total_dropped == 0
        assert restored.quality.total_degraded == (
            restored.quality.degraded_count(DropReason.OUT_OF_ORDER)
        )
        assert len(restored) == len(dataset)
        prb = dataset.probe_ids()[0]
        restored_stamps = [
            r.timestamp for r in restored.for_probe(prb)
        ]
        assert restored_stamps == sorted(restored_stamps)
        assert sorted(
            r.timestamp for r in dataset.for_probe(prb)
        ) == restored_stamps

    def test_saves_are_byte_identical(self, platform_and_probes,
                                      tmp_path):
        platform, probes = platform_and_probes
        dataset = platform.run_period_binned(PERIOD, probes)
        save_lastmile(dataset, tmp_path / "first")
        save_lastmile(dataset, tmp_path / "second")
        for first, second in zip(
            lastmile_files(tmp_path / "first"),
            lastmile_files(tmp_path / "second"),
        ):
            assert first.read_bytes() == second.read_bytes()

    def test_member_layout(self, platform_and_probes, tmp_path):
        """Medians are stored (they barely deflate and inflating them
        dominated a load); the integer arrays are deflated.  Names,
        order and the fixed timestamp are part of the format."""
        platform, probes = platform_and_probes
        save_lastmile(
            platform.run_period_binned(PERIOD, probes), tmp_path / "lm"
        )
        with zipfile.ZipFile(lastmile_files(tmp_path / "lm")[0]) as npz:
            members = npz.infolist()
        assert [(m.filename, m.compress_type) for m in members] == [
            ("probe_ids.npy", zipfile.ZIP_DEFLATED),
            ("medians.npy", zipfile.ZIP_STORED),
            ("counts.npy", zipfile.ZIP_DEFLATED),
        ]
        assert {m.date_time for m in members} == {(1980, 1, 1, 0, 0, 0)}

    def test_loads_savez_compressed_files(self, platform_and_probes,
                                          tmp_path):
        """A file written with ``np.savez_compressed`` (every member
        deflated, as saves did before the medians were stored) loads
        to the same bytes as the current layout."""
        platform, probes = platform_and_probes
        dataset = platform.run_period_binned(PERIOD, probes)
        new_npz, new_sidecar = lastmile_files(tmp_path / "new")
        old_npz, old_sidecar = lastmile_files(tmp_path / "old")
        save_lastmile(dataset, tmp_path / "new")
        with np.load(new_npz) as data:
            np.savez_compressed(old_npz, **{k: data[k] for k in data})
        shutil.copy(new_sidecar, old_sidecar)
        with zipfile.ZipFile(old_npz) as npz:
            assert {m.compress_type for m in npz.infolist()} == {
                zipfile.ZIP_DEFLATED
            }

        old, new = load_lastmile(old_npz), load_lastmile(new_npz)
        assert old.probe_ids() == new.probe_ids() == dataset.probe_ids()
        assert old.probe_meta == new.probe_meta
        for prb_id in dataset.probe_ids():
            assert_same_bytes(new.series[prb_id], old.series[prb_id])
            assert_same_bytes(dataset.series[prb_id], old.series[prb_id])
