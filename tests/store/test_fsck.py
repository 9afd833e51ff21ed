"""fsck: detection and repair of every corruption class it audits."""

import datetime as dt

import pytest

from repro.core import Severity
from repro.faults import FsFaultKey, flip_bit, tear_file
from repro.obs import observed
from repro.quality import DropReason
from repro.store import (
    SCHEMA_VERSION,
    EXIT_CLEAN,
    EXIT_ERRORS,
    EXIT_REPAIRED,
    EXIT_UNUSABLE,
    ArchiveCorruptionError,
    SurveyArchive,
    read_manifest,
    run_fsck,
)
from repro.store.manifest import SLOT_NAMES, ManifestSlots, encode_record

from tests.store.conftest import make_ranking, make_survey


@pytest.fixture()
def stocked(tmp_path):
    """Two committed periods, each its packed segment."""
    archive = SurveyArchive(tmp_path / "arc")
    ranking = make_ranking()
    archive.ingest(
        make_survey("2019-06", dt.datetime(2019, 6, 1), {
            100: Severity.SEVERE, 200: Severity.LOW,
        }),
        ranking=ranking,
    )
    archive.ingest(
        make_survey("2019-09", dt.datetime(2019, 9, 1), {
            100: Severity.MILD, 400: Severity.SEVERE,
        }),
        ranking=ranking,
    )
    archive.close()
    return archive


@pytest.fixture()
def reported(stocked):
    """``stocked`` with an anomaly report attached to 2019-06."""
    from tests.store.test_anomaly_artifacts import make_anomaly_payload

    archive = SurveyArchive(stocked.root)
    archive.ingest_anomalies("2019-06", make_anomaly_payload("2019-06"))
    archive.close()
    return archive


class TestCleanArchive:
    def test_clean_exit_zero(self, stocked):
        report = run_fsck(stocked.root)
        assert report.clean
        assert report.exit_code == EXIT_CLEAN
        assert report.periods_checked == 2
        assert report.findings == []

    def test_empty_archive_clean(self, tmp_path):
        SurveyArchive(tmp_path / "empty")
        report = run_fsck(tmp_path / "empty")
        assert report.exit_code == EXIT_CLEAN


def flip_keyed(root, relative, seed=11):
    """Flip one content-keyed bit of ``root / relative``.

    Keyed on the archive-relative path, not the absolute one, so the
    flip lands on the same bit whatever directory the archive sits in
    (pytest numbers its base directories per run).
    """
    target = root / relative
    rng = FsFaultKey(seed).rng(relative)
    return flip_bit(
        target,
        offset=int(rng.integers(target.stat().st_size)),
        bit=int(rng.integers(8)),
    )


def schema_bytes(path):
    """Offsets of a wrapper's ``schema`` key name and its value."""
    raw = path.read_bytes()
    key = raw.index(b'"schema"') + 1
    value = raw.index(str(SCHEMA_VERSION).encode(), key + len("schema"))
    return list(range(key, key + len("schema"))) + [value]


SEGMENT = "segments/2019-06.seg"


class TestJsonPayloadCorruption:
    """A bit flipped anywhere in a period's payload — the canonical-
    JSON report blobs, hot columns and footer packed in its segment —
    is found; a repair quarantines the period."""

    def test_bit_flip_detected_not_repaired(self, stocked):
        flip_keyed(stocked.root, SEGMENT)
        report = run_fsck(stocked.root)
        assert not report.clean
        assert report.exit_code == EXIT_ERRORS
        assert {f.kind for f in report.errors} == {"segment"}
        # Read-only: nothing moved, nothing deleted.
        assert (stocked.root / SEGMENT).exists()
        assert not (stocked.root / "quarantine").exists()

    def test_bit_flip_repair_quarantines_period(self, stocked):
        flip_keyed(stocked.root, SEGMENT)
        report = run_fsck(stocked.root, repair=True)
        assert report.exit_code == EXIT_REPAIRED
        assert not (stocked.root / SEGMENT).exists()
        assert (stocked.root / "quarantine" / SEGMENT).exists()
        manifest = read_manifest(stocked.root)
        assert "2019-06" not in manifest["periods"]
        assert "2019-09" in manifest["periods"]
        # Repaired archive is clean on the next pass.
        assert run_fsck(stocked.root).exit_code == EXIT_CLEAN

    def test_quarantine_keeps_every_file_as_evidence(self, reported):
        """A quarantined period's files share a file name; each keeps
        its archive-relative path under quarantine/, byte for byte,
        and nothing already quarantined is overwritten."""
        stocked = reported
        earlier = stocked.root / "quarantine" / SEGMENT
        earlier.parent.mkdir(parents=True)
        earlier.write_bytes(b"evidence of an earlier repair")
        flip_keyed(stocked.root, SEGMENT)
        relatives = [SEGMENT, "anomalies/2019-06.json"]
        before = {
            relative: (stocked.root / relative).read_bytes()
            for relative in relatives
        }
        report = run_fsck(stocked.root, repair=True)
        assert report.exit_code == EXIT_REPAIRED
        (finding,) = report.errors
        assert finding.action == (
            "period quarantined (" + ", ".join(relatives) + ")"
        )
        quarantined = stocked.root / "quarantine"
        assert earlier.read_bytes() == b"evidence of an earlier repair"
        copy = quarantined / "segments" / "2019-06.seg.1"
        assert copy.read_bytes() == before[SEGMENT]
        for relative in relatives[1:]:
            assert (quarantined / relative).read_bytes() == before[relative]

    def test_repair_books_quality_drop(self, stocked):
        flip_keyed(stocked.root, SEGMENT)
        from repro.quality import DataQualityReport

        quality = DataQualityReport()
        run_fsck(stocked.root, repair=True, quality=quality)
        dropped = quality.stages["store-fsck"].dropped
        assert dropped[DropReason.CORRUPT_ARTIFACT] >= 1


class TestWrapperSchema:
    """Every wrapped read (an anomaly report) requires ``schema`` to be
    the archive's: a bit flipped anywhere in the key name or its value
    is flagged."""

    @pytest.mark.parametrize("relative", ["anomalies/2019-06.json"])
    @pytest.mark.parametrize("byte", range(7))
    @pytest.mark.parametrize("bit", range(8))
    def test_schema_flip_flagged(self, reported, relative, byte, bit):
        path = reported.root / relative
        flip_bit(path, offset=schema_bytes(path)[byte], bit=bit)
        report = run_fsck(reported.root)
        assert report.exit_code == EXIT_ERRORS
        assert [f.path for f in report.errors] == [str(path)]

    def test_schema_value_checked(self, reported):
        path = reported.root / "anomalies" / "2019-06.json"
        path.write_bytes(path.read_bytes().replace(
            f'"schema": {SCHEMA_VERSION}'.encode(), b'"schema": 3', 1
        ))
        report = run_fsck(reported.root)
        assert [f.detail for f in report.errors] == [
            f"wrapper schema 3 is not the archive's {SCHEMA_VERSION}"
        ]
        # The serving path refuses (and quarantines) it too.
        archive = SurveyArchive(reported.root)
        with pytest.raises(ArchiveCorruptionError, match="schema 3"):
            archive.get_anomalies("2019-06")
        assert not path.exists()


class TestSegmentCorruption:
    def test_torn_segment_detected(self, stocked):
        tear_file(
            stocked.root / "segments" / "2019-09.seg",
            key=FsFaultKey(5),
        )
        report = run_fsck(stocked.root)
        assert report.exit_code == EXIT_ERRORS
        assert any(f.kind == "segment" for f in report.errors)

    def test_torn_segment_repair(self, stocked):
        tear_file(
            stocked.root / "segments" / "2019-09.seg",
            key=FsFaultKey(5),
        )
        report = run_fsck(stocked.root, repair=True)
        assert report.exit_code == EXIT_REPAIRED
        assert run_fsck(stocked.root).exit_code == EXIT_CLEAN
        manifest = read_manifest(stocked.root)
        assert "2019-09" not in manifest["periods"]


LIVE = "2019-12"


def tamper_live_index(root, change):
    """Commit a live period, then rewrite its record's index with
    ``change`` under a valid slot digest (a writer bug, not rot)."""
    writer = SurveyArchive(root).begin_live_period(LIVE)
    writer.commit_partial(
        make_survey(LIVE, dt.datetime(2019, 12, 1), {
            100: Severity.SEVERE, 200: Severity.LOW,
        }),
        ranking=make_ranking(),
    )
    slots = ManifestSlots(root)
    manifest = slots.load()
    change(manifest["live"][LIVE]["index"])
    with slots.writing():
        slots.commit(manifest)


class TestColumnsCorruption:
    def test_columns_flip_detected_and_repaired(self, stocked):
        """The hot columns sit outside the report blobs and footer;
        fsck verifies their checksum too."""
        from repro.store.segments import SegmentReader

        path = stocked.root / SEGMENT
        with SegmentReader(path) as reader:
            offset = int(reader._footer["columns"]["offset"])
        flip_bit(path, offset=offset, bit=0)
        report = run_fsck(stocked.root)
        assert [(f.kind, f.detail) for f in report.errors] == [
            ("segment", "columns section fails checksum")
        ]
        assert run_fsck(stocked.root, repair=True).exit_code == (
            EXIT_REPAIRED
        )
        assert (stocked.root / "quarantine" / SEGMENT).exists()


class TestIndexProblems:
    """A live period's secondary index rides in its manifest record;
    fsck cross-checks it against the payload and rebuilds it."""

    def test_missing_index_rebuilt(self, stocked):
        tamper_live_index(stocked.root, dict.clear)
        report = run_fsck(stocked.root, repair=True)
        assert report.exit_code == EXIT_REPAIRED
        index = read_manifest(stocked.root)["live"][LIVE]["index"]
        assert index["severity"] == {"low": [200], "severe": [100]}
        # The period itself survives a rebuildable index problem.
        assert LIVE in read_manifest(stocked.root)["periods"]
        assert run_fsck(stocked.root).exit_code == EXIT_CLEAN

    def test_rebuilt_index_notes_empty_country(self, stocked):
        tamper_live_index(stocked.root, dict.clear)
        report = run_fsck(stocked.root, repair=True)
        (finding,) = [f for f in report.findings if f.kind == "index"]
        assert "country index empty" in finding.action
        index = read_manifest(stocked.root)["live"][LIVE]["index"]
        assert index["country"] == {}

    def test_severity_index_cross_reference(self, stocked):
        def plant(index):
            index["severity"]["severe"] = [999]

        tamper_live_index(stocked.root, plant)
        report = run_fsck(stocked.root)
        assert any(
            "severity index disagrees" in f.detail
            for f in report.errors
        )


class TestManifestProblems:
    def test_garbage_manifest_unusable(self, stocked):
        """No valid slot: unusable, and even a repair run leaves the
        slots where they are (a slot is never quarantined)."""
        for name in SLOT_NAMES:
            (stocked.root / name).write_text("not json{{{")
        report = run_fsck(stocked.root, repair=True)
        assert report.exit_code == EXIT_UNUSABLE
        assert not report.manifest_usable
        assert [f.detail for f in report.findings] == [
            "no valid manifest slot"
        ]
        assert not (stocked.root / "quarantine").exists()

    def test_missing_manifest_with_data_unusable(self, stocked):
        for name in SLOT_NAMES:
            (stocked.root / name).unlink()
        report = run_fsck(stocked.root)
        assert report.exit_code == EXIT_UNUSABLE
        with pytest.raises(ArchiveCorruptionError, match="data present"):
            SurveyArchive(stocked.root)

    def test_schema_mismatch_unusable(self, stocked):
        slots = ManifestSlots(stocked.root)
        manifest = slots.load()
        manifest["schema"] = 999
        slots.path(slots.current).write_bytes(
            encode_record(slots.seq, manifest)
        )
        assert run_fsck(stocked.root).exit_code == EXIT_UNUSABLE


class TestLeftovers:
    def test_orphan_warned_and_quarantined(self, stocked):
        orphan = stocked.root / "segments" / "2031-01.seg"
        orphan.write_text("{}")
        report = run_fsck(stocked.root)
        assert report.exit_code == EXIT_CLEAN  # warnings stay clean
        assert any(f.kind == "orphan" for f in report.findings)
        report = run_fsck(stocked.root, repair=True)
        assert not orphan.exists()
        assert (
            stocked.root / "quarantine" / "segments" / "2031-01.seg"
        ).exists()

    def test_stale_tmp_swept_on_repair(self, stocked):
        stale = stocked.root / "segments" / ".x.seg.12345.tmp"
        stale.write_text("partial")
        report = run_fsck(stocked.root)
        assert any(f.kind == "stale-tmp" for f in report.findings)
        assert stale.exists()
        run_fsck(stocked.root, repair=True)
        assert not stale.exists()


class TestArchiveFsckMethod:
    def test_archive_keeps_serving_after_repair(self, stocked):
        archive = SurveyArchive(stocked.root)
        flip_keyed(stocked.root, SEGMENT)
        generation = archive.generation
        report = archive.fsck(repair=True)
        assert report.repair_count >= 1
        # The in-memory view reloaded: bad period gone, good one live.
        assert "2019-06" not in archive
        assert archive.get(100, "2019-09")["severity"] == "mild"
        assert archive.generation > generation

    def test_fsck_counters(self, stocked):
        flip_keyed(stocked.root, SEGMENT)
        with observed() as obs:
            run_fsck(stocked.root)
        runs = obs.metrics.counter(
            "store_fsck_runs_total", "", ("mode",)
        )
        assert runs.value(mode="check") == 1
        findings = obs.metrics.counter(
            "store_fsck_findings_total", "", ("kind",)
        )
        assert findings.value(kind="segment") >= 1
