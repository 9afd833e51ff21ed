"""Tests for the longitudinal survey archive."""

import datetime as dt
import json

import pytest

from repro.core import SurveySuite
from repro.io import survey_to_dict
from repro.store import (
    MAGIC,
    ArchiveCorruptionError,
    ASNotFoundError,
    PeriodExistsError,
    PeriodNotFoundError,
    SchemaVersionError,
    SurveyArchive,
    canonical_json,
    payload_checksum,
)
from repro.store.archive import _build_index
from repro.store.manifest import SLOT_NAMES, ManifestSlots, encode_record


@pytest.fixture()
def archive(tmp_path, survey_june, survey_september, ranking):
    archive = SurveyArchive(tmp_path / "arc")
    archive.ingest(survey_june, ranking=ranking)
    archive.ingest(survey_september, ranking=ranking)
    return archive


class TestIngest:
    def test_commit_and_enumerate(self, archive):
        assert len(archive) == 2
        assert archive.periods() == ["2019-06", "2019-09"]
        assert archive.latest() == "2019-09"
        assert "2019-06" in archive

    def test_append_only(self, archive, survey_june):
        with pytest.raises(PeriodExistsError):
            archive.ingest(survey_june)

    def test_ingest_accepts_payload_dict(self, tmp_path, survey_june):
        archive = SurveyArchive(tmp_path / "arc2")
        name = archive.ingest(survey_to_dict(survey_june))
        assert name == "2019-06"
        assert len(archive) == 1

    def test_ingest_suite(self, tmp_path, survey_june,
                          survey_september):
        suite = SurveySuite()
        suite.add(survey_june)
        suite.add(survey_september)
        archive = SurveyArchive(tmp_path / "arc3")
        names = suite.ingest_into(archive)
        assert names == ["2019-06", "2019-09"]

    def test_manifest_records_meta(self, archive):
        meta = archive.period_meta("2019-06")
        assert meta["repr"] == "segment"
        assert meta["ases"] == 3
        assert meta["start"].startswith("2019-06-01")

    def test_empty_archive_latest_raises(self, tmp_path):
        with pytest.raises(PeriodNotFoundError):
            SurveyArchive(tmp_path / "empty").latest()


class TestRoundtrip:
    def test_lossless_json_repr(self, archive, survey_june):
        stored = archive.get_period("2019-06")
        assert canonical_json(stored) == canonical_json(
            survey_to_dict(survey_june)
        )

    def test_lossless_after_reopen(self, archive, survey_june):
        archive.close()
        reopened = SurveyArchive(archive.root)
        assert canonical_json(
            reopened.get_period("2019-06")
        ) == canonical_json(survey_to_dict(survey_june))

    def test_lossless_after_compaction(self, archive, survey_june,
                                       survey_september):
        """``compact()`` is a kept no-op: the segments it once
        produced are what ingest writes, and reads stay lossless."""
        assert archive.compact() == []
        for name, original in (
            ("2019-06", survey_june), ("2019-09", survey_september),
        ):
            archive._payloads.pop(name, None)
            assert canonical_json(
                archive.get_period(name)
            ) == canonical_json(survey_to_dict(original))


class TestPointLookup:
    def test_get_latest(self, archive):
        entry = archive.get(100)
        assert entry["severity"] == "mild"

    def test_get_named_period(self, archive):
        entry = archive.get(100, "2019-06")
        assert entry["severity"] == "severe"

    def test_unknown_asn(self, archive):
        with pytest.raises(ASNotFoundError):
            archive.get(77777, "2019-06")

    def test_unknown_period(self, archive):
        with pytest.raises(PeriodNotFoundError):
            archive.get(100, "2024-01")

    def test_segment_point_lookup(self, archive):
        archive._payloads.clear()
        entry = archive.get(400, "2019-09")
        assert entry["severity"] == "severe"
        assert archive.stats.segment_lookups >= 1


class TestSecondaryIndexes:
    def test_severity_index(self, archive):
        assert archive.severe_asns("2019-06") == [100]
        assert archive.asns_with_severity("2019-09", "mild") == [100]
        assert archive.asns_with_severity("2019-09", "severe") == [400]

    def test_reported_asns(self, archive):
        assert archive.reported_asns("2019-06") == [100, 200]

    def test_country_index(self, archive):
        assert archive.asns_in_country("2019-06", "jp") == [100]
        assert archive.asns_in_country("2019-09", "JP") == [100, 400]
        assert archive.countries("2019-06") == ["DE", "JP", "US"]

    def test_country_index_empty_without_ranking(
        self, tmp_path, survey_june
    ):
        archive = SurveyArchive(tmp_path / "noranking")
        archive.ingest(survey_june)
        assert archive.asns_in_country("2019-06", "JP") == []
        assert archive.countries("2019-06") == []

    def test_asns(self, archive):
        assert archive.asns("2019-06") == [100, 200, 300]

    def test_country_index_after_reopen_matches_oracle(
        self, archive, survey_june, survey_september, ranking
    ):
        """A reopened archive answers country queries from the
        segments' footers exactly as ``_build_index`` would."""
        archive.close()
        reopened = SurveyArchive(archive.root)
        for result in (survey_june, survey_september):
            want = _build_index(survey_to_dict(result), ranking)["country"]
            name = result.period.name
            assert reopened.countries(name) == sorted(want)
            for country in ("JP", "us", "DE", "FR"):
                assert reopened.asns_in_country(name, country) == (
                    want.get(country.upper(), [])
                )
            assert reopened.stats.segment_lookups > 0


class TestLongitudinal:
    def test_history_marks_unmonitored(self, archive):
        history = archive.history(200)
        assert [e["period"] for e in history] == [
            "2019-06", "2019-09",
        ]
        assert history[0]["monitored"] is True
        assert history[0]["severity"] == "low"
        assert history[1]["monitored"] is False
        assert history[1]["severity"] is None

    def test_scan_range(self, archive):
        names = [name for name, _ in archive.scan("2019-07-01")]
        assert names == ["2019-09"]
        names = [name for name, _ in archive.scan(end="2019-07-01")]
        assert names == ["2019-06"]

    def test_deltas(self, archive):
        delta = archive.deltas_between("2019-06", "2019-09")
        assert delta["new"] == [400]
        assert delta["gone"] == [200]
        assert delta["persisting"] == [100]
        assert 0.0 < delta["jaccard"] < 1.0

    def test_churn_deltas(self, archive):
        deltas = archive.churn_deltas()
        assert len(deltas) == 1
        assert deltas[0]["before"] == "2019-06"

    def test_to_suite(self, archive):
        suite = archive.to_suite()
        assert suite.period_names() == ["2019-06", "2019-09"]
        assert suite.results["2019-06"].reported_asns() == [100, 200]


def data_files(root):
    """Archive-relative paths of every file beside the slots."""
    return sorted(
        str(p.relative_to(root)) for p in root.rglob("*")
        if p.is_file() and p.name not in SLOT_NAMES
    )


class TestOneForm:
    """A finalized period is its packed segment, nothing else."""

    def test_ingest_writes_segment_only(self, archive):
        assert data_files(archive.root) == [
            "segments/2019-06.seg", "segments/2019-09.seg",
        ]

    def test_finalize_writes_segment_only(self, tmp_path, survey_june,
                                          ranking):
        archive = SurveyArchive(tmp_path / "live")
        writer = archive.begin_live_period("2019-06")
        writer.commit_partial(survey_june, ranking=ranking)
        assert data_files(archive.root) == []
        writer.finalize(survey_june, ranking=ranking)
        assert data_files(archive.root) == ["segments/2019-06.seg"]
        assert archive.period_meta("2019-06")["repr"] == "segment"

    def test_schema_1_archive_refused(self, archive):
        archive.close()
        slots = ManifestSlots(archive.root)
        manifest = slots.load()
        manifest["schema"] = 1
        slots.path(slots.current).write_bytes(
            encode_record(slots.seq, manifest)
        )
        with pytest.raises(SchemaVersionError):
            SurveyArchive(archive.root)


class TestCompaction:
    def test_recompaction_is_noop(self, archive):
        assert archive.compact() == []
        assert archive.compact() == []

    def test_survives_reopen(self, archive, survey_june):
        archive.close()
        reopened = SurveyArchive(archive.root)
        assert reopened.period_meta("2019-06")["repr"] == "segment"
        assert canonical_json(
            reopened.get_period("2019-06")
        ) == canonical_json(survey_to_dict(survey_june))


class TestCorruption:
    def _corrupt(self, path, offset=None):
        data = bytearray(path.read_bytes())
        data[len(data) // 2 if offset is None else offset] ^= 0xFF
        path.write_bytes(bytes(data))

    def test_corrupt_period_json_quarantined(self, archive):
        """A flipped byte in a report blob (canonical JSON inside the
        segment) fails the read, once, and quarantines the segment."""
        self._corrupt(archive.segment_path("2019-06"), len(MAGIC) + 2)
        archive._payloads.clear()
        with pytest.raises(ArchiveCorruptionError, match="AS100"):
            archive.get_period("2019-06")
        assert archive.stats.corrupt == 1
        quarantined = (
            archive.root / "quarantine" / "segments" / "2019-06.seg"
        )
        assert quarantined.exists()
        assert not archive.segment_path("2019-06").exists()

    def test_torn_segment_quarantined(self, archive):
        data = archive.segment_path("2019-09").read_bytes()
        archive.segment_path("2019-09").write_bytes(data[:len(data) // 2])
        archive._payloads.clear()
        with pytest.raises(ArchiveCorruptionError, match="2019-09.seg"):
            archive.get(400, "2019-09")
        assert archive.stats.corrupt == 1
        assert (
            archive.root / "quarantine" / "segments" / "2019-09.seg"
        ).exists()

    def test_corrupt_segment_quarantined(self, archive):
        archive.close()
        archive._payloads.clear()
        self._corrupt(archive.segment_path("2019-09"))
        with pytest.raises(ArchiveCorruptionError):
            archive.get(400, "2019-09")
        assert (
            archive.root / "quarantine" / "segments" / "2019-09.seg"
        ).exists()

    def test_verify_reports_without_raising(self, archive):
        self._corrupt(archive.segment_path("2019-06"))
        outcome = archive.verify()
        assert outcome["2019-09"] == "ok"
        assert outcome["2019-06"].startswith("corrupt:")

    def test_missing_committed_artifact(self, archive):
        archive.segment_path("2019-06").unlink()
        archive._payloads.clear()
        with pytest.raises(ArchiveCorruptionError, match="missing"):
            archive.get_period("2019-06")
        assert archive.stats.corrupt == 0

    def test_schema_version_gate(self, archive):
        archive.close()
        slots = ManifestSlots(archive.root)
        manifest = slots.load()
        manifest["schema"] = 99
        slots.path(slots.current).write_bytes(
            encode_record(slots.seq, manifest)
        )
        with pytest.raises(SchemaVersionError):
            SurveyArchive(archive.root)

    def test_garbage_manifest(self, archive):
        """No valid slot is the one manifest corruption; slots are
        never quarantined."""
        archive.close()
        for name in SLOT_NAMES:
            (archive.root / name).write_text("{nope")
        with pytest.raises(ArchiveCorruptionError, match="no valid"):
            SurveyArchive(archive.root)
        assert not (archive.root / "quarantine").exists()


class TestChecksums:
    def test_payload_checksum_is_canonical(self, survey_june):
        payload = survey_to_dict(survey_june)
        shuffled = json.loads(json.dumps(payload))
        assert payload_checksum(payload) == payload_checksum(shuffled)


class TestRefresh:
    """A long-lived handle catches up with another handle's commits."""

    def test_reader_lists_period_after_refresh(
        self, tmp_path, survey_june, survey_september, ranking
    ):
        reader = SurveyArchive(tmp_path / "arc")
        writer = SurveyArchive(tmp_path / "arc")
        assert reader.refresh() is False
        writer.ingest(survey_june, ranking=ranking)
        assert reader.periods() == []
        generation = reader.generation
        assert reader.refresh() is True
        assert reader.generation == generation + 1
        assert reader.periods() == ["2019-06"]
        assert canonical_json(reader.get_period("2019-06")) == (
            canonical_json(survey_to_dict(survey_june))
        )
        assert reader.refresh() is False
        # Caught up, the reader may commit again.
        reader.ingest(survey_september, ranking=ranking)
        assert writer.refresh() is True
        assert writer.periods() == ["2019-06", "2019-09"]

    def test_live_revision_replaces_warm_cache(self, tmp_path, ranking):
        from repro.core import Severity

        from .conftest import make_survey

        def partial(severity):
            return make_survey(
                "2019-12", dt.datetime(2019, 12, 1), {100: severity},
            )

        reader = SurveyArchive(tmp_path / "arc")
        live = SurveyArchive(tmp_path / "arc").begin_live_period("2019-12")
        live.commit_partial(partial(Severity.LOW), ranking=ranking)
        assert reader.refresh() is True
        assert reader.get(100, "2019-12")["severity"] == "low"
        assert reader.severe_asns("2019-12") == []

        live.commit_partial(partial(Severity.SEVERE), ranking=ranking)
        assert reader.get(100, "2019-12")["severity"] == "low"
        assert reader.refresh() is True
        assert reader.get(100, "2019-12")["severity"] == "severe"
        assert reader.severe_asns("2019-12") == [100]
        assert reader.period_meta("2019-12")["revision"] == 2
