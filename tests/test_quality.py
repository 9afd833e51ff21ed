"""Tests for the data-quality ledger."""

import pytest

from repro.netbase import (
    CorruptLineError,
    EmptyPopulationError,
    MalformedRecordError,
    MeasurementDataError,
    TransientFaultError,
)
from repro.quality import DataQualityReport, DropReason


class TestDataQualityReport:
    def test_clean_by_default(self):
        quality = DataQualityReport()
        assert quality.clean
        assert quality.total_ingested == 0
        assert "clean" not in str(quality)  # summary still renders
        assert quality.summary_lines()

    def test_ingest_drop_degrade_counts(self):
        quality = DataQualityReport()
        quality.ingest("load", n=10)
        quality.drop("load", DropReason.CORRUPT_LINE, n=2)
        quality.drop("load", DropReason.DUPLICATE_RECORD)
        quality.degrade("load", DropReason.GARBAGE_RTT, n=3)
        assert not quality.clean
        assert quality.total_ingested == 10
        assert quality.total_dropped == 3
        assert quality.total_degraded == 3
        assert quality.dropped_count(DropReason.CORRUPT_LINE) == 2
        assert quality.dropped_count(stage="load") == 3
        assert quality.degraded_count(DropReason.GARBAGE_RTT) == 3
        assert quality.dropped_count(DropReason.GARBAGE_RTT) == 0

    def test_quarantine_detail_capped(self):
        quality = DataQualityReport()
        for index in range(100):
            quality.drop(
                "s", DropReason.MALFORMED_RECORD, detail=f"rec {index}"
            )
        stage = quality.stage("s")
        assert quality.dropped_count(DropReason.MALFORMED_RECORD) == 100
        assert len(stage.quarantine) == stage.MAX_QUARANTINE

    def test_merge_accumulates(self):
        a = DataQualityReport()
        a.ingest("load", n=5)
        a.drop("load", DropReason.CORRUPT_LINE)
        b = DataQualityReport()
        b.ingest("load", n=3)
        b.drop("survey", DropReason.AS_FAILURE)
        a.merge(b)
        assert a.stage("load").ingested == 8
        assert a.total_dropped == 2
        assert a.dropped_count(stage="survey") == 1

    def test_rows_and_to_dict(self):
        quality = DataQualityReport()
        quality.ingest("load", n=4)
        quality.drop("load", DropReason.CORRUPT_LINE, n=2)
        quality.degrade("load", DropReason.OUT_OF_ORDER)
        rows = list(quality.rows())
        assert ("load", "dropped", "corrupt-line", 2) in rows
        assert ("load", "degraded", "out-of-order", 1) in rows
        data = quality.to_dict()
        assert data["load"]["ingested"] == 4
        assert data["load"]["dropped"]["corrupt-line"] == 2


class TestErrorTaxonomy:
    def test_reason_codes_attached(self):
        assert CorruptLineError("x").reason == DropReason.CORRUPT_LINE
        assert MalformedRecordError("x").reason == (
            DropReason.MALFORMED_RECORD
        )
        error = MalformedRecordError("x", reason=DropReason.OUT_OF_ORDER)
        assert error.reason == DropReason.OUT_OF_ORDER

    def test_message_carries_reason_and_detail(self):
        error = MalformedRecordError("hop 3 has 4 replies")
        assert str(error) == "malformed-record: hop 3 has 4 replies"
        assert error.detail == "hop 3 has 4 replies"

    def test_hierarchy(self):
        assert issubclass(CorruptLineError, MeasurementDataError)
        assert issubclass(TransientFaultError, MeasurementDataError)
        # Back-compat: empty populations used to raise ValueError.
        assert issubclass(EmptyPopulationError, ValueError)
        with pytest.raises(ValueError):
            raise EmptyPopulationError("no probes")


class TestStageNameNormalization:
    def test_normalize_stage_canonical_forms(self):
        from repro.quality import normalize_stage

        assert normalize_stage("io.load_traceroutes") == (
            "io-load-traceroutes"
        )
        assert normalize_stage("Core_Survey") == "core-survey"
        assert normalize_stage(" raclette-monitor ") == (
            "raclette-monitor"
        )
        assert normalize_stage("core-filtering") == "core-filtering"

    def test_legacy_dotted_and_kebab_share_one_entry(self):
        quality = DataQualityReport()
        quality.ingest("io.load_traceroutes", n=3)
        quality.ingest("io-load-traceroutes", n=2)
        assert list(quality.stages) == ["io-load-traceroutes"]
        assert quality.stage("io.load_traceroutes").ingested == 5

    def test_count_filters_accept_any_spelling(self):
        quality = DataQualityReport()
        quality.drop(
            "core-filtering", DropReason.CORRUPT_LINE, n=2
        )
        assert quality.dropped_count(stage="core.filtering") == 2
        assert quality.dropped_count(stage="core_filtering") == 2
