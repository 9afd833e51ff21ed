"""Anomaly-report artifacts: commits, queries, fsck, crashes.

The report artifact rides the archive's one commit rule (document,
then the manifest slot); these tests pin the artifact-specific
contracts — one
immutable report per committed period, crash-at-any-boundary recovery
to exactly the reported or report-less state, and fsck's surgical
repair (quarantine the report, keep the period)."""

import json

import pytest

from repro.faults import CrashingIO, CrashPlan, RecordingIO, SimulatedCrash
from repro.store import (
    EXIT_CLEAN,
    EXIT_ERRORS,
    EXIT_REPAIRED,
    AnomalyReportExistsError,
    AnomalyReportNotFoundError,
    ArchiveCorruptionError,
    LinkNotFoundError,
    PeriodExistsError,
    PeriodNotFoundError,
    SurveyArchive,
    run_fsck,
)
from tests.store.conftest import (
    archive_state,
    commit_op,
    crash_cases,
    settled,
)

LINK = "60.0.0.1--60.0.0.2"


def make_anomaly_payload(period, links=None, events=()):
    links = links if links is not None else {
        LINK: {
            "near": "60.0.0.1", "far": "60.0.0.2",
            "samples": 90, "bins": 48, "median_ms": 3.1,
            "band_ms": [2.9, 3.3], "anomalous_bins": [],
            "reference": {
                "median_ms": [3.1] * 48,
                "low_ms": [2.9] * 48,
                "high_ms": [3.3] * 48,
            },
        },
    }
    return {
        "kind": "anomaly-report", "period": period,
        "bin_seconds": 1800, "num_bins": 48, "bins_per_day": 48,
        "confidence": 0.95, "min_samples": 3,
        "forwarding_threshold": 0.5, "min_gap_ms": 2.0,
        "reference_source": "self", "processed": 500,
        "links_total": len(links), "links": links,
        "forwarding": {}, "events": list(events),
    }


@pytest.fixture()
def reported(tmp_path, survey_june, survey_september):
    """Archive with two periods, the first carrying a report."""
    archive = SurveyArchive(tmp_path / "arc")
    archive.ingest(survey_june)
    archive.ingest(survey_september)
    archive.ingest_anomalies(
        "2019-06", make_anomaly_payload("2019-06")
    )
    return archive


class TestCommitAndRead:
    def test_round_trip(self, reported):
        assert reported.anomaly_periods() == ["2019-06"]
        payload = reported.get_anomalies("2019-06")
        assert payload["kind"] == "anomaly-report"
        assert LINK in payload["links"]

    def test_survives_reopen(self, reported):
        reopened = SurveyArchive(reported.root)
        assert reopened.anomaly_periods() == ["2019-06"]
        assert reopened.get_anomalies("2019-06")["links_total"] == 1

    def test_default_period_is_latest(self, reported):
        # Latest committed period (2019-09) has no report.
        with pytest.raises(AnomalyReportNotFoundError):
            reported.get_anomalies()

    def test_reports_are_immutable(self, reported):
        with pytest.raises(AnomalyReportExistsError):
            reported.ingest_anomalies(
                "2019-06", make_anomaly_payload("2019-06")
            )

    def test_period_must_exist(self, reported):
        with pytest.raises(PeriodNotFoundError):
            reported.ingest_anomalies(
                "2031-01", make_anomaly_payload("2031-01")
            )

    def test_live_period_rejected(self, tmp_path, survey_june):
        import datetime as dt

        from repro.core import Severity
        from tests.store.conftest import make_survey

        archive = SurveyArchive(tmp_path / "live")
        archive.ingest(survey_june)
        writer = archive.begin_live_period("2019-12")
        writer.commit_partial(make_survey(
            "2019-12", dt.datetime(2019, 12, 1),
            {100: Severity.LOW},
        ))
        with pytest.raises(PeriodExistsError):
            archive.ingest_anomalies(
                "2019-12", make_anomaly_payload("2019-12")
            )

    def test_stats_and_generation_move(self, tmp_path, survey_june):
        archive = SurveyArchive(tmp_path / "arc")
        archive.ingest(survey_june)
        generation = archive.generation
        archive.ingest_anomalies(
            "2019-06", make_anomaly_payload("2019-06")
        )
        assert archive.stats.anomaly_ingests == 1
        assert archive.stats.as_dict()["anomaly_ingests"] == 1
        assert archive.generation == generation + 1

    def test_checksum_mismatch_refused(self, reported):
        path = reported.anomalies_path("2019-06")
        wrapped = json.loads(path.read_text())
        wrapped["payload"]["processed"] = 9_999
        # Keep the file's own wrapper checksum out of the way: the
        # manifest cross-check must catch the divergence regardless.
        from repro.store import payload_checksum

        wrapped["checksum"] = payload_checksum(wrapped["payload"])
        path.write_text(json.dumps(wrapped))
        fresh = SurveyArchive(reported.root)
        with pytest.raises(ArchiveCorruptionError):
            fresh.get_anomalies("2019-06")


class TestVerify:
    def test_verify_audits_reports(self, reported):
        assert reported.verify() == {
            "2019-06": "ok", "2019-09": "ok",
            "2019-06/anomalies": "ok",
        }

    def test_verify_flags_corrupt_report(self, reported):
        from repro.faults import FsFaultKey, flip_bit

        flip_bit(
            reported.anomalies_path("2019-06"), key=FsFaultKey(5)
        )
        outcome = reported.verify()
        assert outcome["2019-06"] == "ok"
        assert outcome["2019-06/anomalies"].startswith("corrupt:")


class TestLinkHistory:
    def test_observed_and_unobserved_periods(
        self, reported, survey_september
    ):
        reported.ingest_anomalies("2019-09", make_anomaly_payload(
            "2019-09", links={
                "10.0.0.1--10.0.0.2": {
                    "near": "10.0.0.1", "far": "10.0.0.2",
                    "samples": 30, "bins": 48, "median_ms": 1.0,
                    "band_ms": [0.9, 1.1], "anomalous_bins": [3],
                    "reference": {
                        "median_ms": [1.0] * 48,
                        "low_ms": [0.9] * 48,
                        "high_ms": [1.1] * 48,
                    },
                },
            },
        ))
        history = reported.link_history(LINK)
        assert [e["period"] for e in history] == [
            "2019-06", "2019-09"
        ]
        assert history[0]["observed"] is True
        assert history[1] == {
            "period": "2019-09", "observed": False,
            "anomalous_bins": [],
        }

    def test_unreadable_report_spares_the_others(self, reported):
        """A corrupt report is one unreadable entry, on every read,
        not a failed history; a link only it could hold raises the
        corruption."""
        from repro.faults import FsFaultKey, flip_bit

        reported.ingest_anomalies(
            "2019-09", make_anomaly_payload("2019-09")
        )
        expected = reported.link_history(LINK)[1]
        flip_bit(
            reported.anomalies_path("2019-06"), key=FsFaultKey(5)
        )
        reopened = SurveyArchive(reported.root)
        for _ in range(2):
            torn, healthy = reopened.link_history(LINK)
            assert torn == {
                "period": "2019-06", "observed": False,
                "anomalous_bins": [], "unreadable": True,
            }
            assert healthy == expected

    def test_link_only_in_unreadable_report_raises(self, reported):
        from repro.faults import FsFaultKey, flip_bit

        flip_bit(
            reported.anomalies_path("2019-06"), key=FsFaultKey(5)
        )
        with pytest.raises(ArchiveCorruptionError):
            SurveyArchive(reported.root).link_history(LINK)

    def test_unknown_link_raises(self, reported):
        with pytest.raises(LinkNotFoundError):
            reported.link_history("9.9.9.9--8.8.8.8")

    def test_malformed_link_raises_value_error(self, reported):
        with pytest.raises(ValueError):
            reported.link_history("not-a-link")


class TestDeltas:
    def test_churn_between_reports(self, reported):
        event = {
            "kind": "delay", "link": LINK, "bin": 7,
            "direction": "high", "median_ms": 40.0,
            "band_ms": [38.0, 42.0], "reference_ms": [2.9, 3.3],
            "reference_median_ms": 3.1, "gap_ms": 34.7,
        }
        reported.ingest_anomalies("2019-09", make_anomaly_payload(
            "2019-09", events=[event],
        ))
        deltas = reported.anomaly_deltas_between("2019-06", "2019-09")
        assert deltas["new"] == [LINK]
        assert deltas["resolved"] == []
        churn = reported.anomaly_churn()
        assert [
            (d["before"], d["after"]) for d in churn
        ] == [("2019-06", "2019-09")]


def recorded_ops(tmp_path, survey):
    """Dry-run one report attach; return its operation sequence."""
    io = RecordingIO()
    archive = SurveyArchive(tmp_path / "record", io=io)
    archive.ingest(survey)
    io.ops.clear()  # keep only the anomaly-attach ops
    archive.ingest_anomalies(
        "2019-06", make_anomaly_payload("2019-06")
    )
    return io.ops


class TestCrashAtEveryBoundary:
    def test_attach_protocol_shape(self, tmp_path, survey_june):
        ops = recorded_ops(tmp_path, survey_june)
        kinds = [op.kind for op in ops]
        # The report document, then the slot write (the commit point)
        # and the retire of the other slot.  Nothing is freed.
        assert kinds == ["write", "replace"] + ["write-in-place"] * 2
        assert "anomalies" in ops[1].path
        assert "MANIFEST" in ops[2].path
        assert commit_op(ops) == 2
        assert not any(op.frees for op in ops)

    def test_every_op_every_offset_pre_or_post(
        self, tmp_path, survey_june
    ):
        ops = recorded_ops(tmp_path, survey_june)

        pre_root = tmp_path / "pre"
        pre = SurveyArchive(pre_root)
        pre.ingest(survey_june)
        pre_state = archive_state(pre_root)
        post_root = tmp_path / "post"
        post = SurveyArchive(post_root)
        post.ingest(survey_june)
        post.ingest_anomalies(
            "2019-06", make_anomaly_payload("2019-06")
        )
        post_state = archive_state(post_root)
        flip = commit_op(ops)

        for op_index, offset in crash_cases(ops):
            root = tmp_path / f"crash-{op_index}-{offset}"
            SurveyArchive(root).ingest(survey_june)
            io = CrashingIO(CrashPlan(op_index, byte_offset=offset))
            archive = SurveyArchive(root, io=io)
            with pytest.raises(SimulatedCrash):
                archive.ingest_anomalies(
                    "2019-06", make_anomaly_payload("2019-06")
                )
            assert io.crashed

            reopened = SurveyArchive(root)
            state = archive_state(root)
            if settled(state, pre_state, post_state, op_index, flip):
                assert reopened.anomaly_periods() == ["2019-06"]
            else:
                assert reopened.anomaly_periods() == []
                assert "2019-06" in reopened  # period untouched
            report = run_fsck(root, repair=False)
            assert report.exit_code == EXIT_CLEAN, [
                f.detail for f in report.findings
            ]


class TestFsck:
    def test_clean_archive_is_clean(self, reported):
        assert run_fsck(reported.root).exit_code == EXIT_CLEAN

    def test_corrupt_report_detected_then_repaired(self, reported):
        from repro.faults import FsFaultKey, flip_bit

        flip_bit(
            reported.anomalies_path("2019-06"), key=FsFaultKey(3)
        )
        found = run_fsck(reported.root, repair=False)
        assert found.exit_code == EXIT_ERRORS
        assert any(
            f.kind == "anomaly-report" for f in found.errors
        )

        repaired = run_fsck(reported.root, repair=True)
        assert repaired.exit_code == EXIT_REPAIRED
        reopened = SurveyArchive(reported.root)
        # Surgical: the report is gone, the period survives.
        assert reopened.anomaly_periods() == []
        assert "2019-06" in reopened
        assert run_fsck(reported.root).exit_code == EXIT_CLEAN

    def test_missing_report_file_repaired(self, reported):
        reported.anomalies_path("2019-06").unlink()
        found = run_fsck(reported.root, repair=False)
        assert found.exit_code == EXIT_ERRORS
        assert run_fsck(
            reported.root, repair=True
        ).exit_code == EXIT_REPAIRED
        assert run_fsck(reported.root).exit_code == EXIT_CLEAN
        assert SurveyArchive(reported.root).anomaly_periods() == []

    def test_orphan_report_quarantined(self, reported):
        orphan = reported.anomalies_path("2019-09")
        orphan.write_text(
            reported.anomalies_path("2019-06").read_text()
        )
        found = run_fsck(reported.root, repair=False)
        assert any(
            f.kind == "orphan" and f.severity == "warning"
            for f in found.findings
        )
        # Warnings repair without tripping the exit code.
        assert run_fsck(
            reported.root, repair=True
        ).exit_code == EXIT_CLEAN
        assert not orphan.exists()
        assert run_fsck(reported.root).exit_code == EXIT_CLEAN
