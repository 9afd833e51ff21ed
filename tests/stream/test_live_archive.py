"""Live-ingest lifecycle: streamed surveys in the archive.

Covers the store tier's side of streaming: revisioned partial
commits carried in the manifest slots, resuming a live period across
process restarts, serving the in-progress period through the
generation-watching cache, and the acceptance criterion — a
record-by-record streamed survey interrupted by a simulated crash
recovers to a consistent state and finishes to the *same bytes* as
the uninterrupted run.
"""

import datetime as dt

import pytest

from repro.faults import CrashingIO, CrashPlan, RecordingIO, SimulatedCrash
from repro.io import survey_to_dict
from repro.scenarios import generate_specs
from repro.serve import SurveyAPI
from repro.store import (
    EXIT_CLEAN,
    PeriodExistsError,
    SurveyArchive,
    payload_checksum,
    read_manifest,
    run_fsck,
)
from repro.stream import StreamingSurvey, dataset_to_records
from tests.store.conftest import make_ranking, make_survey
from tests.stream.conftest import PERIOD, seeded_dataset

LIVE = "2019-06"


def june(classes=None):
    from repro.core import Severity
    return make_survey(LIVE, dt.datetime(2019, 6, 1), classes or {
        100: Severity.SEVERE, 200: Severity.LOW,
    })


class TestLiveLifecycle:
    def test_commit_partial_revisions(self, tmp_path):
        archive = SurveyArchive(tmp_path / "arc")
        writer = archive.begin_live_period(LIVE)
        first = june()
        assert writer.commit_partial(first) == 1
        meta = archive.period_meta(LIVE)
        assert meta["repr"] == "live"
        assert meta["partial"] is True
        assert meta["revision"] == 1
        assert archive.get_period(LIVE) == survey_to_dict(first)
        # A second checkpoint is a *new revision*, carried by the
        # manifest record itself: the slots are the only files.
        second = june({100: __import__(
            "repro.core", fromlist=["Severity"]
        ).Severity.MILD})
        assert writer.commit_partial(second) == 2
        assert archive.get_period(LIVE) == survey_to_dict(second)
        assert sorted(p.name for p in archive.root.iterdir()) == [
            "MANIFEST.a", "MANIFEST.b",
        ]
        reopened = SurveyArchive(archive.root)
        assert reopened.period_meta(LIVE)["revision"] == 2
        assert reopened.get_period(LIVE) == survey_to_dict(second)
        assert archive.stats.live_commits == 2
        assert run_fsck(archive.root, repair=False).exit_code == EXIT_CLEAN

    def test_begin_on_committed_period_rejected(self, tmp_path):
        archive = SurveyArchive(tmp_path / "arc")
        archive.ingest(june(), ranking=make_ranking())
        with pytest.raises(PeriodExistsError):
            archive.begin_live_period(LIVE)

    def test_reopen_resumes_revision_counter(self, tmp_path):
        root = tmp_path / "arc"
        writer = SurveyArchive(root).begin_live_period(LIVE)
        writer.append(7)
        writer.commit_partial(june())
        writer.commit_partial(june())

        reopened = SurveyArchive(root)
        assert reopened.last_recovery.outcome == "clean"
        resumed = reopened.begin_live_period(LIVE)
        assert resumed.revision == 2
        assert resumed.commit_partial(june()) == 3

    def test_finalize_flips_to_ordinary_period(self, tmp_path):
        archive = SurveyArchive(tmp_path / "arc")
        writer = archive.begin_live_period(LIVE)
        writer.commit_partial(june())
        final = june()
        assert writer.finalize(final, ranking=make_ranking()) == LIVE
        meta = archive.period_meta(LIVE)
        assert meta["repr"] == "segment"
        assert "partial" not in meta and "revision" not in meta
        assert meta["checksum"] == payload_checksum(survey_to_dict(final))
        assert read_manifest(archive.root)["live"] == {}
        assert archive.get_period(LIVE) == survey_to_dict(final)
        assert run_fsck(archive.root, repair=False).exit_code == EXIT_CLEAN
        with pytest.raises(ValueError, match="finalized"):
            writer.commit_partial(june())

    def test_abort_removes_live_period(self, tmp_path):
        archive = SurveyArchive(tmp_path / "arc")
        writer = archive.begin_live_period(LIVE)
        writer.commit_partial(june())
        writer.abort()
        assert LIVE not in archive
        assert run_fsck(archive.root, repair=False).exit_code == EXIT_CLEAN

    def test_mismatched_payload_period_rejected(self, tmp_path):
        writer = SurveyArchive(tmp_path / "arc").begin_live_period(LIVE)
        stray = make_survey("2019-09", dt.datetime(2019, 9, 1), {})
        with pytest.raises(ValueError, match="2019-09"):
            writer.commit_partial(stray)


class TestServeLivePeriod:
    def test_live_period_served_and_invalidated(self, tmp_path):
        """The in-progress period rides the existing cache: served
        like any period, dropped the moment a checkpoint commits."""
        from repro.core import Severity

        archive = SurveyArchive(tmp_path / "arc")
        writer = archive.begin_live_period(LIVE)
        writer.commit_partial(june())
        api = SurveyAPI(archive)

        listed = api.handle("/v1/periods")
        assert listed.status == 200
        assert LIVE.encode() in listed.body

        first = api.handle(f"/v1/period/{LIVE}")
        assert first.status == 200
        repeat = api.handle(f"/v1/period/{LIVE}")
        assert (repeat.body, repeat.etag) == (first.body, first.etag)

        # A new checkpoint bumps the generation: cached responses
        # must not survive it.
        writer.commit_partial(june({100: Severity.NONE}))
        fresh = api.handle(f"/v1/period/{LIVE}")
        assert fresh.status == 200
        assert fresh.etag != first.etag
        assert fresh.body != first.body


class TestCrashResumeAcceptance:
    """The ISSUE's acceptance run: stream a seeded survey into a live
    period record by record, kill the writer mid-checkpoint, recover,
    resume, and land on the uninterrupted run's exact bytes."""

    NAME = PERIOD.name

    @pytest.fixture(scope="class")
    def streamed(self):
        specs = generate_specs(num_ases=4, num_countries=4, seed=5)
        dataset, table = seeded_dataset(specs)
        records = dataset_to_records(dataset)
        engine = StreamingSurvey(PERIOD, table=table)
        half, three_q = len(records) // 2, (3 * len(records)) // 4
        engine.ingest_many(records[:half])
        p1 = engine.emit_partial()
        engine.ingest_many(records[half:three_q])
        p2 = engine.emit_partial()
        engine.ingest_many(records[three_q:])
        final = engine.finalize()
        return p1, p2, final

    def uninterrupted(self, root, streamed):
        p1, p2, final = streamed
        archive = SurveyArchive(root)
        writer = archive.begin_live_period(self.NAME)
        writer.commit_partial(p1)
        writer.commit_partial(p2)
        writer.finalize(final)
        return (root / "segments" / f"{self.NAME}.seg").read_bytes()

    def second_commit_ops(self, root, streamed):
        """Measure the op window of the *second* checkpoint."""
        p1, p2, _ = streamed
        io = RecordingIO()
        archive = SurveyArchive(root, io=io)
        writer = archive.begin_live_period(self.NAME)
        writer.commit_partial(p1)
        start = len(io.ops)
        writer.commit_partial(p2)
        return start, len(io.ops)

    def test_crash_mid_checkpoint_recovers_and_finishes(
        self, tmp_path, streamed
    ):
        p1, p2, final = streamed
        want = self.uninterrupted(tmp_path / "clean", streamed)
        start, end = self.second_commit_ops(tmp_path / "probe", streamed)

        # Crash at the checkpoint's first write, mid-protocol, and at
        # its final op (the retire of the superseded slot).
        for op_index in sorted({start, (start + end) // 2, end - 1}):
            root = tmp_path / f"crash-{op_index}"
            io = CrashingIO(CrashPlan(op_index))
            archive = SurveyArchive(root, io=io)
            writer = archive.begin_live_period(self.NAME)
            writer.commit_partial(p1)
            with pytest.raises(SimulatedCrash):
                writer.commit_partial(p2)

            # Recovery-on-open lands on exactly the pre- or
            # post-checkpoint state, and fsck agrees it is clean.
            reopened = SurveyArchive(root)
            meta = reopened.period_meta(self.NAME)
            assert meta["repr"] == "live"
            assert meta["revision"] in (1, 2)
            expected = p1 if meta["revision"] == 1 else p2
            assert reopened.get_period(self.NAME) == survey_to_dict(
                expected
            )
            report = run_fsck(root, repair=False)
            assert report.exit_code == EXIT_CLEAN, [
                f.detail for f in report.findings
            ]

            # Resume the stream and finish: byte-identical archive.
            resumed = reopened.begin_live_period(self.NAME)
            assert resumed.revision == meta["revision"]
            resumed.finalize(final)
            got = (root / "segments" / f"{self.NAME}.seg").read_bytes()
            assert got == want
            assert run_fsck(root, repair=False).exit_code == EXIT_CLEAN
