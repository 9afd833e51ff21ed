"""Crash-recovery property test: every commit step, pre or post, never between.

The contract under test (see DESIGN.md §12): an archive writer killed
at ANY byte boundary of a commit — an ingest, a live checkpoint, a
finalize, an abort — leaves the archive in exactly the pre-commit or
post-commit state after recovery-on-open, and fsck finds nothing to
complain about either way.  Every commit writes its files (a
finalized period's segment) under fresh names, then one manifest
record in place into the older slot (the commit point), then retires
the other slot.

The op sequence is *measured*, not hardcoded: a dry run under
:class:`RecordingIO` enumerates the protocol's operations, then one
fresh archive per (operation, byte offset) is crashed there with
:class:`CrashingIO` and reopened with real IO.  A handful of cases
also die by real SIGKILL in a subprocess, proving recovery holds
against a genuinely dead writer, not just an unwound stack.
"""

import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.faults import CrashingIO, CrashPlan, RecordingIO, SimulatedCrash
from repro.obs import observed
from repro.store import (
    EXIT_CLEAN,
    EXIT_UNUSABLE,
    SchemaVersionError,
    SurveyArchive,
    recover,
    run_fsck,
)
from repro.store.manifest import empty_manifest, read_slot
from tests.store.conftest import (
    archive_state,
    commit_op,
    crash_cases,
    settled,
)


def recorded_ops(survey, ranking, tmp_path):
    """Dry-run one ingest; return its operation sequence."""
    io = RecordingIO()
    archive = SurveyArchive(tmp_path / "record", io=io)
    io.ops.clear()  # drop archive-creation noise, keep ingest ops
    archive.ingest(survey, ranking=ranking)
    return io.ops


class TestOpEnumeration:
    def test_ingest_protocol_shape(self, tmp_path, survey_june, ranking):
        ops = recorded_ops(survey_june, ranking, tmp_path)
        kinds = [op.kind for op in ops]
        # A new archive's first commit: slot a takes the empty
        # manifest, then the period's segment, then the record creates
        # slot b (the commit point) and slot a retires.
        assert kinds == ["write", "replace"] * 3 + ["write-in-place"]
        assert [
            Path(op.path).relative_to(tmp_path / "record").as_posix()
            for op in ops if op.kind != "write"
        ] == [
            "MANIFEST.a", "segments/2019-06.seg", "MANIFEST.b",
            "MANIFEST.a",
        ]
        assert commit_op(ops) == 5
        assert not any(op.frees for op in ops)


class TestCrashAtEveryBoundary:
    def test_every_op_every_offset_pre_or_post(
        self, tmp_path, survey_june, ranking
    ):
        """The tentpole property: kill the writer anywhere → recovery
        lands on exactly the pre- or post-commit state, fsck clean."""
        ops = recorded_ops(survey_june, ranking, tmp_path)

        # Reference states: an untouched archive and a committed one.
        pre_root = tmp_path / "pre"
        SurveyArchive(pre_root)
        pre_state = archive_state(pre_root)
        post_root = tmp_path / "post"
        committed = SurveyArchive(post_root)
        committed.ingest(survey_june, ranking=ranking)
        post_state = archive_state(post_root)
        flip = commit_op(ops)

        for op_index, offset in crash_cases(ops):
            root = tmp_path / f"crash-{op_index}-{offset}"
            io = CrashingIO(CrashPlan(op_index, byte_offset=offset))
            archive = SurveyArchive(root, io=io)
            with pytest.raises(SimulatedCrash):
                archive.ingest(survey_june, ranking=ranking)
            assert io.crashed

            # Reopen with real IO: recovery-on-open runs here.
            reopened = SurveyArchive(root)
            state = archive_state(root)
            if settled(state, pre_state, post_state, op_index, flip):
                assert reopened.last_recovery.outcome == "clean"
                assert "2019-06" in reopened
                assert reopened.get(100, "2019-06")["severity"] == "severe"
            else:
                assert "2019-06" not in reopened
            # Either way: nothing half-committed for fsck to find.
            report = run_fsck(root, repair=False)
            assert report.exit_code == EXIT_CLEAN, [
                f.detail for f in report.findings
            ]

    def test_recovery_is_idempotent(self, tmp_path, survey_june, ranking):
        root = tmp_path / "idem"
        io = CrashingIO(CrashPlan(op_index=4))  # segment on disk
        archive = SurveyArchive(root, io=io)
        with pytest.raises(SimulatedCrash):
            archive.ingest(survey_june, ranking=ranking)
        first = SurveyArchive(root)
        assert first.last_recovery.outcome == "rollback"
        second = SurveyArchive(root)
        assert second.last_recovery.outcome == "clean"
        assert not second.last_recovery.acted

    def test_no_reader_sees_partial_period(
        self, tmp_path, survey_june, ranking
    ):
        """Mid-commit state is invisible even *before* recovery: a
        reader opening the same directory sees only the manifest."""
        root = tmp_path / "reader"
        io = CrashingIO(CrashPlan(op_index=4))  # segment on disk
        archive = SurveyArchive(root, io=io)
        with pytest.raises(SimulatedCrash):
            archive.ingest(survey_june, ranking=ranking)
        # The segment exists, but the slot has not taken the record...
        assert (root / "segments" / "2019-06.seg").exists()
        reader = SurveyArchive(root)
        # ...so the period is simply not there (and rollback cleaned).
        assert "2019-06" not in reader
        assert len(reader) == 0

    def test_recovery_counter_emitted(self, tmp_path, survey_june, ranking):
        root = tmp_path / "obs"
        io = CrashingIO(CrashPlan(4))
        archive = SurveyArchive(root, io=io)
        with pytest.raises(SimulatedCrash):
            archive.ingest(survey_june, ranking=ranking)
        with observed() as obs:
            reopened = SurveyArchive(root)
        assert reopened.last_recovery.acted
        recovered = obs.metrics.counter(
            "store_recovery_total", "", ("outcome",)
        )
        assert recovered.value(outcome="rollback") == 1


class TestTornJournal:
    """What replaced the journal's replay: recovery is a pure function
    of the manifest (:func:`repro.store.recover`)."""

    def test_recover_function_directly(self, tmp_path):
        root = tmp_path / "direct"
        (root / "segments").mkdir(parents=True)
        (root / "segments" / "2020-01.seg").write_text("{}")
        report = recover(root, empty_manifest())
        assert report.outcome == "rollback"
        assert report.period == "2020-01"
        assert report.removed == ["segments/2020-01.seg"]
        assert not (root / "segments" / "2020-01.seg").exists()

    def test_rollback_never_deletes_committed(self, tmp_path):
        """An uncommitted ingest's segment beside committed files:
        recovery removes it and touches nothing the manifest
        commits."""
        root = tmp_path / "back"
        for relative in (
            "segments/2020-01.seg", "anomalies/2020-01.json",
            "segments/2020-02.seg",
        ):
            (root / relative).parent.mkdir(parents=True, exist_ok=True)
            (root / relative).write_text("{}")
        manifest = empty_manifest()
        manifest["periods"]["2020-01"] = {
            "checksum": "cafe", "repr": "segment",
            "anomalies": {"checksum": "beef"},
        }
        report = recover(root, manifest)
        assert report.outcome == "rollback"
        assert report.removed == ["segments/2020-02.seg"]
        assert (root / "segments" / "2020-01.seg").exists()
        assert (root / "anomalies" / "2020-01.json").exists()


class TestCrashDuringCommitPartial:
    """The live-checkpoint twin of the ingest property: a writer
    killed at ANY byte boundary of a ``commit_partial`` leaves the
    archive on exactly the previous or the new revision — never a
    blend — and fsck stays clean.  The checkpoint deliberately
    carries the *same payload* as the previous one: recovery must
    tell the revisions apart by the slots' sequence numbers, not by
    checksum."""

    LIVE = "2019-06"

    def open_live(self, root, io=None):
        archive = (
            SurveyArchive(root, io=io) if io is not None
            else SurveyArchive(root)
        )
        return archive, archive.begin_live_period(self.LIVE)

    def test_checkpoint_protocol_shape(self, tmp_path, survey_june):
        io = RecordingIO()
        _, writer = self.open_live(tmp_path / "record", io)
        writer.commit_partial(survey_june)
        io.ops.clear()
        writer.commit_partial(survey_june)
        # The payload and its indexes ride in the manifest record:
        # one in-place slot write (the commit point), then the
        # one-byte retire of the other slot.  Nothing is freed.
        assert [
            (op.kind, op.path.rsplit("/", 1)[-1], op.frees)
            for op in io.ops
        ] == [
            ("write-in-place", "MANIFEST.a", False),
            ("write-in-place", "MANIFEST.b", False),
        ]
        assert io.ops[1].size == 1

    def test_finalize_protocol_shape(self, tmp_path, survey_june):
        io = RecordingIO()
        _, writer = self.open_live(tmp_path / "record", io)
        writer.commit_partial(survey_june)
        io.ops.clear()
        writer.finalize(survey_june)
        kinds = [op.kind for op in io.ops]
        # The period's segment, then the slot write (the commit point)
        # and the retire; the live record simply leaves the manifest,
        # so nothing is removed.
        assert kinds == ["write", "replace"] + ["write-in-place"] * 2
        assert "segments" in io.ops[1].path
        assert commit_op(io.ops) == 2
        assert not any(op.frees for op in io.ops)

    def test_every_op_every_offset_pre_or_post(
        self, tmp_path, survey_june
    ):
        io = RecordingIO()
        _, writer = self.open_live(tmp_path / "record", io)
        writer.commit_partial(survey_june)
        base = len(io.ops)
        writer.commit_partial(survey_june)
        ops = io.ops[base:]
        flip = commit_op(ops)

        # Reference states: revision 1 committed, and revision 2.
        pre_root = tmp_path / "pre"
        _, pre_writer = self.open_live(pre_root)
        pre_writer.commit_partial(survey_june)
        pre_state = archive_state(pre_root)
        post_root = tmp_path / "post"
        _, post_writer = self.open_live(post_root)
        post_writer.commit_partial(survey_june)
        post_writer.commit_partial(survey_june)
        post_state = archive_state(post_root)

        for op_index, offset in crash_cases(ops):
            root = tmp_path / f"crash-{op_index}-{offset}"
            io = CrashingIO(
                CrashPlan(base + op_index, byte_offset=offset)
            )
            _, writer = self.open_live(root, io)
            writer.commit_partial(survey_june)
            with pytest.raises(SimulatedCrash):
                writer.commit_partial(survey_june)
            assert io.crashed

            reopened = SurveyArchive(root)
            state = archive_state(root)
            meta = reopened.period_meta(self.LIVE)
            committed = settled(
                state, pre_state, post_state, op_index, flip
            )
            assert meta["revision"] == (2 if committed else 1)
            # Either revision serves a readable period...
            assert reopened.get_period(self.LIVE)["period"][
                "name"
            ] == self.LIVE
            # ...and fsck has nothing to say.
            report = run_fsck(root, repair=False)
            assert report.exit_code == EXIT_CLEAN, [
                f.detail for f in report.findings
            ]


class TestCrashDuringFinalize:
    """The finalize twin: a writer killed at ANY byte boundary of a
    ``finalize`` leaves exactly the live period at its last revision
    or the finalized period — never both, never neither."""

    LIVE = "2019-06"

    def live(self, root, survey, io=None):
        archive = (
            SurveyArchive(root, io=io) if io is not None
            else SurveyArchive(root)
        )
        writer = archive.begin_live_period(self.LIVE)
        writer.commit_partial(survey)
        return writer

    def test_every_op_every_offset_pre_or_post(
        self, tmp_path, survey_june, ranking
    ):
        io = RecordingIO()
        writer = self.live(tmp_path / "record", survey_june, io)
        base = len(io.ops)
        writer.finalize(survey_june, ranking=ranking)
        ops = io.ops[base:]
        flip = commit_op(ops)

        pre_root = tmp_path / "pre"
        self.live(pre_root, survey_june)
        pre_state = archive_state(pre_root)
        post_root = tmp_path / "post"
        self.live(post_root, survey_june).finalize(
            survey_june, ranking=ranking
        )
        post_state = archive_state(post_root)

        for op_index, offset in crash_cases(ops):
            root = tmp_path / f"crash-{op_index}-{offset}"
            io = CrashingIO(
                CrashPlan(base + op_index, byte_offset=offset)
            )
            writer = self.live(root, survey_june, io)
            with pytest.raises(SimulatedCrash):
                writer.finalize(survey_june, ranking=ranking)

            reopened = SurveyArchive(root)
            state = archive_state(root)
            repr_ = reopened.period_meta(self.LIVE)["repr"]
            if settled(state, pre_state, post_state, op_index, flip):
                assert repr_ == "segment"
            else:
                assert repr_ == "live"
            assert reopened.get_period(self.LIVE)["period"][
                "name"
            ] == self.LIVE
            report = run_fsck(root, repair=False)
            assert report.exit_code == EXIT_CLEAN, [
                f.detail for f in report.findings
            ]


class TestCrashDuringAbort:
    """An abort is one slot write: the live period is there or gone."""

    LIVE = "2019-06"

    def live(self, root, survey, io=None):
        archive = (
            SurveyArchive(root, io=io) if io is not None
            else SurveyArchive(root)
        )
        archive.ingest(survey_march())
        writer = archive.begin_live_period(self.LIVE)
        writer.commit_partial(survey)
        return writer

    def test_every_op_every_offset_pre_or_post(
        self, tmp_path, survey_june
    ):
        io = RecordingIO()
        writer = self.live(tmp_path / "record", survey_june, io)
        base = len(io.ops)
        writer.abort()
        ops = io.ops[base:]
        assert not any(op.frees for op in ops)
        flip = commit_op(ops)

        pre_state = archive_state(
            self.live(tmp_path / "pre", survey_june).archive.root
        )
        post = self.live(tmp_path / "post", survey_june)
        post.abort()
        post_state = archive_state(post.archive.root)

        for op_index, offset in crash_cases(ops):
            root = tmp_path / f"crash-{op_index}-{offset}"
            io = CrashingIO(
                CrashPlan(base + op_index, byte_offset=offset)
            )
            writer = self.live(root, survey_june, io)
            with pytest.raises(SimulatedCrash):
                writer.abort()
            reopened = SurveyArchive(root)
            state = archive_state(root)
            if settled(state, pre_state, post_state, op_index, flip):
                assert reopened.periods() == ["2019-03"]
            else:
                assert reopened.periods() == ["2019-03", self.LIVE]
            assert run_fsck(root).exit_code == EXIT_CLEAN


def survey_march():
    import datetime as dt
    from repro.core import Severity
    from tests.store.conftest import make_survey

    return make_survey(
        "2019-03", dt.datetime(2019, 3, 1),
        {100: Severity.MILD, 200: Severity.NONE},
    )


class TestLiveReconcile:
    """Recovery on open settles a live period from the slots alone."""

    LIVE = "2019-06"

    def checkpointed(self, root, survey, ranking, times=1):
        archive = SurveyArchive(root)
        writer = archive.begin_live_period(self.LIVE)
        for _ in range(times):
            writer.commit_partial(survey, ranking=ranking)
        return archive

    def test_stray_newer_revision_removed(
        self, tmp_path, survey_june, ranking
    ):
        """A checkpoint torn mid-record leaves a newer revision that
        fails its digest: never served, never quarantined, counted as
        a fallback, and overwritten by the next checkpoint."""
        root = tmp_path / "arc"
        self.checkpointed(root, survey_june, ranking)
        before = archive_state(root)
        archive = SurveyArchive(
            root, io=CrashingIO(CrashPlan(0, byte_offset=200))
        )
        with pytest.raises(SimulatedCrash):
            archive.begin_live_period(self.LIVE).commit_partial(
                survey_june, ranking=ranking
            )
        assert read_slot(root / "MANIFEST.a") == "torn"
        with observed() as obs:
            reopened = SurveyArchive(root)
        assert obs.metrics.counter(
            "store_manifest_fallback_total", ""
        ).value() == 1
        assert archive_state(root) == before
        assert reopened.period_meta(self.LIVE)["revision"] == 1
        assert reopened.last_recovery.outcome == "clean"
        assert not (root / "quarantine").exists()
        writer = reopened.begin_live_period(self.LIVE)
        assert writer.commit_partial(survey_june, ranking=ranking) == 2
        states = [read_slot(root / name) for name in (
            "MANIFEST.a", "MANIFEST.b",
        )]
        assert states[1] == "retired" and states[0][0] == 3

    def test_stray_older_revision_removed(
        self, tmp_path, survey_june, ranking
    ):
        """A crash between a checkpoint's record and the retire leaves
        the superseded revision valid beside the new one: the higher
        sequence number wins, and the next checkpoint overwrites the
        stale revision."""
        root = tmp_path / "arc"
        self.checkpointed(root, survey_june, ranking)
        # Dies after the record, before the retire.
        archive = SurveyArchive(root, io=CrashingIO(CrashPlan(1)))
        with pytest.raises(SimulatedCrash):
            archive.begin_live_period(self.LIVE).commit_partial(
                survey_june, ranking=ranking
            )
        revisions = sorted(
            read_slot(root / name)[1]["periods"][self.LIVE]["revision"]
            for name in ("MANIFEST.a", "MANIFEST.b")
        )
        assert revisions == [1, 2]
        reopened = SurveyArchive(root)
        assert reopened.period_meta(self.LIVE)["revision"] == 2
        assert reopened.last_recovery.outcome == "clean"
        writer = reopened.begin_live_period(self.LIVE)
        assert writer.commit_partial(survey_june, ranking=ranking) == 3
        valid = [
            state for state in (
                read_slot(root / "MANIFEST.a"),
                read_slot(root / "MANIFEST.b"),
            ) if isinstance(state, tuple)
        ]
        assert [s[1]["periods"][self.LIVE]["revision"] for s in valid] == [3]
        assert run_fsck(root).exit_code == EXIT_CLEAN

    def test_uncommitted_finalize_documents_removed(
        self, tmp_path, survey_june, ranking
    ):
        root = tmp_path / "arc"
        self.checkpointed(root, survey_june, ranking)
        before = archive_state(root)
        # Die at the slot write (op 2, after the segment): the
        # segment is on disk, the record is not.
        crashing = SurveyArchive(
            root, io=CrashingIO(CrashPlan(2))
        ).begin_live_period(self.LIVE)
        with pytest.raises(SimulatedCrash):
            crashing.finalize(survey_june, ranking=ranking)
        assert (root / "segments" / f"{self.LIVE}.seg").exists()
        # Even before recovery, fsck calls it an orphan, not data.
        report = run_fsck(root, repair=False)
        assert {f.kind for f in report.findings} == {"orphan"}
        reopened = SurveyArchive(root)
        assert archive_state(root) == before
        assert reopened.period_meta(self.LIVE)["repr"] == "live"
        assert reopened.last_recovery.outcome == "rollback"
        assert reopened.quality.stages["store-archive"].dropped

    def test_legacy_journal_never_deletes_committed_revision(
        self, tmp_path, survey_june, ranking
    ):
        """A root holding a write-ahead journal of an earlier version
        is refused by name; nothing on disk is acted on."""
        root = tmp_path / "arc"
        self.checkpointed(root, survey_june, ranking)
        (root / "JOURNAL.json").write_text('{"op": "commit-partial"}')
        before = {
            p: p.read_bytes() for p in root.rglob("*") if p.is_file()
        }
        with pytest.raises(SchemaVersionError, match="JOURNAL.json"):
            SurveyArchive(root)
        assert {
            p: p.read_bytes() for p in root.rglob("*") if p.is_file()
        } == before
        report = run_fsck(root)
        assert report.exit_code == EXIT_UNUSABLE
        assert "JOURNAL.json" in report.findings[0].detail

    def test_legacy_revision_without_sidecar_refused(
        self, tmp_path, survey_june, ranking
    ):
        """The earlier layouts — ``live/`` revision files and the
        single ``MANIFEST.json`` — are refused by name, never read."""
        for entry in ("live", "MANIFEST.json"):
            root = tmp_path / entry
            self.checkpointed(root, survey_june, ranking)
            if entry == "live":
                (root / "live").mkdir()
                (root / "live" / f"{self.LIVE}.r1.json").write_text("{}")
            else:
                (root / entry).write_text('{"format": "repro-archive"}')
            with pytest.raises(SchemaVersionError, match=entry):
                SurveyArchive(root)
            assert run_fsck(root).exit_code == EXIT_UNUSABLE


@pytest.mark.slow
class TestSigkillDuringCommitPartial:
    """A genuinely dead writer mid-checkpoint, not an unwound stack."""

    CHILD = textwrap.dedent("""
        import datetime as dt, sys
        sys.path.insert(0, {src!r})
        sys.path.insert(0, {repo!r})
        from repro.faults import CrashingIO, CrashPlan
        from repro.store import SurveyArchive
        from tests.store.conftest import make_survey
        from repro.core import Severity

        survey = make_survey(
            "2019-06", dt.datetime(2019, 6, 1),
            {{100: Severity.SEVERE, 200: Severity.LOW}},
        )
        io = CrashingIO(CrashPlan({op}, mode="kill"))
        archive = SurveyArchive({root!r}, io=io)
        writer = archive.begin_live_period("2019-06")
        writer.commit_partial(survey)
        writer.commit_partial(survey)
        print("survived", flush=True)  # plan never fired
    """)

    def measured(self, tmp_path):
        """(ops before checkpoint 2, its op count, its commit op)."""
        from tests.store.conftest import make_survey
        import datetime as dt
        from repro.core import Severity

        survey = make_survey(
            "2019-06", dt.datetime(2019, 6, 1),
            {100: Severity.SEVERE, 200: Severity.LOW},
        )
        io = RecordingIO()
        archive = SurveyArchive(tmp_path / "measure", io=io)
        writer = archive.begin_live_period("2019-06")
        writer.commit_partial(survey)
        base = len(io.ops)
        writer.commit_partial(survey)
        return base, len(io.ops) - base, commit_op(io.ops[base:])

    @pytest.mark.parametrize("which", ["first-write", "post-manifest"])
    def test_sigkill_mid_checkpoint(self, tmp_path, which):
        base, count, flip = self.measured(tmp_path)
        offset = 0 if which == "first-write" else flip + 1
        root = tmp_path / "killed"
        repo = __import__("pathlib").Path(__file__).resolve().parents[2]
        script = self.CHILD.format(
            src=str(repo / "src"), repo=str(repo), root=str(root),
            op=base + offset,
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr

        reopened = SurveyArchive(root)
        expected = 1 if which == "first-write" else 2
        assert reopened.period_meta("2019-06")["revision"] == expected
        assert run_fsck(root, repair=False).exit_code == EXIT_CLEAN


@pytest.mark.slow
class TestRealSigkill:
    """A few boundaries exercised with a genuinely dead writer."""

    CHILD = textwrap.dedent("""
        import datetime as dt, sys
        sys.path.insert(0, {src!r})
        sys.path.insert(0, {repo!r})
        from repro.faults import CrashingIO, CrashPlan
        from repro.store import SurveyArchive
        from tests.store.conftest import make_ranking, make_survey
        from repro.core import Severity

        survey = make_survey(
            "2019-06", dt.datetime(2019, 6, 1),
            {{100: Severity.SEVERE, 200: Severity.LOW}},
        )
        io = CrashingIO(CrashPlan({op}, byte_offset={offset}, mode="kill"))
        archive = SurveyArchive({root!r}, io=io)
        archive.ingest(survey, ranking=make_ranking())
        print("survived", flush=True)  # plan never fired
    """)

    @pytest.mark.parametrize("op_index,offset", [
        (0, 7),    # torn temp write of the new archive's slot a
        (3, None), # died before the segment rename
        (5, None), # died before the rename that commits slot b
        (6, None), # died before retiring slot a (committed!)
    ])
    def test_sigkill_mid_commit(self, tmp_path, op_index, offset):
        root = tmp_path / "killed"
        repo = __import__("pathlib").Path(__file__).resolve().parents[2]
        script = self.CHILD.format(
            src=str(repo / "src"), repo=str(repo), root=str(root),
            op=op_index, offset=offset,
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr

        reopened = SurveyArchive(root)
        if op_index >= 6:
            assert "2019-06" in reopened
            assert reopened.last_recovery.outcome == "clean"
        else:
            assert "2019-06" not in reopened
        report = run_fsck(root, repair=False)
        assert report.exit_code == EXIT_CLEAN
