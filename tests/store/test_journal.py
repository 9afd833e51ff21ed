"""Crash-recovery property test: every commit step, pre or post, never between.

The contract under test (see DESIGN.md §12): an archive writer killed
at ANY byte boundary of an ingest leaves the archive in exactly the
pre-commit or post-commit state after recovery-on-open — and fsck
finds nothing to complain about either way.

The op sequence is *measured*, not hardcoded: a dry run under
:class:`RecordingIO` enumerates the protocol's operations, then one
fresh archive per (operation, byte offset) is crashed there with
:class:`CrashingIO` and reopened with real IO.  A handful of cases
also die by real SIGKILL in a subprocess, proving recovery holds
against a genuinely dead writer, not just an unwound stack.
"""

import json
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.faults import CrashingIO, CrashPlan, RecordingIO, SimulatedCrash
from repro.obs import observed
from repro.store import (
    EXIT_CLEAN,
    ArchiveCorruptionError,
    CommitJournal,
    SurveyArchive,
    TornJournal,
    recover,
    run_fsck,
)
from repro.store.archive import wrap
from repro.store.journal import JOURNAL_FORMAT, _record_checksum


def archive_state(root):
    """Everything that defines archive content, as comparable data."""
    manifest_path = root / "MANIFEST.json"
    manifest = (
        json.loads(manifest_path.read_text())
        if manifest_path.exists() else None
    )
    files = sorted(
        str(p.relative_to(root))
        for p in root.rglob("*")
        if p.is_file() and "quarantine" not in p.parts
    )
    return {"manifest": manifest, "files": files}


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
        # journal, period, index, manifest: four atomic writes (write +
        # replace each), then the journal acknowledgment remove.
        assert kinds == ["write", "replace"] * 4 + ["remove"]
        assert "JOURNAL" in ops[1].path
        assert "MANIFEST" in ops[7].path
        assert "JOURNAL" in ops[8].path


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
        manifest_op = next(
            i for i, op in enumerate(ops)
            if op.kind == "replace" and "MANIFEST" in op.path
        )

        cases = []
        for op_index, op in enumerate(ops):
            offsets = [None]
            if op.kind == "write":
                # Tear at nothing-written, mid-write, and all-but-end.
                offsets = [0, op.size // 2, op.size - 1]
            for offset in offsets:
                cases.append((op_index, offset))

        for op_index, offset in cases:
            root = tmp_path / f"crash-{op_index}-{offset}"
            io = CrashingIO(CrashPlan(op_index, byte_offset=offset))
            archive = SurveyArchive(root, io=io)
            with pytest.raises(SimulatedCrash):
                archive.ingest(survey_june, ranking=ranking)
            assert io.crashed

            # Reopen with real IO: recovery-on-open runs here.
            reopened = SurveyArchive(root)
            state = archive_state(root)
            # The crash lands *before* the planned replace, so dying
            # at the manifest rename itself is still pre-commit; only
            # ops after it see the flipped manifest.
            if op_index > manifest_op:
                assert state == post_state, (
                    f"crash at op {op_index} offset {offset}: "
                    "expected post-commit state"
                )
                assert reopened.last_recovery.outcome in (
                    "roll-forward", "clean"
                )
                assert "2019-06" in reopened
                assert reopened.get(100, "2019-06")["severity"] == "severe"
            else:
                assert state == pre_state, (
                    f"crash at op {op_index} offset {offset}: "
                    "expected pre-commit state"
                )
                assert "2019-06" not in reopened
            # Either way: nothing half-committed for fsck to find.
            report = run_fsck(root, repair=False)
            assert report.exit_code == EXIT_CLEAN, [
                f.detail for f in report.findings
            ]

    def test_recovery_is_idempotent(self, tmp_path, survey_june, ranking):
        root = tmp_path / "idem"
        io = CrashingIO(CrashPlan(op_index=4))  # after journal+period
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
        io = CrashingIO(CrashPlan(op_index=6))  # period+index on disk
        archive = SurveyArchive(root, io=io)
        with pytest.raises(SimulatedCrash):
            archive.ingest(survey_june, ranking=ranking)
        # Data files exist, but the manifest has not flipped...
        assert (root / "periods" / "2019-06.json").exists()
        reader = SurveyArchive(root)
        # ...so the period is simply not there (and rollback cleaned).
        assert "2019-06" not in reader
        assert len(reader) == 0

    def test_recovery_counter_emitted(self, tmp_path, survey_june, ranking):
        root = tmp_path / "obs"
        io = CrashingIO(CrashPlan(op_index=3))
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
    def test_torn_journal_quarantined_and_cleared(
        self, tmp_path, survey_june, ranking
    ):
        root = tmp_path / "torn"
        io = CrashingIO(CrashPlan(op_index=4))
        archive = SurveyArchive(root, io=io)
        with pytest.raises(SimulatedCrash):
            archive.ingest(survey_june, ranking=ranking)
        journal_path = root / CommitJournal.FILENAME
        journal_path.write_text(journal_path.read_text()[:-20])
        with pytest.raises(TornJournal):
            CommitJournal(root).pending()
        reopened = SurveyArchive(root)
        assert reopened.last_recovery.outcome == "torn-journal"
        assert not journal_path.exists()
        assert (root / "quarantine" / CommitJournal.FILENAME).exists()
        # Idempotent from here on.
        assert SurveyArchive(root).last_recovery.outcome == "clean"

    def test_recover_function_directly(self, tmp_path):
        root = tmp_path / "direct"
        root.mkdir()
        journal = CommitJournal(root)
        journal.begin("ingest", "2020-01", "cafe", ["periods/2020-01.json"])
        (root / "periods").mkdir()
        (root / "periods" / "2020-01.json").write_text("{}")
        report = recover(root, lambda period: None)
        assert report.outcome == "rollback"
        assert report.removed == ["periods/2020-01.json"]
        assert not (root / "periods" / "2020-01.json").exists()

    def test_roll_forward_never_deletes_committed(self, tmp_path):
        root = tmp_path / "forward"
        root.mkdir()
        (root / "periods").mkdir()
        (root / "periods" / "2020-01.json").write_text("{}")
        journal = CommitJournal(root)
        journal.begin("ingest", "2020-01", "cafe", ["periods/2020-01.json"])
        # The manifest says the period is committed.
        report = recover(
            root, lambda period: {"checksum": "cafe", "repr": "json"}
        )
        assert report.outcome == "roll-forward"
        assert report.removed == []
        assert (root / "periods" / "2020-01.json").exists()


class TestCrashDuringCommitPartial:
    """The live-checkpoint twin of the ingest property: a writer
    killed at ANY byte boundary of a ``commit_partial`` leaves the
    archive on exactly the previous or the new revision — never a
    blend — and fsck stays clean.  The checkpoint deliberately
    carries the *same payload* as the previous one: recovery must
    tell the revisions apart by the revision number the manifest and
    the file names carry, not by checksum."""

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
        kinds = [op.kind for op in io.ops]
        # The revision file (payload + index) and the manifest: two
        # atomic writes, then retire the previous revision.  No
        # journal: the manifest alone tells recovery which revision
        # is committed.
        assert kinds == ["write", "replace"] * 2 + ["remove"]
        assert "r2.json" in io.ops[1].path
        assert "MANIFEST" in io.ops[3].path
        assert "r1.json" in io.ops[4].path

    def test_finalize_protocol_shape(self, tmp_path, survey_june):
        io = RecordingIO()
        _, writer = self.open_live(tmp_path / "record", io)
        writer.commit_partial(survey_june)
        io.ops.clear()
        writer.finalize(survey_june)
        kinds = [op.kind for op in io.ops]
        # Period document, index, manifest flip, then retire the one
        # live revision.
        assert kinds == ["write", "replace"] * 3 + ["remove"]
        assert "periods" in io.ops[1].path
        assert "index" in io.ops[3].path
        assert "MANIFEST" in io.ops[5].path
        assert "r1.json" in io.ops[6].path

    def test_every_op_every_offset_pre_or_post(
        self, tmp_path, survey_june
    ):
        io = RecordingIO()
        _, writer = self.open_live(tmp_path / "record", io)
        writer.commit_partial(survey_june)
        base = len(io.ops)
        writer.commit_partial(survey_june)
        ops = io.ops[base:]
        manifest_op = next(
            i for i, op in enumerate(ops)
            if op.kind == "replace" and "MANIFEST" in op.path
        )

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

        cases = []
        for op_index, op in enumerate(ops):
            offsets = [None]
            if op.kind == "write":
                offsets = [0, op.size // 2, op.size - 1]
            for offset in offsets:
                cases.append((op_index, offset))

        for op_index, offset in cases:
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
            if op_index > manifest_op:
                assert state == post_state, (
                    f"crash at op {op_index} offset {offset}: "
                    "expected post-checkpoint state"
                )
                assert meta["revision"] == 2
            else:
                assert state == pre_state, (
                    f"crash at op {op_index} offset {offset}: "
                    "expected pre-checkpoint state"
                )
                assert meta["revision"] == 1
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
        manifest_op = next(
            i for i, op in enumerate(ops)
            if op.kind == "replace" and "MANIFEST" in op.path
        )

        pre_root = tmp_path / "pre"
        self.live(pre_root, survey_june)
        pre_state = archive_state(pre_root)
        post_root = tmp_path / "post"
        self.live(post_root, survey_june).finalize(
            survey_june, ranking=ranking
        )
        post_state = archive_state(post_root)

        for op_index, op in enumerate(ops):
            offsets = [None]
            if op.kind == "write":
                offsets = [0, op.size // 2, op.size - 1]
            for offset in offsets:
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
                if op_index > manifest_op:
                    assert state == post_state, (op_index, offset)
                    assert repr_ == "json"
                    assert reopened.last_recovery.outcome == (
                        "roll-forward"
                    )
                else:
                    assert state == pre_state, (op_index, offset)
                    assert repr_ == "live"
                assert reopened.get_period(self.LIVE)["period"][
                    "name"
                ] == self.LIVE
                report = run_fsck(root, repair=False)
                assert report.exit_code == EXIT_CLEAN, [
                    f.detail for f in report.findings
                ]


def legacy_revision(root, name, revision):
    """Rewrite a committed live revision in the earlier two-file
    layout: a payload-only wrapper plus an ``.index.json`` sidecar."""
    live = root / "live" / f"{name}.r{revision}.json"
    entry = json.loads(live.read_text())
    live.write_bytes(wrap(entry["payload"]))
    sidecar = root / "live" / f"{name}.r{revision}.index.json"
    sidecar.write_bytes(wrap(entry["index"]))
    return live, sidecar


class TestLiveReconcile:
    """Recovery on open settles ``live/`` from the manifest alone."""

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
        root = tmp_path / "arc"
        self.checkpointed(root, survey_june, ranking)
        before = archive_state(root)
        stray = root / "live" / f"{self.LIVE}.r2.json"
        stray.write_bytes((root / "live" / f"{self.LIVE}.r1.json")
                          .read_bytes())
        reopened = SurveyArchive(root)
        assert not stray.exists()
        assert archive_state(root) == before
        assert reopened.period_meta(self.LIVE)["revision"] == 1
        assert reopened.last_recovery.outcome == "rollback"
        assert reopened.last_recovery.removed == [f"live/{stray.name}"]
        assert SurveyArchive(root).last_recovery.outcome == "clean"

    def test_stray_older_revision_removed(
        self, tmp_path, survey_june, ranking
    ):
        root = tmp_path / "arc"
        self.checkpointed(root, survey_june, ranking, times=2)
        before = archive_state(root)
        stray = root / "live" / f"{self.LIVE}.r1.json"
        stray.write_bytes((root / "live" / f"{self.LIVE}.r2.json")
                          .read_bytes())
        reopened = SurveyArchive(root)
        assert not stray.exists()
        assert archive_state(root) == before
        assert reopened.period_meta(self.LIVE)["revision"] == 2
        assert reopened.last_recovery.outcome == "roll-forward"

    def test_uncommitted_finalize_documents_removed(
        self, tmp_path, survey_june, ranking
    ):
        root = tmp_path / "arc"
        self.checkpointed(root, survey_june, ranking)
        before = archive_state(root)
        # Die at the manifest write (op 4, after the period document
        # and index): both documents are on disk, the flip is not.
        crashing = SurveyArchive(
            root, io=CrashingIO(CrashPlan(4))
        ).begin_live_period(self.LIVE)
        with pytest.raises(SimulatedCrash):
            crashing.finalize(survey_june, ranking=ranking)
        assert (root / "periods" / f"{self.LIVE}.json").exists()
        assert (root / "index" / f"{self.LIVE}.json").exists()
        # Even before recovery, fsck calls them orphans, not data.
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
        """A pending ``commit-partial`` journal from the journaled
        live protocol names the committed revision in ``retire``;
        recovery must acknowledge it without acting on its lists."""
        root = tmp_path / "arc"
        self.checkpointed(root, survey_june, ranking)
        live, sidecar = legacy_revision(root, self.LIVE, 1)
        record = {
            "format": JOURNAL_FORMAT, "schema": 1,
            "op": "commit-partial", "period": self.LIVE,
            "checksum": "cafe",
            "files": [f"live/{self.LIVE}.r2.json",
                      f"live/{self.LIVE}.r2.index.json"],
            "retire": [f"live/{self.LIVE}.r1.json",
                       f"live/{self.LIVE}.r1.index.json"],
            "revision": 2,
        }
        record["journal_checksum"] = _record_checksum(record)
        journal = root / CommitJournal.FILENAME
        journal.write_text(json.dumps(record))
        torn = root / "live" / f"{self.LIVE}.r2.json"
        torn.write_text('{"schema": 1, "chec')

        reopened = SurveyArchive(root)
        assert live.exists() and sidecar.exists()
        assert not torn.exists() and not journal.exists()
        assert reopened.last_recovery.outcome == "rollback"
        assert reopened.period_meta(self.LIVE)["revision"] == 1
        assert reopened.asns_in_country(self.LIVE, "JP") == [100]
        assert run_fsck(root).exit_code == EXIT_CLEAN

    def test_legacy_pending_finalize_acknowledged(
        self, tmp_path, survey_june, ranking
    ):
        """Same for a ``finalize`` intent whose flip landed: the live
        files it listed to retire are left over, the reconcile
        removes them, the finalized period is untouched."""
        root = tmp_path / "arc"
        archive = self.checkpointed(root, survey_june, ranking)
        legacy_revision(root, self.LIVE, 1)
        leftovers = sorted(p.name for p in (root / "live").iterdir())
        archive.io = CrashingIO(CrashPlan(6))  # dies at the retire
        writer = archive.begin_live_period(self.LIVE)
        with pytest.raises(SimulatedCrash):
            writer.finalize(survey_june, ranking=ranking)
        record = {
            "format": JOURNAL_FORMAT, "schema": 1, "op": "finalize",
            "period": self.LIVE, "checksum": "cafe",
            "files": [f"periods/{self.LIVE}.json",
                      f"index/{self.LIVE}.json"],
            "retire": [f"live/{name}" for name in leftovers],
        }
        record["journal_checksum"] = _record_checksum(record)
        (root / CommitJournal.FILENAME).write_text(json.dumps(record))

        reopened = SurveyArchive(root)
        assert reopened.last_recovery.outcome == "roll-forward"
        assert not list((root / "live").iterdir())
        assert reopened.period_meta(self.LIVE)["repr"] == "json"
        assert (root / "periods" / f"{self.LIVE}.json").exists()
        assert run_fsck(root).exit_code == EXIT_CLEAN

    def test_legacy_two_file_revision_read_then_retired(
        self, tmp_path, survey_june, ranking
    ):
        root = tmp_path / "arc"
        self.checkpointed(root, survey_june, ranking)
        live, sidecar = legacy_revision(root, self.LIVE, 1)
        assert run_fsck(root).exit_code == EXIT_CLEAN

        reopened = SurveyArchive(root)
        assert reopened.last_recovery.outcome == "clean"
        assert reopened.get_period(self.LIVE)["period"]["name"] == (
            self.LIVE
        )
        assert reopened.asns_in_country(self.LIVE, "JP") == [100]
        writer = reopened.begin_live_period(self.LIVE)
        assert writer.commit_partial(survey_june, ranking=ranking) == 2
        assert not live.exists() and not sidecar.exists()
        assert sorted(p.name for p in (root / "live").iterdir()) == [
            f"{self.LIVE}.r2.json"
        ]
        assert run_fsck(root).exit_code == EXIT_CLEAN

    def test_legacy_revision_without_sidecar_refused(
        self, tmp_path, survey_june, ranking
    ):
        """A payload-only wrapper is never read as a whole revision:
        without its sidecar the index read fails loudly."""
        root = tmp_path / "arc"
        self.checkpointed(root, survey_june, ranking)
        _live, sidecar = legacy_revision(root, self.LIVE, 1)
        sidecar.unlink()
        reopened = SurveyArchive(root)
        with pytest.raises(ArchiveCorruptionError, match="missing"):
            reopened.asns_in_country(self.LIVE, "JP")
        report = run_fsck(root)
        assert [f.kind for f in report.errors] == ["index"]


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
        """(ops before checkpoint 2, its op count, its manifest op)."""
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
        manifest_op = next(
            i for i, op in enumerate(io.ops[base:])
            if op.kind == "replace" and "MANIFEST" in op.path
        )
        return base, len(io.ops) - base, manifest_op

    @pytest.mark.parametrize("which", ["first-write", "post-manifest"])
    def test_sigkill_mid_checkpoint(self, tmp_path, which):
        base, count, manifest_op = self.measured(tmp_path)
        offset = 0 if which == "first-write" else manifest_op + 1
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
        (0, 7),    # torn journal temp write
        (3, None), # died before the period rename
        (7, None), # died before the manifest flip
        (8, None), # died before journal acknowledgment (committed!)
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
        if op_index >= 8:
            assert "2019-06" in reopened
            assert reopened.last_recovery.outcome == "roll-forward"
        else:
            assert "2019-06" not in reopened
        report = run_fsck(root, repair=False)
        assert report.exit_code == EXIT_CLEAN
