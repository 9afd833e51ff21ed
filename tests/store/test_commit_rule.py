"""The one commit rule: archive commits free no blocks, and the slots.

Every archive commit writes its documents under fresh names, then one
manifest record in place into the older slot, then retires the other
slot (DESIGN.md §12).  These tests pin what the crash matrices in
``test_journal.py`` do not: that no commit frees a block, that at rest
exactly one slot is valid, that a superseded state never comes back,
and that a reader in another process never fails, never writes and
never goes back in time while a writer checkpoints.
"""

import datetime as dt
import multiprocessing
import time

import pytest

from repro.core import Severity
from repro.faults import (
    CrashingIO,
    CrashPlan,
    RecordingIO,
    SimulatedCrash,
    flip_bit,
)
from repro.obs import observed
from repro.store import (
    EXIT_CLEAN,
    ArchiveChangedError,
    ArchiveCorruptionError,
    SurveyArchive,
    run_fsck,
)
from repro.store.manifest import SLOT_NAMES, read_slot
from tests.store.conftest import make_ranking, make_survey
from tests.store.test_anomaly_artifacts import make_anomaly_payload

LIVE = "2019-06"


def survey(name, severity=Severity.SEVERE):
    starts = {"2019-03": dt.datetime(2019, 3, 1),
              "2019-06": dt.datetime(2019, 6, 1),
              "2019-09": dt.datetime(2019, 9, 1)}
    return make_survey(name, starts[name], {
        100: severity, 200: Severity.LOW, 300: Severity.NONE,
    })


def valid_slots(root):
    return [
        name for name in SLOT_NAMES
        if isinstance(read_slot(root / name), tuple)
    ]


class TestCommitsFreeNothing:
    def test_no_commit_frees_a_block(self, tmp_path):
        root = tmp_path / "arc"
        io = RecordingIO()
        archive = SurveyArchive(root, io=io)
        ranking = make_ranking()
        writer = None

        def checkpoint():
            writer.commit_partial(survey(LIVE, Severity.MILD))

        def begin_and_checkpoint():
            nonlocal writer
            writer = archive.begin_live_period(LIVE)
            checkpoint()

        commits = [
            ("first ingest",
             lambda: archive.ingest(survey("2019-03"), ranking=ranking)),
            ("second ingest",
             lambda: archive.ingest(survey("2019-09"), ranking=ranking)),
            ("anomaly attach",
             lambda: archive.ingest_anomalies(
                 "2019-03", make_anomaly_payload("2019-03")
             )),
            ("checkpoint 1", begin_and_checkpoint),
            ("checkpoint 2", checkpoint),
            ("checkpoint 3", checkpoint),
            ("finalize",
             lambda: writer.finalize(survey(LIVE), ranking=ranking)),
            ("abort", lambda: (
                archive.begin_live_period("2019-12").commit_partial(
                    make_survey("2019-12", dt.datetime(2019, 12, 1), {
                        100: Severity.LOW,
                    })
                ),
                archive.begin_live_period("2019-12").abort(),
            )),
        ]
        for what, commit in commits:
            io.ops.clear()
            commit()
            freed = [op for op in io.ops if op.frees]
            assert freed == [], f"{what} freed {freed}"
            assert len(valid_slots(root)) == 1, what
        assert archive.periods() == ["2019-03", LIVE, "2019-09"]
        assert run_fsck(root).exit_code == EXIT_CLEAN

    def test_finished_stream_leaves_slots_and_documents(self, tmp_path):
        from repro.stream import StreamingSurvey, dataset_to_records
        from repro.scenarios import generate_specs
        from tests.stream.conftest import PERIOD, seeded_dataset

        specs = generate_specs(num_ases=3, num_countries=3, seed=5)
        dataset, table = seeded_dataset(specs)
        records = dataset_to_records(dataset)
        engine = StreamingSurvey(PERIOD, table=table)
        root = tmp_path / "arc"
        writer = SurveyArchive(root).begin_live_period(PERIOD.name)
        step = max(1, len(records) // 4)
        for start in range(0, len(records), step):
            writer.append(engine.ingest_many(records[start:start + step]))
            writer.commit_partial(engine.emit_partial())
        writer.finalize(engine.finalize())
        assert writer.revision >= 3
        assert sorted(
            str(p.relative_to(root)) for p in root.rglob("*")
            if p.is_file()
        ) == [
            "MANIFEST.a", "MANIFEST.b", f"segments/{PERIOD.name}.seg",
        ]


class TestSupersededState:
    def test_superseded_state_never_readable_as_committed(self, tmp_path):
        """Once a checkpoint returns, the other slot is retired: if the
        committed record then rots, the archive reports corruption
        rather than serving the revision it superseded."""
        root = tmp_path / "arc"
        writer = SurveyArchive(root).begin_live_period(LIVE)
        writer.commit_partial(survey(LIVE))
        writer.commit_partial(survey(LIVE, Severity.MILD))
        (newest,) = valid_slots(root)
        flip_bit(root / newest, offset=100, bit=0)
        with pytest.raises(ArchiveCorruptionError, match="no valid"):
            SurveyArchive(root)
        assert not (root / "quarantine").exists()


class TestStaleWriter:
    """A commit rewrites the whole manifest, so a handle that loaded
    before another writer's commit is refused before it writes
    anything, instead of dropping that commit."""

    @pytest.mark.parametrize("behind", [1, 2])
    def test_stale_handle_refused(self, tmp_path, behind):
        root = tmp_path / "arc"
        first = SurveyArchive(root)
        first.ingest(survey("2019-03"))
        stale = SurveyArchive(root)
        fresh = SurveyArchive(root)
        fresh.ingest(survey("2019-09"))
        if behind == 2:
            fresh.ingest_anomalies(
                "2019-09", make_anomaly_payload("2019-09")
            )
        before = sorted(p.name for p in root.rglob("*"))
        with pytest.raises(ArchiveChangedError):
            stale.ingest(survey(LIVE))
        with pytest.raises(ArchiveChangedError):
            stale.begin_live_period(LIVE).commit_partial(survey(LIVE))
        assert sorted(p.name for p in root.rglob("*")) == before
        reopened = SurveyArchive(root)
        assert reopened.periods() == ["2019-03", "2019-09"]
        reopened.ingest(survey(LIVE))
        assert SurveyArchive(root).periods() == [
            "2019-03", LIVE, "2019-09",
        ]

    def test_stale_handle_of_a_new_archive_refused(self, tmp_path):
        root = tmp_path / "arc"
        stale = SurveyArchive(root)
        SurveyArchive(root).ingest(survey("2019-03"))
        with pytest.raises(ArchiveChangedError):
            stale.ingest(survey("2019-09"))
        assert SurveyArchive(root).periods() == ["2019-03"]


class TestOpenObservability:
    def test_store_open_span_and_fallback_counter(self, tmp_path):
        """One scrape shows a torn commit rolled back: the open that
        found the newest slot torn counts a fallback."""
        root = tmp_path / "arc"
        SurveyArchive(root).ingest(survey("2019-03"))
        with observed() as obs:
            SurveyArchive(root)
        fallback = "store_manifest_fallback_total"
        assert len(obs.tracer.find("store-open")) == 1
        assert obs.metrics.counter(fallback, "").value() == 0

        # Second ingest: the segment (ops 0-1), then the record torn
        # 100 bytes into the older slot.
        crashing = SurveyArchive(
            root, io=CrashingIO(CrashPlan(2, byte_offset=100))
        )
        with pytest.raises(SimulatedCrash):
            crashing.ingest(survey("2019-09"))
        with observed() as obs:
            reopened = SurveyArchive(root)
        assert obs.metrics.counter(fallback, "").value() == 1
        assert reopened.periods() == ["2019-03"]
        assert reopened.last_recovery.outcome == "rollback"


class TestReread:
    """An open that finds no valid slot — a writer's new record not yet
    readable and the old one just retired — reads both again."""

    def test_open_rereads_until_a_slot_is_valid(
        self, tmp_path, monkeypatch
    ):
        from repro.store import manifest

        root = tmp_path / "arc"
        SurveyArchive(root).ingest(survey("2019-03"))
        real, calls = manifest.read_slot, []

        def racing(path):
            calls.append(path.name)
            return manifest.RETIRED_SLOT if len(calls) <= 4 else real(path)

        monkeypatch.setattr(manifest, "read_slot", racing)
        assert SurveyArchive(root).periods() == ["2019-03"]
        assert len(calls) == 6

    def test_open_gives_up_after_bounded_rereads(
        self, tmp_path, monkeypatch
    ):
        from repro.store import manifest

        root = tmp_path / "arc"
        SurveyArchive(root).ingest(survey("2019-03"))
        calls = []

        def retired(path):
            calls.append(path.name)
            return manifest.RETIRED_SLOT

        monkeypatch.setattr(manifest, "read_slot", retired)
        with pytest.raises(ArchiveCorruptionError, match="no valid"):
            SurveyArchive(root)
        assert len(calls) == 2 * manifest.READ_ATTEMPTS


def _reader(root, returned, opens, stop, out):
    """Open the archive in a loop until told to stop; report problems."""
    problems = []
    while not stop.is_set():
        floor = returned.value
        io = RecordingIO()
        try:
            archive = SurveyArchive(root, io=io)
        except Exception as exc:  # any failure is a finding to report
            problems.append(f"open raised {exc!r}")
            break
        revision = (
            archive.period_meta(LIVE)["revision"]
            if LIVE in archive else 0
        )
        if revision < floor:
            problems.append(f"saw revision {revision} after {floor}")
        if io.ops:
            problems.append(f"open wrote: {io.ops}")
        if archive.stats.corrupt or (root / "quarantine").exists():
            problems.append("open quarantined")
        with opens.get_lock():
            opens.value += 1
    out.put(problems)


class TestConcurrentReader:
    def test_reader_never_fails_writes_or_goes_back(self, tmp_path):
        root = tmp_path / "arc"
        root.mkdir()
        ctx = multiprocessing.get_context("spawn")
        returned = ctx.Value("i", 0)
        opens = ctx.Value("i", 0)
        stop = ctx.Event()
        out = ctx.Queue()
        reader = ctx.Process(
            target=_reader, args=(root, returned, opens, stop, out),
        )
        reader.start()
        try:
            deadline = time.monotonic() + 10
            while opens.value == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            writer = SurveyArchive(root).begin_live_period(LIVE)
            payloads = [survey(LIVE), survey(LIVE, Severity.MILD)]
            deadline = time.monotonic() + 60
            checkpoints = 0
            while checkpoints < 50 or (
                opens.value < 200 and time.monotonic() < deadline
            ):
                revision = writer.commit_partial(
                    payloads[checkpoints % 2]
                )
                returned.value = revision
                checkpoints += 1
        finally:
            stop.set()
            problems = out.get(timeout=60)
            reader.join(timeout=60)
        assert not reader.is_alive()
        assert problems == []
        assert opens.value >= 200
        assert checkpoints >= 50
        assert len(valid_slots(root)) == 1
