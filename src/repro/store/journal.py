"""Write-ahead commit journal and crash recovery for the survey archive.

The archive's manifest rewrite is the commit point; everything before
it must be undoable and everything after it redoable.  For a plain
ingest and an anomaly-report attach — one commit per period — the
journal makes that mechanical.  An ingest runs::

    1. JOURNAL.json     <- intent record (period, checksum, file list)
    2. periods/<n>.json <- payload           (atomic write)
    3. index/<n>.json   <- secondary indexes (atomic write)
    4. MANIFEST.json    <- entry added       (atomic write: COMMIT)
    5. JOURNAL.json     <- removed           (commit acknowledged)

Every step is a temp-file write + rename, so a crash at *any* byte
boundary leaves each file either old or new — and the journal names
exactly which files a half-done commit may have touched.  Recovery on
open (:func:`recover`) is then a pure function of on-disk state:

* no journal                     → nothing in flight, sweep stale tmps;
* journal + period in manifest   → crash after step 4: the commit
  happened, acknowledge it (roll forward = drop the journal);
* journal + period not committed → crash inside steps 1–4: roll back
  by deleting the files the intent names (complete or torn, they are
  uncommitted by definition) — the archive is byte-for-byte the
  pre-commit state;
* journal fails its checksum     → a torn journal never becomes
  visible (atomic write), so this is at-rest corruption of an
  interrupted commit's intent; the manifest is still authoritative,
  quarantine the journal and roll back any uncommitted files it can
  no longer name via the tmp sweep.

No reader ever consults anything but the manifest, so mid-commit
states are invisible to queries even *before* recovery runs.

Live-period checkpoints and finalizes run *without* a journal.  Every
file they create is named by (period, revision) alone and the
manifest names the committed revision, so the manifest is all
recovery needs: :func:`reconcile_live` deletes whatever a dead live
writer left that the manifest does not name.  A checkpoint is then
two atomic writes (the revision file, the manifest) and one remove
(the previous revision) — on ext4 the cost of a commit is the files
it frees, not the bytes it writes.  A pending journal with op
``commit-partial`` or ``finalize`` (written by the journaled live
protocol of earlier versions) is acknowledged without acting on its
file lists: the reconcile decides, and acting on the record's
``retire`` list could delete a revision the manifest still names.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..parallel.cache import canonical_json
from .io import REAL_IO, StoreIO, is_tmp

JOURNAL_FORMAT = "repro-archive-journal"

#: Journal schema; bump with the record layout.
JOURNAL_SCHEMA = 1


def _record_checksum(record: Dict) -> str:
    import hashlib

    body = {k: v for k, v in record.items() if k != "journal_checksum"}
    return hashlib.sha256(
        canonical_json(body).encode("ascii")
    ).hexdigest()


class TornJournal(Exception):
    """The journal file exists but fails parse or checksum."""


@dataclass
class RecoveryReport:
    """What one recovery pass found and did."""

    #: clean | roll-forward | rollback | torn-journal | acknowledged
    outcome: str = "clean"
    period: Optional[str] = None
    removed: List[str] = field(default_factory=list)
    swept_tmp: List[str] = field(default_factory=list)

    @property
    def acted(self) -> bool:
        return self.outcome != "clean" or bool(self.swept_tmp)

    def as_dict(self) -> Dict:
        return {
            "outcome": self.outcome,
            "period": self.period,
            "removed": list(self.removed),
            "swept_tmp": list(self.swept_tmp),
        }


class CommitJournal:
    """The archive's single-slot write-ahead intent record.

    Single-slot is deliberate: the archive serializes commits (one
    writer per archive directory), so at most one intent is ever in
    flight and recovery never has to order a log.
    """

    FILENAME = "JOURNAL.json"

    def __init__(self, root: Path, io: StoreIO = REAL_IO):
        self.root = Path(root)
        self.io = io

    @property
    def path(self) -> Path:
        return self.root / self.FILENAME

    # -- writer side ---------------------------------------------------

    def begin(
        self, op: str, period: str, checksum: str, files: List[str]
    ) -> Dict:
        """Durably record intent before any data file is touched."""
        record = {
            "format": JOURNAL_FORMAT,
            "schema": JOURNAL_SCHEMA,
            "op": op,
            "period": period,
            "checksum": checksum,
            "files": list(files),
        }
        record["journal_checksum"] = _record_checksum(record)
        self.io.write_atomic(
            self.path, json.dumps(record, indent=1).encode("ascii")
        )
        return record

    def clear(self) -> None:
        """Acknowledge the commit: retire the intent record."""
        self.io.remove(self.path)

    # -- recovery side -------------------------------------------------

    def pending(self) -> Optional[Dict]:
        """The in-flight intent, verified; None when no commit is open.

        Raises :class:`TornJournal` when the file exists but fails
        parse or checksum — at-rest corruption, since the journal
        write itself is atomic.
        """
        try:
            raw = self.path.read_text()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise TornJournal(f"journal unreadable: {exc}") from None
        try:
            record = json.loads(raw)
        except ValueError as exc:
            raise TornJournal(f"journal does not parse: {exc}") from None
        if (
            not isinstance(record, dict)
            or record.get("format") != JOURNAL_FORMAT
            or record.get("journal_checksum") != _record_checksum(record)
        ):
            raise TornJournal("journal fails its checksum")
        return record


def sweep_tmp_files(
    root: Path,
    io: StoreIO = REAL_IO,
    subdirs: tuple = (
        "", "periods", "index", "segments", "live", "anomalies",
    ),
) -> List[str]:
    """Remove temp files torn atomic writes left behind (any pid)."""
    swept: List[str] = []
    for sub in subdirs:
        directory = root / sub if sub else root
        if not directory.is_dir():
            continue
        for path in sorted(directory.iterdir()):
            if path.is_file() and is_tmp(path):
                io.remove(path)
                swept.append(str(path.relative_to(root)))
    return swept


#: Journal ops of the earlier journaled live protocol; recovery
#: acknowledges them and leaves the files to :func:`reconcile_live`.
LIVE_OPS = ("commit-partial", "finalize")


def _flip_happened(record: Dict, entry: Optional[Dict]) -> bool:
    """Did the manifest flip this intent describes actually land?

    Plain ingests create their period's entry, so presence is proof.
    An anomaly-report attach adds an ``anomalies`` sub-entry to an
    existing period: the flip landed iff the sub-entry is present and
    names this intent's checksum (the period entry itself predates
    the intent, so mere presence proves nothing).
    """
    if record.get("op", "ingest") == "anomaly":
        return (
            entry is not None
            and entry.get("anomalies", {}).get("checksum")
            == record["checksum"]
        )
    return entry is not None


def recover(
    root: Path,
    committed_entry_of,
    io: StoreIO = REAL_IO,
    quarantine=None,
) -> RecoveryReport:
    """Replay or roll back whatever a dead writer left in ``root``.

    ``committed_entry_of(period) -> Optional[Dict]`` answers with the
    period's manifest entry from the already-loaded manifest (the
    commit point of record); ``quarantine(path)``, when given,
    receives a corrupt journal before it is dropped so the evidence
    survives.  Idempotent: running recovery twice is a no-op the
    second time.
    """
    journal = CommitJournal(root, io)
    report = RecoveryReport()
    try:
        record = journal.pending()
    except TornJournal:
        if quarantine is not None:
            quarantine(journal.path)
        io.remove(journal.path)  # best effort if quarantine declined
        report.outcome = "torn-journal"
        report.swept_tmp = sweep_tmp_files(root, io)
        return report
    if record is None:
        report.swept_tmp = sweep_tmp_files(root, io)
        return report

    report.period = record["period"]
    if record.get("op") in LIVE_OPS:
        report.outcome = "acknowledged"
    elif _flip_happened(record, committed_entry_of(record["period"])):
        # Crash landed between manifest flip and acknowledgment: the
        # commit is real, acknowledge it.  (The manifest wins and fsck
        # arbitrates content, so never delete committed files.)
        report.outcome = "roll-forward"
    else:
        # Crash landed before the flip: the intent names every file
        # this commit may have created; deleting them (idempotently)
        # restores the exact pre-commit state.
        report.outcome = "rollback"
        for relative in record["files"]:
            target = root / relative
            if target.exists():
                io.remove(target)
                report.removed.append(relative)
    report.swept_tmp = sweep_tmp_files(root, io)
    journal.clear()
    return report


#: A live revision's file: ``<period>.r<k>.json``, or the
#: ``<period>.r<k>.index.json`` sidecar of the earlier two-file layout.
LIVE_FILE = re.compile(
    r"^(?P<period>.+)\.r(?P<revision>\d+)(?:\.index)?\.json$"
)


def committed_revision(entry: Optional[Dict]) -> Optional[int]:
    """The revision a manifest entry commits; None unless it is live."""
    if entry is None or entry.get("repr") != "live":
        return None
    return entry.get("revision")


def reconcile_live(
    root: Path, periods: Dict[str, Dict], io: StoreIO = REAL_IO
) -> RecoveryReport:
    """Delete what a dead live-period writer left, by the manifest.

    ``periods`` is the loaded manifest's period map.  Two rules, both
    pure functions of disk state (a second pass finds nothing to do):

    * every ``live/`` revision file that is not the committed
      revision of a ``repr: "live"`` entry goes — a newer one is an
      uncommitted checkpoint (rollback), an older one a retired
      revision whose removal the crash cut short (roll-forward);
    * a period still live in the manifest owns no ``periods/`` or
      ``index/`` document — one there is an uncommitted finalize
      (rollback).

    Names that are not live revision files are left for fsck.
    """
    report = RecoveryReport()

    def drop(relative: str, period: str, ahead: bool) -> None:
        io.remove(root / relative)
        report.removed.append(relative)
        if report.outcome != "rollback":
            report.outcome = "rollback" if ahead else "roll-forward"
            report.period = period

    live_dir = root / "live"
    if live_dir.is_dir():
        for path in sorted(live_dir.iterdir()):
            match = LIVE_FILE.match(path.name)
            if match is None or not path.is_file() or is_tmp(path):
                continue
            entry = periods.get(match["period"])
            committed = committed_revision(entry)
            revision = int(match["revision"])
            if revision == committed:
                continue
            ahead = entry is None or (
                committed is not None and revision > committed
            )
            drop(f"live/{path.name}", match["period"], ahead)
    for name in sorted(periods):
        if committed_revision(periods[name]) is None:
            continue
        for relative in (f"periods/{name}.json", f"index/{name}.json"):
            if (root / relative).exists():
                drop(relative, name, ahead=True)
    return report
