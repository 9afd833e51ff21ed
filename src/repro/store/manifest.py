"""The archive's committed state: two manifest slots rewritten in place.

One commit rule holds for every archive mutation — ingest, anomaly
attach, live checkpoint, finalize, abort and fsck repair: new files
(a period's segment, an anomaly report) land under names no committed
state uses, then the manifest record is written in place into the
older of two slot files.
That in-place write is the commit point.  A commit renames only onto
fresh names and never truncates, so it frees no blocks (DESIGN.md §12
has the measured cost of freeing).

Slot file layout (``MANIFEST.a`` / ``MANIFEST.b``)::

    magic    8 bytes   b"RPMANIF1"
    seq      8 bytes   big-endian commit sequence number
    length   8 bytes   big-endian body length
    digest  32 bytes   SHA-256 over magic, seq, length and body
    body     <length>  the manifest as JSON
    ...                stale tail of an earlier, longer record

On open the valid slot with the higher sequence number wins, like
LMDB's two meta pages.  Once a new record is durable the writer
retires the other slot by zeroing its first byte, so the state a
commit superseded is never again readable as committed: at rest
exactly one slot is valid, and "no valid slot" is the only manifest
corruption.  A torn or retired slot is expected state and is never
quarantined.  A reader racing a writer can find the newer slot
mid-rewrite and the older one just retired; it re-reads a bounded
number of times before calling the manifest corrupt.

Recovery on open is one rule, shared with fsck's orphan check so the
two cannot disagree: every file under ``segments/`` and
``anomalies/`` that the manifest does not account for
(:func:`accounted`) is deleted — a commit that never reached its slot
rolls back — and stale temp files are swept.  Recovery runs only
under the archive lock, which a writer holds for the whole of each
commit, so an opener never deletes the files of a commit still in
flight in another process.  Under the same lock a
commit first checks that the slot it holds as current is unchanged:
a record carries the whole manifest, so a handle that loaded before
another writer's commit would drop that commit, and is refused
(:class:`~repro.store.errors.ArchiveChangedError`) before it writes.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import struct
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..obs import get_observer
from .errors import (
    ArchiveChangedError,
    ArchiveCorruptionError,
    SchemaVersionError,
)
from .io import REAL_IO, StoreIO, is_tmp

#: On-disk schema this build reads and writes.  Bump on any layout or
#: payload change that old readers would misinterpret.  2: a finalized
#: period is its packed segment only (no ``periods/``/``index/``
#: documents).
SCHEMA_VERSION = 2

ARCHIVE_FORMAT = "repro-archive"

SLOT_NAMES = ("MANIFEST.a", "MANIFEST.b")

MAGIC = b"RPMANIF1"

#: magic, seq, body length, digest.
HEADER = struct.Struct(">8sQQ32s")

#: Written over a slot's first byte to retire it (MAGIC starts nonzero).
RETIRED = b"\x00"

#: Reads of both slots an open makes before it calls the manifest
#: corrupt, and the pause between them: a concurrent writer's in-place
#: rewrite plus fsync takes well under a millisecond.
READ_ATTEMPTS = 5
RETRY_S = 0.002

#: Directories holding committed files; their file names are derived
#: from the period name.
DATA_DIRS = ("segments", "anomalies")

#: Layouts of earlier versions, refused on open: (root entry, name).
OLDER_LAYOUTS = (
    ("MANIFEST.json", "single-file MANIFEST.json layout"),
    ("JOURNAL.json", "write-ahead JOURNAL.json layout"),
    ("live", "live/ revision-file layout"),
)

#: What :func:`read_slot` answers besides a decoded record.
MISSING, RETIRED_SLOT, TORN = "missing", "retired", "torn"


def empty_manifest() -> Dict:
    return {
        "format": ARCHIVE_FORMAT,
        "schema": SCHEMA_VERSION,
        "periods": {},
        "live": {},
    }


def encode_record(seq: int, manifest: Dict) -> bytes:
    """One slot record: header, then the manifest as JSON."""
    body = json.dumps(manifest, separators=(",", ":")).encode("ascii")
    head = MAGIC + struct.pack(">QQ", seq, len(body))
    digest = hashlib.sha256(head + body).digest()
    return head + digest + body


def read_slot(path: Path):
    """``(seq, manifest, header bytes)`` of a valid slot, else MISSING,
    RETIRED_SLOT or TORN (a record that fails its digest, e.g. a torn
    rewrite)."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return MISSING
    if not raw or raw[:1] == RETIRED:
        return RETIRED_SLOT
    if len(raw) < HEADER.size:
        return TORN
    magic, seq, length, digest = HEADER.unpack_from(raw)
    body = raw[HEADER.size:HEADER.size + length]
    if (
        magic != MAGIC
        or len(body) != length
        or hashlib.sha256(raw[:24] + body).digest() != digest
    ):
        return TORN
    return seq, json.loads(body), raw[:HEADER.size]


def read_manifest(root: Path) -> Dict:
    """The committed manifest of ``root``, read-only (no recovery)."""
    return ManifestSlots(Path(root)).load()


class ManifestSlots:
    """The two slot files of one archive root and the archive lock."""

    def __init__(self, root: Path, io: StoreIO = REAL_IO):
        self.root = root
        self.io = io
        #: Slot index holding the committed record (None: no slot yet).
        self.current: Optional[int] = None
        self.seq = 0
        #: That record's header as this handle last read or wrote it.
        self.header = b""

    def path(self, index: int) -> Path:
        return self.root / SLOT_NAMES[index]

    def load(self) -> Dict:
        """The committed manifest; picks the newest valid slot.

        Raises :class:`SchemaVersionError` for an older layout or
        schema, and :class:`ArchiveCorruptionError` when no slot is
        valid — or no slot exists but data files do.
        """
        for entry, layout in OLDER_LAYOUTS:
            if (self.root / entry).exists():
                raise SchemaVersionError(
                    layout, "two-slot manifest (MANIFEST.a, MANIFEST.b)"
                )
        for attempt in range(READ_ATTEMPTS):
            states = [read_slot(self.path(i)) for i in (0, 1)]
            if states == [MISSING, MISSING]:
                if unaccounted(self.root, empty_manifest()):
                    raise ArchiveCorruptionError(
                        self.path(0),
                        "manifest slots missing but period data present",
                    )
                self.current, self.seq = None, 0
                return empty_manifest()
            valid = [
                (state[0], index) for index, state in enumerate(states)
                if isinstance(state, tuple)
            ]
            if valid:
                self.seq, self.current = max(valid)
                _, manifest, self.header = states[self.current]
                if manifest.get("schema") != SCHEMA_VERSION:
                    raise SchemaVersionError(
                        manifest.get("schema"), SCHEMA_VERSION
                    )
                if TORN in states:
                    get_observer().counter(
                        "store_manifest_fallback_total",
                        "archive opens that found the newest manifest "
                        "slot torn and used the other one",
                    ).inc()
                return manifest
            time.sleep(RETRY_S)
        raise ArchiveCorruptionError(
            self.path(0), "no valid manifest slot"
        )

    @contextmanager
    def locked(self, blocking: bool = True) -> Iterator[bool]:
        """Hold the archive's exclusive lock (a ``flock`` on the root).

        Yields False, holding nothing, when ``blocking`` is off and
        another process holds it.  The kernel drops the lock with the
        process, so a dead writer never leaves the archive locked.
        """
        fd = os.open(self.root, os.O_RDONLY)
        try:
            try:
                fcntl.flock(
                    fd,
                    fcntl.LOCK_EX if blocking
                    else fcntl.LOCK_EX | fcntl.LOCK_NB,
                )
            except BlockingIOError:
                yield False
            else:
                yield True
        finally:
            os.close(fd)

    @contextmanager
    def writing(self) -> Iterator[None]:
        """Hold the lock for one commit.

        The first commit of a new archive first writes the empty
        manifest into slot a, so data files never exist on disk
        without a slot to say whether they are committed.
        """
        with self.locked():
            self._refuse_if_changed()
            if self.current is None:
                record = encode_record(1, empty_manifest())
                self.io.write_atomic(self.path(0), record)
                self.current, self.seq = 0, 1
                self.header = record[:HEADER.size]
            yield

    def changed(self) -> bool:
        """Whether another handle has committed since this one last
        loaded or wrote: any commit retires or rewrites the slot this
        handle holds as current, so its header no longer matches."""
        if self.current is None:
            return any(self.path(i).exists() for i in (0, 1))
        try:
            with open(self.path(self.current), "rb") as handle:
                return handle.read(HEADER.size) != self.header
        except FileNotFoundError:
            return True

    def _refuse_if_changed(self) -> None:
        """Raise :class:`ArchiveChangedError` when another writer has
        committed since this handle loaded."""
        if self.changed():
            raise ArchiveChangedError(self.root)

    def commit(self, manifest: Dict) -> None:
        """Write ``manifest`` into the older slot, then retire the
        newer one.  Call inside :meth:`writing`."""
        target = 1 - self.current
        record = encode_record(self.seq + 1, manifest)
        path = self.path(target)
        if path.exists():
            self.io.write_in_place(path, record)  # <- the commit point
        else:
            self.io.write_atomic(path, record)    # <- the commit point
        self.io.write_in_place(self.path(self.current), RETIRED)
        self.current, self.seq = target, self.seq + 1
        self.header = record[:HEADER.size]


# -- recovery ----------------------------------------------------------


def accounted(manifest: Dict) -> Set[str]:
    """Archive-relative paths of every file the manifest commits.

    A live period owns no file (its payload and index ride in the
    manifest record); a finalized period owns its segment and, once
    attached, its anomaly report.
    """
    paths: Set[str] = set()
    for name, entry in manifest["periods"].items():
        if entry.get("repr") == "live":
            continue
        paths.add(f"segments/{name}.seg")
        if "anomalies" in entry:
            paths.add(f"anomalies/{name}.json")
    return paths


def unaccounted(root: Path, manifest: Dict) -> List[str]:
    """Files under the data directories the manifest does not account
    for, archive-relative, sorted."""
    expected = accounted(manifest)
    found = []
    for sub in DATA_DIRS:
        directory = root / sub
        if not directory.is_dir():
            continue
        for path in sorted(directory.iterdir()):
            relative = f"{sub}/{path.name}"
            if (
                path.is_file() and not is_tmp(path)
                and relative not in expected
            ):
                found.append(relative)
    return found


def sweep_tmp_files(
    root: Path,
    io: StoreIO = REAL_IO,
    subdirs: Tuple[str, ...] = ("",) + DATA_DIRS,
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


@dataclass
class RecoveryReport:
    """What one recovery pass found and did."""

    #: clean | rollback
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


def recover(
    root: Path, manifest: Dict, io: StoreIO = REAL_IO
) -> RecoveryReport:
    """Delete what a dead writer left that ``manifest`` does not commit.

    A commit writes its files before its slot, so everything
    unaccounted is an uncommitted commit's output: the commit rolls
    back.  Idempotent.
    """
    report = RecoveryReport()
    for relative in unaccounted(root, manifest):
        io.remove(root / relative)
        report.removed.append(relative)
        if report.outcome == "clean":
            report.outcome = "rollback"
            report.period = relative.split("/", 1)[1].rsplit(".", 1)[0]
    report.swept_tmp = sweep_tmp_files(root, io)
    return report


def quarantine(
    root: Path, path: Path, io: StoreIO = REAL_IO
) -> Optional[str]:
    """Move ``path`` under ``quarantine/``, keeping its archive-relative
    path and never replacing a file already quarantined there (a
    repeat gets a ``.1``, ``.2``, ... suffix).  Returns the relative
    target, or None when the move failed."""
    target = root / "quarantine" / path.relative_to(root)
    candidate, copies = target, 0
    while candidate.exists():
        copies += 1
        candidate = target.with_name(f"{target.name}.{copies}")
    try:
        candidate.parent.mkdir(parents=True, exist_ok=True)
        io.replace(path, candidate)
    except OSError:
        return None
    return str(candidate.relative_to(root))
