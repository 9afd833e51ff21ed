"""The longitudinal survey archive — durable storage across periods.

The paper's deliverable is a public per-period survey site; this
module is its storage layer: an append-only, schema-versioned on-disk
archive of :func:`~repro.io.surveys.survey_to_dict` payloads, one per
measurement period, with the secondary indexes the serving layer
(:mod:`repro.serve`) queries — by ASN, by country, by severity class.

Layout under the archive root::

    MANIFEST.a, MANIFEST.b  # two manifest slots: the committed state,
                            # live periods' payloads and indexes included
    periods/<name>.json     # checksum-wrapped survey_to_dict payload
    index/<name>.json       # checksum-wrapped severity/country indexes
    segments/<name>.seg     # packed representation after compaction
    anomalies/<name>.json   # checksum-wrapped per-period AnomalyReport
    quarantine/             # corrupted artifacts, moved aside as evidence
                            # under their archive-relative paths

Commit discipline (:mod:`repro.store.manifest`): every document wraps
its payload with a SHA-256 checksum and lands under a name no
committed state uses (temp file + fsync + rename); then the manifest
record is written in place into the older of the two slots — *the
commit point* — and the other slot is retired.  No commit frees a
block.  A process killed at any byte boundary leaves the archive, on
the next open, in exactly the pre- or post-commit state: recovery
deletes every document the manifest does not account for.  A checksum
or parse failure on a document read quarantines it, raises
:class:`ArchiveCorruptionError`, and books the loss in the archive's
:class:`~repro.quality.DataQualityReport` ledger: corrupted data is
reported, never served.  Offline integrity audits and repair live in
:mod:`repro.store.fsck` (``repro store fsck``).

Readers can detect mutation: :attr:`SurveyArchive.generation` bumps on
every ingest, quarantine, recovery action and repair, and when
:meth:`SurveyArchive.refresh` finds a commit made through another
handle, so caches keyed on archive content (the serving layer's LRU)
know when to drop their entries.

Append-only: a committed period is immutable.  Compaction
(:meth:`SurveyArchive.compact`) changes a period's *representation*
(JSON document → packed segment, verified byte-lossless before the
JSON is dropped), never its content.

The one deliberately mutable state is the *live period*
(:meth:`SurveyArchive.begin_live_period`): the archive face of a
streaming survey still in flight.  Its payload and indexes ride inside
the manifest record, so a checkpoint is one in-place slot write.
:meth:`LivePeriodWriter.finalize` promotes the finished period into
the ordinary append-only set: its documents, then the slot.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..obs import get_observer
from ..quality import DataQualityReport, DropReason
from .errors import (
    AnomalyReportExistsError,
    AnomalyReportNotFoundError,
    ArchiveCorruptionError,
    ASNotFoundError,
    LinkNotFoundError,
    PeriodExistsError,
    PeriodNotFoundError,
)
from .io import REAL_IO, StoreIO
from .manifest import (
    SCHEMA_VERSION,
    ManifestSlots,
    RecoveryReport,
    quarantine,
    recover,
)
from .segments import SegmentReader, canonical_json, write_segment

PathLike = Union[str, Path]

STAGE = "store-archive"

#: Environment knob: ``0``/``off``/``false``/``no``/``json`` makes
#: segment readers use seek+read file handles instead of mmap.
STORE_MMAP_ENV = "REPRO_STORE_MMAP"


def store_mmap_enabled() -> bool:
    """True when segment readers should memory-map their files."""
    env = os.environ.get(STORE_MMAP_ENV, "").strip().lower()
    return env not in {"0", "off", "false", "no", "json"}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def payload_checksum(payload: Dict) -> str:
    """Canonical-JSON SHA-256 of a survey payload."""
    return _sha(canonical_json(payload))


def wrap(payload: Dict, checksum: Optional[str] = None) -> bytes:
    """One checksum-wrapped document, serialized.

    ``checksum`` passes the payload's already-computed checksum
    through.
    """
    if checksum is None:
        checksum = payload_checksum(payload)
    entry = {"schema": SCHEMA_VERSION, "checksum": checksum,
             "payload": payload}
    return json.dumps(entry, indent=1).encode("ascii")


def unwrap(raw: bytes) -> Dict:
    """Verify one wrapper's bytes; returns its payload.

    Raises ValueError naming the fault: unparseable bytes, a
    ``schema`` other than :data:`SCHEMA_VERSION`, or a checksum
    mismatch.
    """
    try:
        entry = json.loads(raw)
    except ValueError as exc:
        raise ValueError(f"does not parse: {exc}") from None
    if not isinstance(entry, dict):
        raise ValueError("not a checksum wrapper")
    if entry.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"wrapper schema {entry.get('schema')!r} is not the "
            f"archive's {SCHEMA_VERSION!r}"
        )
    payload = entry.get("payload")
    if payload is None or entry.get("checksum") != payload_checksum(
        payload
    ):
        raise ValueError("checksum mismatch")
    return payload


@dataclass
class ArchiveStats:
    """What one archive object did so far (process-local)."""

    ingests: int = 0
    lookups: int = 0
    segment_lookups: int = 0
    corrupt: int = 0
    compactions: int = 0
    live_commits: int = 0
    anomaly_ingests: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "ingests": self.ingests,
            "lookups": self.lookups,
            "segment_lookups": self.segment_lookups,
            "corrupt": self.corrupt,
            "compactions": self.compactions,
            "live_commits": self.live_commits,
            "anomaly_ingests": self.anomaly_ingests,
        }


class SurveyArchive:
    """Append-only multi-period survey store with secondary indexes."""

    def __init__(self, root: PathLike, io: StoreIO = REAL_IO):
        self.root = Path(root)
        self.io = io
        self.stats = ArchiveStats()
        self.quality = DataQualityReport()
        #: Bumps on every mutation (ingest, quarantine, recovery,
        #: repair, another handle's commit seen by :meth:`refresh`) —
        #: content-derived caches key off it.
        self.generation = 0
        self._readers: Dict[str, SegmentReader] = {}
        #: Warm payloads and indexes, each with the manifest checksum
        #: it was read under; a cached value is used only while its
        #: period's manifest entry still carries that checksum.
        self._payloads: Dict[str, Tuple[str, Dict]] = {}
        self._indexes: Dict[str, Tuple[str, Dict]] = {}
        self._anomalies: Dict[str, Dict] = {}
        self.root.mkdir(parents=True, exist_ok=True)
        self._slots = ManifestSlots(self.root, io)
        with get_observer().span("store-open", root=str(self.root)):
            # Recovery only while no commit is in flight elsewhere:
            # an in-flight commit's documents are not yet accounted.
            with self._slots.locked(blocking=False) as held:
                self._manifest = self._slots.load()
                self.last_recovery = (
                    self._recover() if held else RecoveryReport()
                )

    # -- paths ---------------------------------------------------------

    def period_path(self, name: str) -> Path:
        return self.root / "periods" / f"{name}.json"

    def index_path(self, name: str) -> Path:
        return self.root / "index" / f"{name}.json"

    def segment_path(self, name: str) -> Path:
        return self.root / "segments" / f"{name}.seg"

    def anomalies_path(self, name: str) -> Path:
        return self.root / "anomalies" / f"{name}.json"

    # -- crash recovery ------------------------------------------------

    def _recover(self) -> RecoveryReport:
        """Delete what a dead writer left (runs on open)."""
        report = recover(self.root, self._manifest, io=self.io)
        if report.acted:
            self.generation += 1
            obs = get_observer()
            obs.counter(
                "store_recovery_total",
                "crash-recovery passes by outcome", ("outcome",),
            ).inc(outcome=report.outcome)
            obs.logger.bind(stage=STAGE).warning(
                "crash-recovery", **report.as_dict()
            )
            if report.outcome == "rollback":
                self.quality.drop(
                    STAGE, DropReason.CORRUPT_ARTIFACT,
                    detail=(
                        f"rolled back half-committed period "
                        f"{report.period!r}"
                    ),
                )
        return report

    # -- basic queries -------------------------------------------------

    def __len__(self) -> int:
        return len(self._manifest["periods"])

    def __contains__(self, name: str) -> bool:
        return name in self._manifest["periods"]

    def periods(self) -> List[str]:
        """Committed period names in chronological (start) order."""
        entries = self._manifest["periods"]
        return sorted(entries, key=lambda n: (entries[n]["start"], n))

    def latest(self) -> str:
        """The most recent committed period."""
        names = self.periods()
        if not names:
            raise PeriodNotFoundError("<latest of empty archive>")
        return names[-1]

    def period_meta(self, name: str) -> Dict:
        """Manifest entry of one committed period (a copy)."""
        entry = self._manifest["periods"].get(name)
        if entry is None:
            raise PeriodNotFoundError(name)
        return dict(entry)

    # -- ingest --------------------------------------------------------

    def ingest(self, result, ranking=None) -> str:
        """Commit one period; returns its name.

        ``result`` is a :class:`~repro.core.survey.SurveyResult` or an
        already-serialized ``survey_to_dict`` payload.  ``ranking`` (an
        :class:`~repro.apnic.EyeballRanking`) keys the country index;
        without it, country queries on this period return nothing.
        """
        from ..io.surveys import survey_to_dict

        payload = (
            result if isinstance(result, dict)
            else survey_to_dict(result)
        )
        name = payload["period"]["name"]
        if name in self:
            raise PeriodExistsError(name)
        obs = get_observer()
        with obs.span("store-ingest", period=name), \
                self._slots.writing():
            checksum = payload_checksum(payload)
            self.io.write_atomic(
                self.period_path(name), wrap(payload, checksum)
            )
            self.io.write_atomic(
                self.index_path(name),
                wrap(_build_index(payload, ranking)),
            )
            self._manifest["periods"][name] = {
                "start": payload["period"]["start"],
                "days": payload["period"]["days"],
                "repr": "json",
                "checksum": checksum,
                "ases": len(payload.get("reports", {})),
                "seq": len(self._manifest["periods"]),
            }
            self._slots.commit(self._manifest)  # <- the commit point
        self.stats.ingests += 1
        self.generation += 1
        obs.counter(
            "store_ingest_total", "periods committed to the archive",
        ).inc()
        self._payloads[name] = (checksum, payload)
        return name

    def ingest_suite(self, suite, ranking=None) -> List[str]:
        """Commit every period of a suite; returns the names."""
        return [
            self.ingest(result, ranking=ranking)
            for result in suite.results.values()
        ]

    def ingest_anomalies(self, name: str, report) -> str:
        """Attach a period's anomaly report, crash-safely.

        ``report`` is a :class:`~repro.anomaly.AnomalyReport` or its
        payload dict.  The report rides the same commit rule as period
        ingests — checksum-wrapped document, then the manifest slot as
        the commit point — so a crash at any byte boundary recovers to
        exactly the report-less or the reported state.  One report
        per period, immutable once committed
        (:class:`AnomalyReportExistsError` on a second attach); the
        period itself must already be committed and not live.
        """
        payload = (
            report if isinstance(report, dict) else report.payload
        )
        entry = self._manifest["periods"].get(name)
        if entry is None:
            raise PeriodNotFoundError(name)
        if entry.get("repr") == "live":
            raise PeriodExistsError(
                f"{name} (live periods cannot carry anomaly reports "
                "until finalized)"
            )
        if "anomalies" in entry:
            raise AnomalyReportExistsError(name)
        obs = get_observer()
        with obs.span("store-ingest-anomalies", period=name), \
                self._slots.writing():
            checksum = payload_checksum(payload)
            self.io.write_atomic(
                self.anomalies_path(name), wrap(payload, checksum)
            )
            entry["anomalies"] = {
                "checksum": checksum,
                "links": payload.get("links_total", 0),
                "events": len(payload.get("events", [])),
            }
            self._slots.commit(self._manifest)  # <- the commit point
        self.stats.anomaly_ingests += 1
        self.generation += 1
        obs.counter(
            "store_anomaly_ingest_total",
            "anomaly reports committed to the archive",
        ).inc()
        self._anomalies[name] = payload
        return name

    # -- live ingest ---------------------------------------------------

    def begin_live_period(self, name: str) -> "LivePeriodWriter":
        """Open (or resume) a live period for streaming ingestion.

        A live period is the archive face of a running
        :class:`~repro.stream.StreamingSurvey`: each checkpoint is a
        numbered revision carried in the manifest record itself, so a
        crash at any byte boundary recovers to exactly the previous or
        the new checkpoint — and readers see only committed revisions.
        Reopening an archive whose writer died mid-stream and calling
        ``begin_live_period`` with the same name resumes at the last
        committed revision.  A finished period is promoted to the
        ordinary durable representation by
        :meth:`LivePeriodWriter.finalize`.
        """
        entry = self._manifest["periods"].get(name)
        if entry is not None and entry.get("repr") != "live":
            raise PeriodExistsError(name)
        return LivePeriodWriter(self, name)

    def _commit_live(
        self, name: str, payload: Dict, ranking, records: int
    ) -> int:
        """One checkpoint; returns the committed revision.

        The payload and its indexes ride in the manifest record, so
        the checkpoint is one in-place slot write (and the one-byte
        retire of the other slot).
        """
        entry = self._manifest["periods"].get(name)
        revision = (entry["revision"] + 1) if entry else 1
        checksum = payload_checksum(payload)
        index = _build_index(payload, ranking)
        obs = get_observer()
        with obs.span("store-commit-partial", period=name), \
                self._slots.writing():
            self._manifest["periods"][name] = {
                "start": payload["period"]["start"],
                "days": payload["period"]["days"],
                "repr": "live",
                "checksum": checksum,
                "ases": len(payload.get("reports", {})),
                "seq": (
                    entry["seq"] if entry
                    else len(self._manifest["periods"])
                ),
                "revision": revision,
                "partial": True,
                "records": records,
            }
            self._manifest["live"][name] = {
                "payload": payload, "index": index,
            }
            self._slots.commit(self._manifest)  # <- the commit point
        self.stats.live_commits += 1
        self.generation += 1
        self._payloads[name] = (checksum, payload)
        self._indexes[name] = (checksum, index)
        obs.counter(
            "store_live_commit_total",
            "live-period checkpoints committed",
        ).inc()
        return revision

    def _finalize_live(
        self, name: str, payload: Dict, ranking
    ) -> str:
        """Promote a live period to the durable representation."""
        entry = self._manifest["periods"].get(name)
        if entry is None:
            # Never checkpointed: nothing to promote, a plain ingest.
            return self.ingest(payload, ranking=ranking)
        checksum = payload_checksum(payload)
        index = _build_index(payload, ranking)
        obs = get_observer()
        with obs.span("store-finalize", period=name), \
                self._slots.writing():
            self.io.write_atomic(
                self.period_path(name), wrap(payload, checksum)
            )
            self.io.write_atomic(self.index_path(name), wrap(index))
            self._manifest["periods"][name] = {
                "start": payload["period"]["start"],
                "days": payload["period"]["days"],
                "repr": "json",
                "checksum": checksum,
                "ases": len(payload.get("reports", {})),
                "seq": entry["seq"],
            }
            del self._manifest["live"][name]
            self._slots.commit(self._manifest)  # <- the commit point
        self.stats.ingests += 1
        self.generation += 1
        self._payloads[name] = (checksum, payload)
        self._indexes[name] = (checksum, index)
        obs.counter(
            "store_ingest_total", "periods committed to the archive",
        ).inc()
        return name

    # -- reads ---------------------------------------------------------

    def _read_wrapped(self, path: Path) -> Dict:
        """A verified wrapper's payload; see :func:`unwrap`."""
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            raise ArchiveCorruptionError(
                path, "committed artifact is missing"
            ) from None
        except OSError as exc:
            self._quarantine(path)
            raise ArchiveCorruptionError(
                path, f"does not parse: {exc}"
            ) from None
        try:
            return unwrap(raw)
        except ValueError as exc:
            self._quarantine(path)
            raise ArchiveCorruptionError(path, str(exc)) from None

    def _quarantine(self, path: Path) -> None:
        self.stats.corrupt += 1
        self.generation += 1
        obs = get_observer()
        obs.counter(
            "store_corrupt_total",
            "archive artifacts quarantined on read",
        ).inc()
        obs.counter(
            "store_quarantine_total",
            "artifacts moved to quarantine/, by kind", ("kind",),
        ).inc(kind=path.suffix.lstrip(".") or "file")
        self.quality.drop(
            STAGE, DropReason.CORRUPT_ARTIFACT, detail=str(path)
        )
        # Best-effort: reporting the corruption matters more than
        # relocating the evidence.
        quarantine(self.root, path, self.io)

    def _reader(self, name: str) -> SegmentReader:
        reader = self._readers.get(name)
        if reader is None:
            path = self.segment_path(name)
            try:
                reader = SegmentReader(
                    path, use_mmap=store_mmap_enabled()
                )
            except ArchiveCorruptionError:
                self._quarantine(path)
                raise
            self._readers[name] = reader
        return reader

    def _segment_fallback(
        self, name: str, meta: Dict
    ) -> Optional[Dict]:
        """Serve a period's JSON document after its segment failed.

        ``compact(keep_json=True)`` leaves the JSON next to the
        segment; a torn segment then degrades to the slower parsed
        path — booked in ``store_fallback_total`` — instead of an
        error.  Returns the verified (and cached) payload, or None
        when no JSON document survives.
        """
        source = self.period_path(name)
        if not source.exists():
            return None
        get_observer().counter(
            "store_fallback_total",
            "segment reads served from the period JSON document "
            "after segment corruption",
        ).inc()
        payload = self._read_wrapped(source)
        if payload_checksum(payload) != meta["checksum"]:
            raise ArchiveCorruptionError(
                source,
                "payload does not match manifest checksum",
            )
        self._payloads[name] = (meta["checksum"], payload)
        return payload

    def get_period(self, name: str) -> Dict:
        """One period's full ``survey_to_dict`` payload.

        Byte-lossless: the canonical JSON of the returned dict is
        identical to what was ingested, whichever representation
        (JSON document or packed segment) currently backs the period.
        """
        meta = self.period_meta(name)
        cached = self._payloads.get(name)
        if cached is not None and cached[0] == meta["checksum"]:
            return cached[1]
        self.stats.lookups += 1
        if meta["repr"] == "segment":
            self.stats.segment_lookups += 1
            try:
                payload = self._reader(name).payload()
            except ArchiveCorruptionError:
                self._drop_reader(name, quarantine=True)
                fallback = self._segment_fallback(name, meta)
                if fallback is None:
                    raise
                return fallback
            source = self.segment_path(name)
        elif meta["repr"] == "live":
            # Verified by the manifest record's digest.
            live = self._manifest["live"].get(name)
            if live is None:  # finalized by a refresh since ``meta``
                return self.get_period(name)
            self._payloads[name] = (meta["checksum"], live["payload"])
            return live["payload"]
        else:
            source = self.period_path(name)
            payload = self._read_wrapped(source)
        if payload_checksum(payload) != meta["checksum"]:
            raise ArchiveCorruptionError(
                source,
                "payload does not match manifest checksum",
            )
        self._payloads[name] = (meta["checksum"], payload)
        return payload

    def get(self, asn: int, period: Optional[str] = None) -> Dict:
        """Point lookup: one AS's report entry in one period.

        ``period=None`` means the latest committed period.  Raises
        :class:`ASNotFoundError` when the AS was not monitored and
        :class:`PeriodNotFoundError` for unknown periods.
        """
        name = period if period is not None else self.latest()
        meta = self.period_meta(name)
        self.stats.lookups += 1
        if meta["repr"] == "segment" and name not in self._payloads:
            self.stats.segment_lookups += 1
            try:
                entry = self._reader(name).get(int(asn))
            except ArchiveCorruptionError:
                self._drop_reader(name, quarantine=True)
                fallback = self._segment_fallback(name, meta)
                if fallback is None:
                    raise
                entry = fallback["reports"].get(str(int(asn)))
        else:
            entry = self.get_period(name)["reports"].get(str(int(asn)))
        if entry is None:
            raise ASNotFoundError(int(asn), name)
        return entry

    def _drop_reader(self, name: str, quarantine: bool = False) -> None:
        reader = self._readers.pop(name, None)
        if reader is not None:
            reader.close()
        if quarantine:
            self._quarantine(self.segment_path(name))

    # -- secondary indexes ---------------------------------------------

    def _index(self, name: str) -> Dict:
        meta = self.period_meta(name)
        cached = self._indexes.get(name)
        if cached is None or cached[0] != meta["checksum"]:
            if meta["repr"] == "live":
                live = self._manifest["live"].get(name)
                if live is None:  # finalized by a refresh since ``meta``
                    return self._index(name)
                index = live["index"]
            else:
                index = self._read_wrapped(self.index_path(name))
            cached = self._indexes[name] = (meta["checksum"], index)
        return cached[1]

    def _segment_columns(self, name: str) -> Optional[SegmentReader]:
        """The period's segment reader when its columns are usable.

        None sends the caller down the JSON-index path: non-segment
        representations, pre-columns segments, and unreadable segments
        (which the slow path will quarantine and report properly).
        """
        meta = self.period_meta(name)
        if meta["repr"] != "segment":
            return None
        try:
            reader = self._reader(name)
            if not reader.has_columns():
                return None
            reader.columns()
        except ArchiveCorruptionError:
            return None
        return reader

    def asns(self, period: Optional[str] = None) -> List[int]:
        """Monitored ASNs of one period, sorted."""
        name = period if period is not None else self.latest()
        reader = self._segment_columns(name)
        if reader is not None:
            self.stats.segment_lookups += 1
            return reader.asns()
        index = self._index(name)
        return sorted(
            asn for asns in index["severity"].values() for asn in asns
        )

    def asns_with_severity(
        self, period: str, severity: str
    ) -> List[int]:
        """ASNs of one period carrying exactly ``severity``."""
        reader = self._segment_columns(period)
        if reader is not None:
            fast = reader.asns_with_severity(severity)
            if fast is not None:
                self.stats.segment_lookups += 1
                return fast
        return sorted(self._index(period)["severity"].get(severity, []))

    def severe_asns(self, period: str) -> List[int]:
        """The period's Severe-class ASNs (the headline lookup)."""
        return self.asns_with_severity(period, "severe")

    def reported_asns(self, period: str) -> List[int]:
        """Congested (non-None) ASNs of one period, sorted."""
        reader = self._segment_columns(period)
        if reader is not None:
            fast = reader.reported_asns()
            if fast is not None:
                self.stats.segment_lookups += 1
                return fast
        index = self._index(period)["severity"]
        return sorted(
            asn
            for severity, asns in index.items()
            if severity != "none"
            for asn in asns
        )

    def asns_in_country(self, period: str, country: str) -> List[int]:
        """Monitored ASNs of one period hosted in ``country``.

        Empty when the period was ingested without an eyeball ranking.
        """
        return sorted(
            self._index(period)["country"].get(country.upper(), [])
        )

    def countries(self, period: str) -> List[str]:
        """Countries with at least one monitored AS, sorted."""
        return sorted(self._index(period)["country"])

    # -- longitudinal queries ------------------------------------------

    def history(self, asn: int) -> List[Dict]:
        """One AS's per-period classification history, oldest first.

        Every committed period contributes one entry; periods where
        the AS was not monitored are marked ``monitored: false`` so
        operators can tell "not congested" from "not measured".
        """
        asn = int(asn)
        entries = []
        for name in self.periods():
            if name not in self._payloads:
                reader = self._segment_columns(name)
                if reader is not None:
                    # Columnar fast path: severity/count/amplitude
                    # straight from the mapped arrays, bit-identical
                    # to deriving them from the JSON blob.
                    self.stats.lookups += 1
                    self.stats.segment_lookups += 1
                    hot = reader.column_entry(asn)
                    if hot is None:
                        entries.append({
                            "period": name, "monitored": False,
                            "severity": None,
                        })
                    else:
                        entries.append({
                            "period": name,
                            "monitored": True,
                            "severity": hot["severity"],
                            "probe_count": hot["probe_count"],
                            "daily_amplitude_ms": (
                                hot["daily_amplitude_ms"]
                            ),
                        })
                    continue
            try:
                report = self.get(asn, name)
            except ASNotFoundError:
                entries.append({
                    "period": name, "monitored": False,
                    "severity": None,
                })
                continue
            markers = report.get("markers")
            entries.append({
                "period": name,
                "monitored": True,
                "severity": report["severity"],
                "probe_count": report["probe_count"],
                "daily_amplitude_ms": (
                    markers["daily_amplitude_ms"] if markers else 0.0
                ),
            })
        return entries

    def scan(
        self,
        start: Optional[str] = None,
        end: Optional[str] = None,
    ) -> Iterator[Tuple[str, Dict]]:
        """Range scan: ``(name, payload)`` per period, oldest first.

        ``start``/``end`` bound the periods' *start dates* (inclusive;
        ISO ``YYYY-MM-DD`` or full timestamps).
        """
        lo = dt.datetime.fromisoformat(start) if start else None
        hi = dt.datetime.fromisoformat(end) if end else None
        for name in self.periods():
            begin = dt.datetime.fromisoformat(
                self.period_meta(name)["start"]
            )
            if lo is not None and begin < lo:
                continue
            if hi is not None and begin > hi:
                continue
            yield name, self.get_period(name)

    def deltas_between(self, before: str, after: str) -> Dict:
        """Churn between two periods' reported-AS sets.

        New entrants, departures, the persisting core and the Jaccard
        similarity — the §3.1 "little churn" statistic, straight from
        the archive.
        """
        from ..core.stats import churn_jaccard

        old = set(self.reported_asns(before))
        new = set(self.reported_asns(after))
        return {
            "before": before,
            "after": after,
            "jaccard": churn_jaccard(old, new),
            "new": sorted(new - old),
            "gone": sorted(old - new),
            "persisting": sorted(old & new),
        }

    def churn_deltas(self) -> List[Dict]:
        """Consecutive-period deltas across the whole archive."""
        names = self.periods()
        return [
            self.deltas_between(a, b)
            for a, b in zip(names, names[1:])
        ]

    # -- anomaly reports -----------------------------------------------

    def anomaly_periods(self) -> List[str]:
        """Periods carrying an anomaly report, chronological order."""
        return [
            name for name in self.periods()
            if "anomalies" in self._manifest["periods"][name]
        ]

    def get_anomalies(self, period: Optional[str] = None) -> Dict:
        """One period's committed anomaly-report payload.

        ``period=None`` means the latest committed period.  The
        payload is verified against the manifest's checksum on first
        read (corrupt artifacts are quarantined and reported, exactly
        like period payloads) and cached after.
        """
        name = period if period is not None else self.latest()
        meta = self.period_meta(name)
        sub = meta.get("anomalies")
        if sub is None:
            raise AnomalyReportNotFoundError(name)
        cached = self._anomalies.get(name)
        if cached is not None:
            return cached
        self.stats.lookups += 1
        source = self.anomalies_path(name)
        payload = self._read_wrapped(source)
        if payload_checksum(payload) != sub["checksum"]:
            raise ArchiveCorruptionError(
                source,
                "anomaly report does not match manifest checksum",
            )
        self._anomalies[name] = payload
        return payload

    def link_history(self, link: str) -> List[Dict]:
        """One link's per-period anomaly history, oldest first.

        Every period with a committed anomaly report contributes an
        entry; periods where the link was not observed are marked
        ``observed: false``, mirroring :meth:`history`'s
        monitored-vs-measured distinction.  Raises
        :class:`LinkNotFoundError` when no report ever observed the
        link and ValueError for malformed link ids.
        """
        from ..anomaly import split_link_id

        split_link_id(link)  # validates; ValueError -> HTTP 400
        entries = []
        observed = False
        for name in self.anomaly_periods():
            payload = self.get_anomalies(name)
            entry = payload["links"].get(link)
            if entry is None:
                entries.append({
                    "period": name, "observed": False,
                    "anomalous_bins": [],
                })
                continue
            observed = True
            entries.append({
                "period": name,
                "observed": True,
                "samples": entry["samples"],
                "bins": entry["bins"],
                "median_ms": entry["median_ms"],
                "band_ms": entry["band_ms"],
                "anomalous_bins": entry["anomalous_bins"],
            })
        if not observed:
            raise LinkNotFoundError(link)
        return entries

    def anomaly_deltas_between(self, before: str, after: str) -> Dict:
        """Anomalous-link churn between two periods' reports."""
        from ..anomaly import anomaly_deltas

        return anomaly_deltas(
            self.get_anomalies(before), self.get_anomalies(after)
        )

    def anomaly_churn(self) -> List[Dict]:
        """Consecutive anomaly deltas across reported periods."""
        names = self.anomaly_periods()
        return [
            self.anomaly_deltas_between(a, b)
            for a, b in zip(names, names[1:])
        ]

    def to_suite(self, names: Optional[Sequence[str]] = None):
        """Materialize periods as a :class:`~repro.core.SurveySuite`.

        The bridge back into the analysis API: every longitudinal
        statistic (:meth:`SurveySuite.recurrent_asns`,
        :meth:`SurveySuite.reported_increase`, …) works on archived
        data exactly as on a fresh run.
        """
        from ..core.survey import SurveySuite
        from ..io.surveys import survey_from_dict

        suite = SurveySuite()
        for name in (names if names is not None else self.periods()):
            suite.add(survey_from_dict(self.get_period(name)))
        return suite

    # -- compaction ----------------------------------------------------

    def compact(
        self,
        names: Optional[Sequence[str]] = None,
        keep_json: bool = False,
    ) -> List[str]:
        """Fold period JSON documents into packed segments.

        Each segment is verified byte-lossless (full reconstruction
        checksum) *before* the manifest flips to it, and the JSON
        document is removed only after, so compaction can never lose a
        period.  With ``keep_json`` the manifest entry says so, and the
        document beside the segment stays committed state (the
        fallback for a torn segment).  Returns the names compacted.
        """
        obs = get_observer()
        compacted = []
        for name in (names if names is not None else self.periods()):
            meta = self.period_meta(name)
            if meta["repr"] == "segment":
                continue
            if meta["repr"] == "live":
                # In-flight periods are still changing; only finalized
                # periods are immutable enough to pack.
                continue
            with obs.span("store-compact", period=name), \
                    self._slots.writing():
                payload = self.get_period(name)
                write_segment(
                    self.segment_path(name), payload, io=self.io
                )
                # Round-trip proof before the JSON goes away.
                reader = self._reader(name)
                reconstructed = reader.payload()
                if payload_checksum(reconstructed) != meta["checksum"]:
                    self._drop_reader(name, quarantine=True)
                    raise ArchiveCorruptionError(
                        self.segment_path(name),
                        "segment round-trip diverges from source",
                    )
                entry = self._manifest["periods"][name]
                entry["repr"] = "segment"
                if keep_json:
                    entry["keep_json"] = True
                self._slots.commit(self._manifest)  # <- the commit point
                if not keep_json:
                    self.io.remove(self.period_path(name))
            self.stats.compactions += 1
            compacted.append(name)
        if compacted:
            obs.counter(
                "store_compactions_total",
                "periods folded into packed segments",
            ).inc(len(compacted))
        return compacted

    # -- maintenance ---------------------------------------------------

    def verify(self) -> Dict[str, str]:
        """Re-read and re-checksum every committed artifact.

        Returns ``{period: "ok" | "corrupt: <detail>"}`` without
        raising, so operators can audit an archive in one pass; a
        period's anomaly report (``<period>/anomalies`` key) is
        audited like the period itself.
        """
        outcome: Dict[str, str] = {}
        for name in self.periods():
            self._payloads.pop(name, None)
            try:
                self.get_period(name)
            except ArchiveCorruptionError as exc:
                outcome[name] = f"corrupt: {exc.detail}"
            else:
                outcome[name] = "ok"
        for name in self.anomaly_periods():
            self._anomalies.pop(name, None)
            try:
                self.get_anomalies(name)
            except ArchiveCorruptionError as exc:
                outcome[f"{name}/anomalies"] = f"corrupt: {exc.detail}"
            else:
                outcome[f"{name}/anomalies"] = "ok"
        return outcome

    def fsck(self, repair: bool = False):
        """Full integrity walk; see :func:`repro.store.fsck.run_fsck`.

        With ``repair=True``, bad periods are quarantined and
        secondary indexes rebuilt; the in-memory view is reloaded
        afterwards so this archive object keeps serving the repaired
        state.
        """
        from .fsck import run_fsck

        self.close()
        report = run_fsck(
            self.root, repair=repair, io=self.io, quality=self.quality
        )
        if repair and report.repair_count:
            self.reload()
        return report

    def refresh(self) -> bool:
        """Catch up with commits made through other handles.

        Re-reads the current manifest slot's header; when another
        handle (another process's ``repro stream --archive``, say) has
        committed since this one last loaded or wrote, loads the new
        manifest and bumps :attr:`generation`.  Returns whether it
        did.  Threads may read while this runs: warm caches are
        checked against the manifest checksum on use, so none outlives
        the revision it was read under.  Calls must not overlap.
        """
        if not self._slots.changed():
            return False
        self._manifest = self._slots.load()
        self.generation += 1
        return True

    def reload(self) -> None:
        """Re-read the manifest and drop warm caches (post-repair)."""
        self.close()
        self._payloads.clear()
        self._indexes.clear()
        self._anomalies.clear()
        self._manifest = self._slots.load()
        self.generation += 1

    def close(self) -> None:
        """Release open segment handles (caches stay warm)."""
        for name in list(self._readers):
            self._drop_reader(name)

    def __enter__(self) -> "SurveyArchive":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class LivePeriodWriter:
    """Streaming-ingestion handle for one live period.

    Obtained from :meth:`SurveyArchive.begin_live_period`.  The writer
    tracks how many records the stream has appended
    (:meth:`append` — bookkeeping only; record state lives in the
    streaming engine) and commits durable snapshots:

    * :meth:`commit_partial` — crash-safe checkpoint of the period
      as it stands; readers see it as a ``partial: true``
      period at revision *k*.
    * :meth:`finalize` — promote to the ordinary durable
      representation; the period stops being partial.
    * :meth:`abort` — drop the live period entirely.

    Nothing touches disk until the first ``commit_partial`` — a
    stream that dies before its first checkpoint leaves no trace.
    """

    def __init__(self, archive: SurveyArchive, name: str):
        self.archive = archive
        self.name = name
        entry = archive._manifest["periods"].get(name)
        self.revision = entry["revision"] if entry else 0
        self.records_appended = (
            int(entry.get("records", 0)) if entry else 0
        )
        self._done = False

    def append(self, n: int = 1) -> int:
        """Note ``n`` records handed to the streaming engine."""
        self._check_open()
        self.records_appended += n
        return self.records_appended

    def commit_partial(self, result, ranking=None) -> int:
        """Durably checkpoint the in-progress period; returns the
        committed revision number."""
        self._check_open()
        payload = self._payload_of(result)
        self.revision = self.archive._commit_live(
            self.name, payload, ranking, self.records_appended
        )
        return self.revision

    def finalize(self, result, ranking=None) -> str:
        """Commit the finished period as an ordinary one."""
        self._check_open()
        payload = self._payload_of(result)
        name = self.archive._finalize_live(self.name, payload, ranking)
        self._done = True
        return name

    def abort(self) -> None:
        """Drop the live period: one slot write, nothing to remove."""
        self._check_open()
        archive = self.archive
        if self.name in archive._manifest["periods"]:
            with archive._slots.writing():
                del archive._manifest["periods"][self.name]
                del archive._manifest["live"][self.name]
                archive._slots.commit(archive._manifest)
            archive._payloads.pop(self.name, None)
            archive._indexes.pop(self.name, None)
            archive.generation += 1
        self._done = True

    def _payload_of(self, result) -> Dict:
        from ..io.surveys import survey_to_dict

        payload = (
            result if isinstance(result, dict)
            else survey_to_dict(result)
        )
        if payload["period"]["name"] != self.name:
            raise ValueError(
                f"payload is for period "
                f"{payload['period']['name']!r}, writer is bound to "
                f"{self.name!r}"
            )
        return payload

    def _check_open(self) -> None:
        if self._done:
            raise ValueError(
                f"live period {self.name!r} is already finalized"
            )


def _build_index(payload: Dict, ranking) -> Dict:
    """Severity + country secondary indexes for one period."""
    severity: Dict[str, List[int]] = {}
    country: Dict[str, List[int]] = {}
    for asn_text, report in payload.get("reports", {}).items():
        asn = int(asn_text)
        severity.setdefault(report["severity"], []).append(asn)
        if ranking is not None:
            estimate = ranking.get(asn)
            if estimate is not None:
                country.setdefault(
                    estimate.country.upper(), []
                ).append(asn)
    return {
        "severity": {k: sorted(v) for k, v in sorted(severity.items())},
        "country": {k: sorted(v) for k, v in sorted(country.items())},
    }
