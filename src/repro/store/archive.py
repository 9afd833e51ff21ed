"""The longitudinal survey archive — durable storage across periods.

The paper's deliverable is a public per-period survey site; this
module is its storage layer: an append-only, schema-versioned on-disk
archive of :func:`~repro.io.surveys.survey_to_dict` payloads, one per
measurement period, with the secondary indexes the serving layer
(:mod:`repro.serve`) queries — by ASN, by country, by severity class.

Layout under the archive root::

    MANIFEST.a, MANIFEST.b  # two manifest slots: the committed state,
                            # live periods' payloads and indexes included
    segments/<name>.seg     # a finalized period: packed reports, hot
                            # columns, country index (repro.store.segments)
    anomalies/<name>.json   # checksum-wrapped per-period AnomalyReport
    quarantine/             # corrupted artifacts, moved aside as evidence
                            # under their archive-relative paths

Commit discipline (:mod:`repro.store.manifest`): every file lands,
checksummed, under a name no committed state uses (temp file + fsync +
rename); then the manifest record is written in place into the older
of the two slots — *the commit point* — and the other slot is retired.
No commit frees a block.  A process killed at any byte boundary leaves
the archive, on the next open, in exactly the pre- or post-commit
state: recovery deletes every file the manifest does not account for.
A checksum or parse failure on a read quarantines the file, raises
:class:`ArchiveCorruptionError`, and books the loss in the archive's
:class:`~repro.quality.DataQualityReport` ledger: corrupted data is
reported, never served.  Offline integrity audits and repair live in
:mod:`repro.store.fsck` (``repro store fsck``).

Readers can detect mutation: :attr:`SurveyArchive.generation` bumps on
every ingest, quarantine, recovery action and repair, and when
:meth:`SurveyArchive.refresh` finds a commit made through another
handle, so caches keyed on archive content (the serving layer's LRU)
know when to drop their entries.

Append-only: a committed period is immutable, and a finalized period
has one form, its packed segment, from the commit on.

The one deliberately mutable state is the *live period*
(:meth:`SurveyArchive.begin_live_period`): the archive face of a
streaming survey still in flight.  Its payload and indexes ride inside
the manifest record, so a checkpoint is one in-place slot write.
:meth:`LivePeriodWriter.finalize` promotes the finished period into
the ordinary append-only set: its segment, then the slot.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

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
T = TypeVar("T")

STAGE = "store-archive"


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
    live_commits: int = 0
    anomaly_ingests: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "ingests": self.ingests,
            "lookups": self.lookups,
            "segment_lookups": self.segment_lookups,
            "corrupt": self.corrupt,
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
        #: Warm payloads, each with the manifest checksum it was read
        #: under; a cached payload is used only while its period's
        #: manifest entry still carries that checksum.
        self._payloads: Dict[str, Tuple[str, Dict]] = {}
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
        return self._commit_segment(
            "store-ingest", name, payload, ranking,
            len(self._manifest["periods"]),
        )

    def _commit_segment(
        self, span: str, name: str, payload: Dict, ranking, seq: int
    ) -> str:
        """Commit a finalized period: its segment, then the slot.

        A live record of the same name leaves the manifest in the
        same commit.
        """
        checksum = payload_checksum(payload)
        obs = get_observer()
        with obs.span(span, period=name), self._slots.writing():
            write_segment(
                self.segment_path(name), payload, io=self.io,
                countries=_country_index(payload, ranking),
                checksum=checksum,
            )
            self._manifest["periods"][name] = {
                "start": payload["period"]["start"],
                "days": payload["period"]["days"],
                "repr": "segment",
                "checksum": checksum,
                "ases": len(payload.get("reports", {})),
                "seq": seq,
            }
            self._manifest["live"].pop(name, None)
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
        obs.counter(
            "store_live_commit_total",
            "live-period checkpoints committed",
        ).inc()
        return revision

    def _finalize_live(
        self, name: str, payload: Dict, ranking
    ) -> str:
        """Promote a live period to its packed segment."""
        entry = self._manifest["periods"].get(name)
        if entry is None:
            # Never checkpointed: nothing to promote, a plain ingest.
            return self.ingest(payload, ranking=ranking)
        return self._commit_segment(
            "store-finalize", name, payload, ranking, entry["seq"],
        )

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
            reader = self._readers[name] = SegmentReader(
                self.segment_path(name)
            )
        return reader

    def _segment(self, name: str, read: Callable[[SegmentReader], T]) -> T:
        """``read`` applied to the period's segment reader.

        A corrupt segment is quarantined and raises
        :class:`ArchiveCorruptionError`; a missing one raises it
        without a quarantine.
        """
        try:
            return read(self._reader(name))
        except ArchiveCorruptionError:
            reader = self._readers.pop(name, None)
            if reader is not None:
                reader.close()
            path = self.segment_path(name)
            if not path.exists():
                raise ArchiveCorruptionError(
                    path, "committed artifact is missing"
                ) from None
            self._quarantine(path)
            raise

    def get_period(self, name: str) -> Dict:
        """One period's full ``survey_to_dict`` payload.

        Byte-lossless: the canonical JSON of the returned dict is
        identical to what was ingested, whether the period is live or
        finalized into its segment.
        """
        meta = self.period_meta(name)
        cached = self._payloads.get(name)
        if cached is not None and cached[0] == meta["checksum"]:
            return cached[1]
        self.stats.lookups += 1
        if meta["repr"] == "live":
            # Verified by the manifest record's digest.
            live = self._manifest["live"].get(name)
            if live is None:  # finalized by a refresh since ``meta``
                return self.get_period(name)
            self._payloads[name] = (meta["checksum"], live["payload"])
            return live["payload"]
        self.stats.segment_lookups += 1
        payload = self._segment(name, SegmentReader.payload)
        if payload_checksum(payload) != meta["checksum"]:
            raise ArchiveCorruptionError(
                self.segment_path(name),
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
            entry = self._segment(
                name, lambda reader: reader.get(int(asn))
            )
        else:
            entry = self.get_period(name)["reports"].get(str(int(asn)))
        if entry is None:
            raise ASNotFoundError(int(asn), name)
        return entry

    # -- secondary indexes ---------------------------------------------

    def _lookup(
        self,
        name: str,
        live: Callable[[Dict], T],
        segment: Callable[[SegmentReader], T],
    ) -> T:
        """Answer from a live period's index or a finalized period's
        segment."""
        self.period_meta(name)  # PeriodNotFoundError for unknown names
        record = self._manifest["live"].get(name)
        if record is not None:
            return live(record["index"])
        self.stats.segment_lookups += 1
        return self._segment(name, segment)

    def asns(self, period: Optional[str] = None) -> List[int]:
        """Monitored ASNs of one period, sorted."""
        return self._lookup(
            period if period is not None else self.latest(),
            lambda index: sorted(
                asn for asns in index["severity"].values() for asn in asns
            ),
            SegmentReader.asns,
        )

    def asns_with_severity(
        self, period: str, severity: str
    ) -> List[int]:
        """ASNs of one period carrying exactly ``severity``."""
        return self._lookup(
            period,
            lambda index: sorted(index["severity"].get(severity, [])),
            lambda reader: reader.asns_with_severity(severity),
        )

    def severe_asns(self, period: str) -> List[int]:
        """The period's Severe-class ASNs (the headline lookup)."""
        return self.asns_with_severity(period, "severe")

    def reported_asns(self, period: str) -> List[int]:
        """Congested (non-None) ASNs of one period, sorted."""
        return self._lookup(
            period,
            lambda index: sorted(
                asn
                for severity, asns in index["severity"].items()
                if severity != "none"
                for asn in asns
            ),
            SegmentReader.reported_asns,
        )

    def asns_in_country(self, period: str, country: str) -> List[int]:
        """Monitored ASNs of one period hosted in ``country``.

        Empty when the period was ingested without an eyeball ranking.
        """
        return self._lookup(
            period,
            lambda index: sorted(index["country"].get(country.upper(), [])),
            lambda reader: reader.asns_in_country(country),
        )

    def countries(self, period: str) -> List[str]:
        """Countries with at least one monitored AS, sorted."""
        return self._lookup(
            period,
            lambda index: sorted(index["country"]),
            SegmentReader.countries,
        )

    # -- longitudinal queries ------------------------------------------

    def history(self, asn: int) -> List[Dict]:
        """One AS's per-period classification history, oldest first.

        Every committed period contributes one entry; periods where
        the AS was not monitored are marked ``monitored: false`` so
        operators can tell "not congested" from "not measured".  A
        period whose artifact cannot be read (corrupt, quarantined,
        missing) is also ``monitored: false``, with ``unreadable:
        true``: one bad period does not hide the others.  When no
        readable period has the AS, the unreadable period's
        :class:`ArchiveCorruptionError` is raised instead.
        """
        asn = int(asn)
        entries = []
        unreadable = None
        for name in self.periods():
            try:
                hot = self._hot_entry(name, asn)
            except ArchiveCorruptionError as exc:
                unreadable = exc
                entries.append({
                    "period": name, "monitored": False,
                    "severity": None, "unreadable": True,
                })
                continue
            entries.append(
                {"period": name, "monitored": False, "severity": None}
                if hot is None
                else dict(period=name, monitored=True, **hot)
            )
        if unreadable is not None and not any(
            entry["monitored"] for entry in entries
        ):
            # No readable period has the AS, and an unreadable one
            # might: that is no answer.
            raise unreadable
        return entries

    def _hot_entry(self, name: str, asn: int) -> Optional[Dict]:
        """One AS's severity/count/amplitude in one period, or None."""
        if (
            name not in self._payloads
            and self.period_meta(name)["repr"] == "segment"
        ):
            # Columnar fast path: severity/count/amplitude straight
            # from the mapped arrays, bit-identical to deriving them
            # from the JSON blob.
            self.stats.lookups += 1
            self.stats.segment_lookups += 1
            return self._segment(
                name, lambda reader: reader.column_entry(asn)
            )
        return _hot_fields(self.get_period(name)["reports"].get(str(asn)))

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
        monitored-vs-measured distinction; a report that cannot be
        read is ``observed: false`` with ``unreadable: true``.  Raises
        :class:`LinkNotFoundError` when no report observed the link,
        the unreadable report's :class:`ArchiveCorruptionError` when
        only an unreadable one might have, and ValueError for
        malformed link ids.
        """
        from ..anomaly import split_link_id

        split_link_id(link)  # validates; ValueError -> HTTP 400
        entries = []
        observed = False
        unreadable = None
        for name in self.anomaly_periods():
            try:
                payload = self.get_anomalies(name)
            except ArchiveCorruptionError as exc:
                unreadable = exc
                entries.append({
                    "period": name, "observed": False,
                    "anomalous_bins": [], "unreadable": True,
                })
                continue
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
            if unreadable is not None:
                raise unreadable
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

    def compact(self) -> List[str]:
        """A no-op, kept for callers written when a period was first
        stored as a JSON document and packed into a segment later.

        Every finalized period is a packed segment from its commit
        on, so there is nothing to compact; returns ``[]``.
        """
        return []

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

        With ``repair=True``, bad periods are quarantined and live
        periods' indexes rebuilt; the in-memory view is reloaded
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
        self._anomalies.clear()
        self._manifest = self._slots.load()
        self.generation += 1

    def close(self) -> None:
        """Release open segment handles (caches stay warm)."""
        while self._readers:
            self._readers.popitem()[1].close()

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


def _hot_fields(report: Optional[Dict]) -> Optional[Dict]:
    """The history fields of one report entry (None stays None)."""
    if report is None:
        return None
    markers = report.get("markers")
    return {
        "severity": report["severity"],
        "probe_count": report["probe_count"],
        "daily_amplitude_ms": (
            markers["daily_amplitude_ms"] if markers else 0.0
        ),
    }


def _country_index(payload: Dict, ranking) -> Dict[str, List[int]]:
    """Country code -> sorted monitored ASNs; empty without a ranking."""
    country: Dict[str, List[int]] = {}
    if ranking is not None:
        for asn_text in payload.get("reports", {}):
            estimate = ranking.get(int(asn_text))
            if estimate is not None:
                country.setdefault(
                    estimate.country.upper(), []
                ).append(int(asn_text))
    return {k: sorted(v) for k, v in sorted(country.items())}


def _build_index(payload: Dict, ranking) -> Dict:
    """Severity + country secondary indexes for one period (a live
    period's manifest record carries them)."""
    severity: Dict[str, List[int]] = {}
    for asn_text, report in payload.get("reports", {}).items():
        severity.setdefault(report["severity"], []).append(int(asn_text))
    return {
        "severity": {k: sorted(v) for k, v in sorted(severity.items())},
        "country": _country_index(payload, ranking),
    }
