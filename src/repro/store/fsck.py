"""Offline integrity audit and repair for survey archives.

``repro store fsck`` walks everything the archive persists — the
manifest slots, finalized periods' packed segments, anomaly reports,
live periods' records — and verifies every checksum and every
cross-reference *without* mutating state; with ``--repair`` it makes
the archive consistent again by quarantining what cannot be trusted
and rebuilding what can be derived:

* a period whose payload (segment or live record) fails its checksum
  is quarantined: its files move to ``quarantine/`` under their
  archive-relative paths, never over evidence already there, and its
  manifest entry is dropped — corrupted data is evidence, never
  served;
* a live period's bad secondary index over a *healthy* payload is
  rebuilt from the payload (the severity index exactly; the country
  index cannot be re-derived without the eyeball ranking and is
  rebuilt empty, which the finding records);
* a period's anomaly report that is missing or fails its checksum is
  quarantined and its ``anomalies`` manifest sub-entry dropped — the
  period itself stays committed;
* files the manifest does not account for — the rule recovery
  on open applies (:func:`repro.store.manifest.unaccounted`) — are
  quarantined, and stale temp files removed.

Repairs commit like every archive mutation: one manifest slot write.

Exit codes (also :attr:`FsckReport.exit_code`):

====  ====================================================
0     clean — every artifact verified
1     integrity errors found (read-only run, nothing fixed)
2     integrity errors found **and repaired**; the archive
      is consistent again (possibly with fewer periods)
3     the manifest is unusable: no valid slot, no slot beside
      period data, or a layout of an earlier version
====  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..obs import get_observer
from ..quality import DataQualityReport, DropReason
from .errors import ArchiveCorruptionError, SchemaVersionError
from .io import REAL_IO, StoreIO, is_tmp
from .manifest import (
    DATA_DIRS,
    ManifestSlots,
    quarantine,
    sweep_tmp_files,
    unaccounted,
)
from .segments import SegmentReader

PathLike = Union[str, Path]

STAGE = "store-fsck"

EXIT_CLEAN = 0
EXIT_ERRORS = 1
EXIT_REPAIRED = 2
EXIT_UNUSABLE = 3

ERROR = "error"
WARNING = "warning"


@dataclass
class FsckFinding:
    """One problem fsck identified (and possibly fixed)."""

    severity: str              # ERROR | WARNING
    kind: str                  # manifest, payload, index, orphan, ...
    path: str
    detail: str
    period: Optional[str] = None
    repaired: bool = False
    action: str = ""           # what --repair did (or would not do)

    def as_dict(self) -> Dict:
        return {
            "severity": self.severity,
            "kind": self.kind,
            "path": self.path,
            "period": self.period,
            "detail": self.detail,
            "repaired": self.repaired,
            "action": self.action,
        }


@dataclass
class FsckReport:
    """Outcome of one fsck walk."""

    root: str
    repair: bool
    findings: List[FsckFinding] = field(default_factory=list)
    periods_checked: int = 0
    manifest_usable: bool = True

    # -- verdicts ------------------------------------------------------

    @property
    def errors(self) -> List[FsckFinding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def clean(self) -> bool:
        """No integrity errors (benign warnings do not dirty a run)."""
        return not self.errors

    @property
    def repair_count(self) -> int:
        return sum(1 for f in self.findings if f.repaired)

    @property
    def exit_code(self) -> int:
        if not self.manifest_usable:
            return EXIT_UNUSABLE
        if not self.errors:
            return EXIT_CLEAN
        if self.repair and all(f.repaired for f in self.errors):
            return EXIT_REPAIRED
        return EXIT_ERRORS

    # -- recording -----------------------------------------------------

    def add(self, severity: str, kind: str, path, detail: str,
            period: Optional[str] = None) -> FsckFinding:
        finding = FsckFinding(
            severity=severity, kind=kind, path=str(path),
            detail=detail, period=period,
        )
        self.findings.append(finding)
        get_observer().counter(
            "store_fsck_findings_total",
            "fsck findings by kind", ("kind",),
        ).inc(kind=kind)
        return finding

    # -- presentation --------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "root": self.root,
            "repair": self.repair,
            "periods_checked": self.periods_checked,
            "clean": self.clean,
            "exit_code": self.exit_code,
            "findings": [f.as_dict() for f in self.findings],
        }

    def summary_lines(self) -> List[str]:
        verdict = (
            "clean" if self.clean
            else f"{len(self.errors)} error(s), "
                 f"{self.repair_count} repaired"
        )
        lines = [
            f"fsck {self.root}: {self.periods_checked} period(s) "
            f"checked, {verdict}"
        ]
        for f in self.findings:
            suffix = f" [{f.action}]" if f.action else ""
            where = f" period={f.period}" if f.period else ""
            lines.append(
                f"  {f.severity}: {f.kind}{where} {f.path}: "
                f"{f.detail}{suffix}"
            )
        return lines

    def __str__(self) -> str:
        return "\n".join(self.summary_lines())


class _Fsck:
    """One walk over one archive directory."""

    def __init__(
        self,
        root: Path,
        repair: bool,
        io: StoreIO,
        quality: Optional[DataQualityReport],
    ):
        self.root = root
        self.io = io
        self.quality = (
            quality if quality is not None else DataQualityReport()
        )
        self.report = FsckReport(root=str(root), repair=repair)
        self.slots = ManifestSlots(root, io)
        self.manifest: Optional[Dict] = None
        self.manifest_dirty = False

    # -- helpers -------------------------------------------------------

    def _quarantine_file(self, path: Path) -> bool:
        if quarantine(self.root, path, self.io) is None:
            return False
        get_observer().counter(
            "store_quarantine_total",
            "artifacts moved to quarantine/, by kind", ("kind",),
        ).inc(kind=path.suffix.lstrip(".") or "file")
        return True

    def _quarantine_period(
        self, name: str, finding: FsckFinding
    ) -> None:
        """Drop one bad period: files to quarantine/, entry gone."""
        moved = []
        for relative in (
            f"segments/{name}.seg", f"anomalies/{name}.json",
        ):
            path = self.root / relative
            if path.exists() and self._quarantine_file(path):
                moved.append(relative)
        del self.manifest["periods"][name]
        self.manifest["live"].pop(name, None)
        self.manifest_dirty = True
        finding.repaired = True
        finding.action = (
            "period quarantined (" + ", ".join(moved) + ")"
            if moved else "manifest entry dropped"
        )
        self.quality.drop(
            STAGE, DropReason.CORRUPT_ARTIFACT,
            detail=f"period {name!r} quarantined by fsck",
        )

    # -- the walk ------------------------------------------------------

    def run(self) -> FsckReport:
        from .archive import payload_checksum  # lazy: avoid cycle

        self._payload_checksum = payload_checksum
        try:
            self.manifest = self.slots.load()
        except (ArchiveCorruptionError, SchemaVersionError) as exc:
            self.report.manifest_usable = False
            self.report.add(
                ERROR, "manifest", getattr(exc, "path", self.root),
                getattr(exc, "detail", str(exc)),
            )
            return self.report
        periods = dict(self.manifest["periods"])
        for name in sorted(periods):
            self.report.periods_checked += 1
            self._check_period(name, periods[name])
        self._check_orphans()
        self._check_tmp_files()
        if self.manifest_dirty and self.report.repair:
            with self.slots.writing():
                self.slots.commit(self.manifest)
        return self.report

    # -- periods -------------------------------------------------------

    def _check_period(self, name: str, meta: Dict) -> None:
        if meta.get("repr") == "live":
            self._check_live(name, meta)
        else:
            self._check_segment(name, meta)
        # A period quarantined above took its anomaly report with it;
        # only still-committed periods get their report audited.
        if name in self.manifest["periods"]:
            self._check_anomalies(name, meta)

    def _read_wrapper(self, path: Path) -> Optional[Dict]:
        """A verified wrapper's payload; a failed one records a
        finding and reads None."""
        from .archive import unwrap  # lazy: avoid cycle

        try:
            return unwrap(path.read_bytes())
        except OSError as exc:
            detail = f"does not parse: {exc}"
        except ValueError as exc:
            detail = str(exc)
        self.report.add(ERROR, "payload", path, detail)
        return None

    def _check_segment(self, name: str, meta: Dict) -> None:
        path = self.root / "segments" / f"{name}.seg"
        if not path.exists():
            finding = self.report.add(
                ERROR, "missing-artifact", path,
                "committed segment missing", period=name,
            )
        else:
            try:
                with SegmentReader(path) as reader:
                    payload = reader.payload()
                    reader.columns()
            except ArchiveCorruptionError as exc:
                finding = self.report.add(
                    ERROR, "segment", path, exc.detail, period=name,
                )
            else:
                if self._payload_checksum(payload) == meta.get("checksum"):
                    return
                finding = self.report.add(
                    ERROR, "segment", path,
                    "segment payload does not match manifest checksum",
                    period=name,
                )
        if self.report.repair:
            self._quarantine_period(name, finding)

    def _check_live(self, name: str, meta: Dict) -> None:
        """Audit a live period's record: the slot's digest covers it,
        so cross-check the payload against the entry and the index
        against the payload; a repair puts a rebuilt index into the
        record."""
        from .archive import _build_index  # lazy: avoid cycle

        record = self.manifest["live"][name]
        path = self.slots.path(self.slots.current)
        payload = record["payload"]
        if self._payload_checksum(payload) != meta.get("checksum"):
            finding = self.report.add(
                ERROR, "payload", path,
                "live payload does not match manifest checksum",
                period=name,
            )
            if self.report.repair:
                self._quarantine_period(name, finding)
            return
        mismatch = self._index_mismatch(record["index"], payload)
        if mismatch is None:
            return
        finding = self.report.add(
            ERROR, "index", path, mismatch, period=name
        )
        if self.report.repair:
            record["index"] = _build_index(payload, None)
            self.manifest_dirty = True
            finding.repaired = True
            finding.action = (
                "index rebuilt from payload (country index empty: "
                "eyeball ranking not on disk)"
            )

    def _check_anomalies(self, name: str, meta: Dict) -> None:
        """Audit a period's committed anomaly report, if it has one.

        Repair is surgical: a bad report is quarantined and only the
        ``anomalies`` sub-entry dropped — the period itself stays
        committed, because the survey payload is independent evidence
        the report's corruption says nothing about.
        """
        sub = meta.get("anomalies")
        if not isinstance(sub, dict):
            return
        path = self.root / "anomalies" / f"{name}.json"
        if not path.exists():
            finding = self.report.add(
                ERROR, "anomaly-report", path,
                "committed anomaly report missing", period=name,
            )
            if self.report.repair:
                self._drop_anomalies(name, finding, quarantine=False)
            return
        payload = self._read_wrapper(path)
        if payload is None:
            finding = self.report.findings[-1]
            finding.period = name
            finding.kind = "anomaly-report"
            if self.report.repair:
                self._drop_anomalies(name, finding)
            return
        if self._payload_checksum(payload) != sub.get("checksum"):
            finding = self.report.add(
                ERROR, "anomaly-report", path,
                "report does not match manifest checksum",
                period=name,
            )
            if self.report.repair:
                self._drop_anomalies(name, finding)

    def _drop_anomalies(
        self, name: str, finding: FsckFinding, quarantine: bool = True
    ) -> None:
        path = self.root / "anomalies" / f"{name}.json"
        moved = (
            quarantine and path.exists()
            and self._quarantine_file(path)
        )
        del self.manifest["periods"][name]["anomalies"]
        self.manifest_dirty = True
        finding.repaired = True
        finding.action = (
            "report quarantined, anomalies sub-entry dropped"
            if moved else "anomalies sub-entry dropped"
        )
        self.quality.drop(
            STAGE, DropReason.CORRUPT_ARTIFACT,
            detail=f"anomaly report for {name!r} dropped by fsck",
        )

    @staticmethod
    def _index_mismatch(index: Dict, payload: Dict) -> Optional[str]:
        """Cross-reference the severity/country indexes vs the payload."""
        if not isinstance(index, dict):
            return "index structure invalid"
        severity = index.get("severity")
        country = index.get("country")
        if not isinstance(severity, dict) or not isinstance(
            country, dict
        ):
            return "index structure invalid"
        want: Dict[str, List[int]] = {}
        for asn_text, report in payload.get("reports", {}).items():
            want.setdefault(report["severity"], []).append(
                int(asn_text)
            )
        got = {
            klass: sorted(int(a) for a in asns)
            for klass, asns in severity.items() if asns
        }
        want = {k: sorted(v) for k, v in want.items()}
        if got != want:
            return "severity index disagrees with payload reports"
        all_asns = {
            int(asn_text) for asn_text in payload.get("reports", {})
        }
        for cc, asns in country.items():
            extra = {int(a) for a in asns} - all_asns
            if extra:
                return (
                    f"country index {cc} names unmonitored ASNs "
                    f"{sorted(extra)}"
                )
        return None

    # -- leftovers -----------------------------------------------------

    def _check_orphans(self) -> None:
        for relative in unaccounted(self.root, self.manifest):
            path = self.root / relative
            finding = self.report.add(
                WARNING, "orphan", path,
                "document the manifest does not account for",
            )
            if self.report.repair and self._quarantine_file(path):
                finding.repaired = True
                finding.action = "orphan quarantined"

    def _check_tmp_files(self) -> None:
        for sub in ("",) + DATA_DIRS:
            directory = self.root / sub if sub else self.root
            if not directory.is_dir():
                continue
            for path in sorted(directory.iterdir()):
                if path.is_file() and is_tmp(path):
                    finding = self.report.add(
                        WARNING, "stale-tmp", path,
                        "temp file from a torn atomic write",
                    )
                    if self.report.repair:
                        sweep_tmp_files(self.root, self.io, (sub,))
                        finding.repaired = True
                        finding.action = "removed"


def run_fsck(
    root: PathLike,
    repair: bool = False,
    io: StoreIO = REAL_IO,
    quality: Optional[DataQualityReport] = None,
) -> FsckReport:
    """Audit (and with ``repair=True``, fix) one archive directory.

    Pure function of the directory: it never quarantines on *read*
    the way the serving path does — a read-only run reports and
    leaves every byte where it found it.
    """
    obs = get_observer()
    obs.counter(
        "store_fsck_runs_total", "fsck passes", ("mode",),
    ).inc(mode="repair" if repair else "check")
    with obs.span("store-fsck", root=str(root), repair=repair):
        return _Fsck(
            Path(root), repair, io, quality
        ).run()
