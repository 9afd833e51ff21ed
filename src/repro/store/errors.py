"""Archive-specific errors, rooted in the netbase taxonomy.

Every archive failure derives from :class:`~repro.netbase.errors.
NetbaseError` so API boundaries (the CLI, :mod:`repro.serve`) can map
exception type → exit code / HTTP status without a parallel hierarchy:
*not found* errors become 404s, *conflicts* 409s, *corruption* 503s and
everything else in the family a 400.
"""

from __future__ import annotations

from ..netbase.errors import NetbaseError


class ArchiveError(NetbaseError):
    """Base class for survey-archive failures."""


class PeriodExistsError(ArchiveError):
    """An ingest would overwrite a committed period.

    The archive is append-only: a period, once committed, is immutable.
    Re-running a survey for the same window goes to a fresh archive (or
    the caller passes ``overwrite_ok`` to acknowledge the rewrite).
    """

    def __init__(self, period: str):
        self.period = period
        super().__init__(f"period {period!r} is already committed")


class PeriodNotFoundError(ArchiveError, LookupError):
    """A query named a period the archive has not committed."""

    def __init__(self, period: str):
        self.period = period
        super().__init__(f"no committed period {period!r}")


class ASNotFoundError(ArchiveError, LookupError):
    """A point lookup named an AS absent from the period."""

    def __init__(self, asn: int, period: str):
        self.asn = asn
        self.period = period
        super().__init__(f"AS{asn} not monitored in period {period!r}")


class AnomalyReportExistsError(ArchiveError):
    """An anomaly-report attach would overwrite a committed report.

    Reports inherit the archive's append-only discipline: one report
    per period, immutable once committed.
    """

    def __init__(self, period: str):
        self.period = period
        super().__init__(
            f"period {period!r} already carries an anomaly report"
        )


class AnomalyReportNotFoundError(ArchiveError, LookupError):
    """A query asked for a period's anomaly report before one landed."""

    def __init__(self, period: str):
        self.period = period
        super().__init__(f"period {period!r} has no anomaly report")


class LinkNotFoundError(ArchiveError, LookupError):
    """A link-history query named a link no anomaly report observed."""

    def __init__(self, link: str):
        self.link = link
        super().__init__(
            f"link {link!r} not observed in any anomaly report"
        )


class ArchiveCorruptionError(ArchiveError):
    """A stored artifact failed its checksum or did not parse.

    An offending document has already been quarantined when this is
    raised — corrupted data is *reported*, never served.  Manifest
    slots are never quarantined: "no valid slot" is reported as is.
    """

    def __init__(self, path, detail: str):
        self.path = path
        self.detail = detail
        super().__init__(f"{path}: {detail}")


class ArchiveChangedError(ArchiveError):
    """Another writer committed after this archive handle loaded.

    A commit writes the whole manifest, so one from a stale view would
    drop the other writer's commit (and recovery on the next open
    would delete its documents).  The stale handle is refused before
    it writes anything; reopen the archive and retry.
    """

    def __init__(self, root):
        self.root = root
        super().__init__(
            f"{root}: another writer committed since this archive "
            "was opened; reopen it"
        )


class SchemaVersionError(ArchiveError):
    """The on-disk archive speaks a schema this code does not."""

    def __init__(self, found, supported):
        self.found = found
        self.supported = supported
        super().__init__(
            f"archive schema {found!r} not supported "
            f"(this build reads {supported!r})"
        )
