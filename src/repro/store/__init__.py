"""Longitudinal survey archive — durable storage for survey results.

The paper publishes per-period survey verdicts on a public site; this
package is the reproduction's storage tier for that site:

* :mod:`repro.store.archive`  — :class:`SurveyArchive`, the
  append-only, schema-versioned multi-period store with atomic
  commits, checksum/quarantine discipline, secondary indexes (ASN /
  country / severity) and longitudinal queries;
* :mod:`repro.store.segments` — the packed-segment format compaction
  folds period JSON into (one seek + one read per point lookup);
* :mod:`repro.store.io`       — the byte-level write seam (atomic
  and in-place durable writes) production and the chaos harness share;
* :mod:`repro.store.manifest` — the two manifest slots every commit
  writes in place, and the crash recovery the archive runs on open;
* :mod:`repro.store.fsck`     — the offline integrity audit/repair
  behind ``repro store fsck`` (loaded on first use);
* :mod:`repro.store.errors`   — archive failures, rooted in the
  :mod:`repro.netbase.errors` taxonomy so the CLI and
  :mod:`repro.serve` map them to exit codes / HTTP statuses.

The serving layer on top is :mod:`repro.serve`.
"""

from .._lazy import lazy_exports
from .archive import (
    ArchiveStats,
    LivePeriodWriter,
    STORE_MMAP_ENV,
    SurveyArchive,
    payload_checksum,
    store_mmap_enabled,
)
from .errors import (
    AnomalyReportExistsError,
    ArchiveChangedError,
    AnomalyReportNotFoundError,
    ArchiveCorruptionError,
    ArchiveError,
    ASNotFoundError,
    LinkNotFoundError,
    PeriodExistsError,
    PeriodNotFoundError,
    SchemaVersionError,
)
from .io import REAL_IO, StoreIO
from .manifest import (
    ARCHIVE_FORMAT,
    SCHEMA_VERSION,
    RecoveryReport,
    read_manifest,
    recover,
    sweep_tmp_files,
)
from .segments import MAGIC, SegmentReader, write_segment

__all__ = [
    "SurveyArchive",
    "LivePeriodWriter",
    "ArchiveStats",
    "SCHEMA_VERSION",
    "ARCHIVE_FORMAT",
    "payload_checksum",
    "STORE_MMAP_ENV",
    "store_mmap_enabled",
    "ArchiveError",
    "PeriodExistsError",
    "PeriodNotFoundError",
    "ASNotFoundError",
    "AnomalyReportExistsError",
    "AnomalyReportNotFoundError",
    "LinkNotFoundError",
    "ArchiveCorruptionError",
    "ArchiveChangedError",
    "SchemaVersionError",
    "SegmentReader",
    "write_segment",
    "MAGIC",
    "StoreIO",
    "REAL_IO",
    "RecoveryReport",
    "read_manifest",
    "recover",
    "sweep_tmp_files",
    "run_fsck",
    "FsckReport",
    "FsckFinding",
    "EXIT_CLEAN",
    "EXIT_ERRORS",
    "EXIT_REPAIRED",
    "EXIT_UNUSABLE",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "fsck": (
        "EXIT_CLEAN", "EXIT_ERRORS", "EXIT_REPAIRED", "EXIT_UNUSABLE",
        "FsckFinding", "FsckReport", "run_fsck",
    ),
})
