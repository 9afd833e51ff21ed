"""Exception hierarchy for :mod:`repro.netbase` and the data pipeline.

All address and prefix handling errors derive from :class:`NetbaseError`
so callers can catch a single exception type at API boundaries while the
library keeps raising precise subclasses internally.

The second half of the module is the measurement-data taxonomy: every
way a dirty Atlas-shaped input can fail maps to one
:class:`MeasurementDataError` subclass carrying the
:class:`~repro.quality.DropReason` the quarantine path records when it
catches it.  :class:`TransientFaultError` marks failures worth a
bounded retry (the survey's per-AS isolation retries those once before
logging the AS as failed).
"""

from __future__ import annotations

from typing import Optional

from ..quality import DropReason


class NetbaseError(ValueError):
    """Base class for all address/prefix related errors."""


class AddressParseError(NetbaseError):
    """Raised when a textual IP address cannot be parsed.

    The offending text is kept in :attr:`text` for error reporting.
    """

    def __init__(self, text: str, reason: str = "invalid address"):
        self.text = text
        self.reason = reason
        super().__init__(f"{reason}: {text!r}")


class PrefixParseError(NetbaseError):
    """Raised when a textual CIDR prefix cannot be parsed."""

    def __init__(self, text: str, reason: str = "invalid prefix"):
        self.text = text
        self.reason = reason
        super().__init__(f"{reason}: {text!r}")


class VersionMismatchError(NetbaseError):
    """Raised when mixing IPv4 and IPv6 objects in one operation."""


class PoolExhaustedError(NetbaseError):
    """Raised when an address pool has no more addresses to allocate."""


class MeasurementDataError(NetbaseError):
    """Base class for dirty measurement-data failures.

    Carries the :class:`~repro.quality.DropReason` the quarantine path
    should record, so hardened consumers translate exception → ledger
    entry without a mapping table.
    """

    default_reason: DropReason = DropReason.MALFORMED_RECORD

    def __init__(self, detail: str, reason: Optional[DropReason] = None):
        self.detail = detail
        self.reason = reason if reason is not None else self.default_reason
        super().__init__(f"{self.reason.value}: {detail}")


class CorruptLineError(MeasurementDataError):
    """A JSONL line that does not parse as JSON at all."""

    default_reason = DropReason.CORRUPT_LINE


class MalformedRecordError(MeasurementDataError):
    """Valid JSON that does not fit the Atlas result schema."""

    default_reason = DropReason.MALFORMED_RECORD


class EmptyPopulationError(MeasurementDataError):
    """An aggregation was asked to run over zero probe series."""

    default_reason = DropReason.EMPTY_POPULATION


class DegenerateSignalError(MeasurementDataError):
    """A signal too short or too gappy for spectral analysis."""

    default_reason = DropReason.DEGENERATE_SIGNAL


class TransientFaultError(MeasurementDataError):
    """A failure worth one bounded retry (flaky backend, racing write).

    The survey's per-AS isolation retries these ``max_attempts - 1``
    times before logging the AS as failed; every other exception fails
    the AS immediately.
    """

    default_reason = DropReason.AS_FAILURE
