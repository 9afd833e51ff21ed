"""Traceroute result data model, Atlas-JSON compatible.

The analysis pipeline consumes these records exactly as it would
consume results fetched from the RIPE Atlas API: the
:meth:`TracerouteResult.to_json` / :func:`parse_result` round-trip
uses the same field names as Atlas traceroute results (``prb_id``,
``msm_id``, ``timestamp``, ``result`` with per-hop ``hop``/``result``
lists of ``from``/``rtt`` replies, and ``"x": "*"`` entries for
timeouts), so the core pipeline would run unmodified on real
downloaded measurement data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..netbase.errors import MalformedRecordError
from ..quality import DataQualityReport, DropReason

REPLIES_PER_HOP = 3

#: RTTs beyond this are garbage, not measurements (5 minutes in ms).
MAX_SANE_RTT_MS = 300_000.0


@dataclass(frozen=True)
class Reply:
    """One traceroute reply: responder address and RTT, or a timeout."""

    from_address: Optional[str]
    rtt_ms: Optional[float]

    def __post_init__(self):
        if (self.from_address is None) != (self.rtt_ms is None):
            raise ValueError(
                "reply must have both address and RTT, or neither"
            )
        if self.rtt_ms is not None and self.rtt_ms < 0:
            raise ValueError(f"negative RTT {self.rtt_ms}")

    @property
    def timed_out(self) -> bool:
        """True for a ``*`` (no reply) slot."""
        return self.from_address is None

    @classmethod
    def timeout(cls) -> "Reply":
        """The canonical timeout reply."""
        return cls(from_address=None, rtt_ms=None)


@dataclass(frozen=True)
class Hop:
    """One TTL step with its (up to 3) replies."""

    hop: int
    replies: Tuple[Reply, ...]

    def __post_init__(self):
        if self.hop < 1:
            raise ValueError(f"hop numbers start at 1, got {self.hop}")
        if len(self.replies) > REPLIES_PER_HOP:
            raise ValueError(f"more than {REPLIES_PER_HOP} replies")

    @property
    def responding_address(self) -> Optional[str]:
        """Address of the first non-timeout reply, or None."""
        for reply in self.replies:
            if not reply.timed_out:
                return reply.from_address
        return None

    @property
    def rtts(self) -> List[float]:
        """All non-timeout RTTs at this hop."""
        return [r.rtt_ms for r in self.replies if not r.timed_out]


@dataclass(frozen=True)
class TracerouteResult:
    """One complete traceroute measurement result."""

    prb_id: int
    msm_id: int
    timestamp: float          # seconds (absolute epoch or period-relative)
    src_address: str          # probe-reported local address (often private)
    from_address: str         # probe public address as seen by the API
    dst_address: str
    hops: Tuple[Hop, ...]
    af: int = 4

    def __post_init__(self):
        numbers = [h.hop for h in self.hops]
        if numbers != sorted(numbers):
            raise ValueError("hops out of order")

    def to_json(self) -> Dict:
        """Serialize in the RIPE Atlas result schema."""
        result = []
        for hop in self.hops:
            entries = []
            for reply in hop.replies:
                if reply.timed_out:
                    entries.append({"x": "*"})
                else:
                    entries.append(
                        {"from": reply.from_address, "rtt": reply.rtt_ms}
                    )
            result.append({"hop": hop.hop, "result": entries})
        return {
            "prb_id": self.prb_id,
            "msm_id": self.msm_id,
            "timestamp": self.timestamp,
            "src_addr": self.src_address,
            "from": self.from_address,
            "dst_addr": self.dst_address,
            "af": self.af,
            "type": "traceroute",
            "result": result,
        }


def parse_result(
    data: Dict,
    quality: Optional[DataQualityReport] = None,
    stage: str = "atlas.parse",
) -> "TracerouteResult":
    """Parse one Atlas-schema dict (as the Atlas API serves it).

    The one parser of Atlas results.  It repairs what it can and
    records each repair on ``quality``: a garbage RTT (NaN, negative,
    non-numeric or absurd) becomes a ``*`` timeout, and an
    out-of-order hop list is re-sorted.  A reply with an address but
    no RTT is a timeout too, as Atlas "late" packets are.  Only a
    structurally unusable record (missing identity fields, a
    non-finite timestamp, a hop that is not a hop) raises
    :class:`MalformedRecordError`, which callers drop with its reason
    code.
    """
    if not isinstance(data, dict):
        raise MalformedRecordError(f"not a JSON object: {type(data).__name__}")
    try:
        prb_id = int(data["prb_id"])
        msm_id = int(data["msm_id"])
        timestamp = float(data["timestamp"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedRecordError(f"bad identity fields: {exc}") from None
    if not math.isfinite(timestamp):
        raise MalformedRecordError(f"non-finite timestamp {timestamp}")

    hops = []
    raw_hops = data.get("result", [])
    if not isinstance(raw_hops, list):
        raise MalformedRecordError("result is not a hop list")
    for hop_entry in raw_hops:
        try:
            hop_number = int(hop_entry["hop"])
            raw_replies = hop_entry.get("result", [])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise MalformedRecordError(f"bad hop entry: {exc!r}") from None
        if not isinstance(raw_replies, list) or not all(
            isinstance(entry, dict) for entry in raw_replies
        ):
            raise MalformedRecordError(
                f"probe {prb_id} hop {hop_number}: replies are not objects"
            )
        replies = []
        for reply_entry in raw_replies:
            rtt = reply_entry.get("rtt")
            if "x" in reply_entry or "from" not in reply_entry or rtt is None:
                replies.append(Reply.timeout())
                continue
            try:
                rtt = float(rtt)
            except (TypeError, ValueError):
                rtt = float("nan")
            if not math.isfinite(rtt) or rtt < 0 or rtt > MAX_SANE_RTT_MS:
                if quality is not None:
                    quality.degrade(
                        stage, DropReason.GARBAGE_RTT,
                        detail=f"probe {prb_id} hop {hop_number}: rtt "
                        f"{reply_entry.get('rtt')!r}",
                    )
                replies.append(Reply.timeout())
                continue
            replies.append(Reply(reply_entry["from"], rtt))
        try:
            hops.append(Hop(hop=hop_number, replies=tuple(replies)))
        except ValueError as exc:
            raise MalformedRecordError(str(exc)) from None

    numbers = [h.hop for h in hops]
    if numbers != sorted(numbers):
        hops.sort(key=lambda h: h.hop)
        if quality is not None:
            quality.degrade(
                stage, DropReason.OUT_OF_ORDER,
                detail=f"probe {prb_id}: hop list re-sorted",
            )

    try:
        return TracerouteResult(
            prb_id=prb_id,
            msm_id=msm_id,
            timestamp=timestamp,
            src_address=str(data.get("src_addr", "")),
            from_address=str(data.get("from", "")),
            dst_address=str(data.get("dst_addr", "")),
            hops=tuple(hops),
            af=int(data.get("af", 4)),
        )
    except (TypeError, ValueError) as exc:
        raise MalformedRecordError(str(exc)) from None


@dataclass
class MeasurementDataset:
    """A bag of traceroute results plus probe metadata.

    Results are stored per probe in timestamp order, which is how the
    pipeline consumes them.  ``probe_meta`` carries what the Atlas API
    exposes about each probe (ASN, anchor flag, city, public address).
    """

    results: Dict[int, List[TracerouteResult]] = field(default_factory=dict)
    probe_meta: Dict[int, "ProbeMeta"] = field(default_factory=dict)
    #: Filled by lenient loaders/parsers; None for trusted in-memory data.
    quality: Optional[DataQualityReport] = None

    def add(self, result: TracerouteResult) -> None:
        """Append one result under its probe id."""
        self.results.setdefault(result.prb_id, []).append(result)

    def extend(self, results: Iterable[TracerouteResult]) -> None:
        """Append many results."""
        for result in results:
            self.add(result)

    def probe_ids(self) -> List[int]:
        """Sorted probe ids present in the dataset."""
        return sorted(self.results)

    def for_probe(self, prb_id: int) -> List[TracerouteResult]:
        """All results of one probe in insertion (time) order."""
        return self.results.get(prb_id, [])

    def sort_results(self) -> int:
        """Re-sort each probe's results by timestamp (stream reorder).

        Returns the number of probes whose lists needed re-sorting, so
        lenient loaders can account for out-of-order input.
        """
        resorted = 0
        for prb_id, results in self.results.items():
            stamps = [r.timestamp for r in results]
            if stamps != sorted(stamps):
                results.sort(key=lambda r: r.timestamp)
                resorted += 1
        return resorted

    def __len__(self) -> int:
        return sum(len(v) for v in self.results.values())


@dataclass(frozen=True)
class ProbeMeta:
    """Probe metadata as the Atlas API would expose it."""

    prb_id: int
    asn: int
    is_anchor: bool
    public_address: str
    city: str = ""
    version: int = 3
