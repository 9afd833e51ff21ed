"""The per-record raclette monitor, kept verbatim as a test oracle.

This is ``repro.raclette.monitor.LastMileMonitor`` (with its
``ExactMedian`` bin buffer, per-probe ``_ProbeState`` and
``MonitorConfig``) as it stood before the monitor moved onto the
shared traceroute scan and the stream engine's open-bin store.  It
closes a probe's bin when that probe moves on or lags the stream head
by ``max_open_bins``, and walks each traceroute on its own through
``lastmile_samples``.  ``tests/raclette/test_monitor_oracle.py`` holds
the rebuilt monitor to it on timestamp-ordered streams, for any split
into runs.  Out-of-order streams are where the two differ: once this
monitor force-closes a lagging probe it accepts any bin for it again,
so a late record can reopen a bin already aggregated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.atlas.traceroute import TracerouteResult
from repro.core.lastmile import MIN_TRACEROUTES_PER_BIN, lastmile_samples
from repro.obs import get_observer
from repro.quality import DataQualityReport, DropReason
from repro.raclette.alerts import Alert, AlertSink, ListSink
from repro.raclette.sketch import RollingMinimum
from repro.timebase import DELAY_BIN_SECONDS


class ExactMedian:
    """Exact median accumulator (stores samples)."""

    __slots__ = ("_samples",)

    def __init__(self):
        self._samples: List[float] = []

    def add(self, value: float) -> None:
        """Insert one sample."""
        self._samples.append(float(value))

    def extend(self, values) -> None:
        """Insert many samples."""
        self._samples.extend(float(v) for v in values)

    @property
    def count(self) -> int:
        """Number of samples seen."""
        return len(self._samples)

    def median(self) -> Optional[float]:
        """Current median, or None when empty."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return 0.5 * (ordered[mid - 1] + ordered[mid])


STAGE = "raclette-monitor"


@dataclass
class MonitorConfig:
    """Tunables of the streaming monitor."""

    bin_seconds: int = DELAY_BIN_SECONDS
    min_traceroutes: int = MIN_TRACEROUTES_PER_BIN
    #: Rolling-baseline window, in bins (336 = one week of 30-min bins).
    baseline_window_bins: int = 336
    #: Aggregated delay above baseline that arms an alert (the paper's
    #: Mild threshold: §4 shows throughput collapses past ~1 ms).
    alert_threshold_ms: float = 1.0
    #: Consecutive elevated bins required before an alert fires — the
    #: streaming analogue of "persistent" (4 bins = 2 hours).
    alert_min_bins: int = 4
    #: Bins a probe may lag behind the stream head before its open bin
    #: is force-closed (out-of-order tolerance).
    max_open_bins: int = 2


class _ProbeState:
    """Open-bin accumulator for one probe."""

    __slots__ = ("current_bin", "median", "count", "seen")

    def __init__(self):
        self.current_bin: Optional[int] = None
        self.median = ExactMedian()
        self.count = 0
        #: (msm_id, timestamp) keys seen in the open bin — duplicate
        #: suppression bounded to one bin's worth of memory.
        self.seen = set()

    def reset(self, bin_index: int) -> None:
        self.current_bin = bin_index
        self.median = ExactMedian()
        self.count = 0
        self.seen = set()


class _ASState:
    """Aggregation state for one AS."""

    __slots__ = ("baseline", "pending", "elevated_bins", "history",
                 "alerting")

    def __init__(self, window: int):
        self.baseline = RollingMinimum(window)
        #: bin index -> list of per-probe medians awaiting aggregation.
        self.pending: Dict[int, List[float]] = {}
        self.elevated_bins = 0
        #: closed (bin_index, aggregated_delay) pairs, newest last.
        self.history: List[tuple] = []
        self.alerting = False


class LastMileMonitor:
    """Streaming §2-pipeline with alerting.

    ``asn_of`` maps a probe id to its AS (use
    :func:`repro.core.filtering.resolve_probe_asn` against a RIB for
    the paper-faithful mapping, or a static dict for tests).
    """

    def __init__(
        self,
        asn_of: Callable[[int], Optional[int]],
        config: Optional[MonitorConfig] = None,
        sink: Optional[AlertSink] = None,
    ):
        self.asn_of = asn_of
        self.config = config or MonitorConfig()
        self.sink = sink if sink is not None else ListSink()
        self._probes: Dict[int, _ProbeState] = {}
        self._ases: Dict[int, _ASState] = {}
        self._head_bin = -1
        self.results_seen = 0
        self.bins_closed = 0
        self.alerts_emitted = 0
        #: Bins closed but not aggregated, keyed by the reason-code
        #: string — never a bare count.
        self.bins_skipped: Dict[str, int] = {}
        #: What the stream did to us: duplicates, stale stragglers,
        #: malformed records — dropped with reason codes, never a crash.
        self.quality = DataQualityReport()
        obs = get_observer()
        self._m_results = obs.counter(
            "raclette_results_total", "traceroute results ingested"
        ).labels()
        self._m_bins_closed = obs.counter(
            "raclette_bins_closed_total", "probe bins closed"
        ).labels()
        self._m_bins_skipped = obs.counter(
            "raclette_bins_skipped_total",
            "closed probe bins discarded before aggregation",
            ("reason",),
        )
        self._m_records_skipped = obs.counter(
            "raclette_records_skipped_total",
            "ingested results dropped by the fault-tolerance path",
            ("reason",),
        )
        self._m_alerts = obs.counter(
            "raclette_alerts_total", "alerts emitted", ("kind",)
        )
        self._m_asns = obs.gauge(
            "raclette_monitored_asns", "ASes with aggregated state"
        )

    def _drop_record(
        self, reason: DropReason, detail: str
    ) -> None:
        """Reason-coded record skip: quality ledger + metrics."""
        self.quality.drop(STAGE, reason, detail=detail)
        self._m_records_skipped.inc(1, reason=reason.value)

    def _skip_bin(self, reason: DropReason, detail: str) -> None:
        """Reason-coded bin skip: local tally + ledger + metrics."""
        key = reason.value
        self.bins_skipped[key] = self.bins_skipped.get(key, 0) + 1
        self.quality.drop(STAGE, reason, detail=detail)
        self._m_bins_skipped.inc(1, reason=key)

    # -- ingestion -------------------------------------------------------

    def ingest(self, result: TracerouteResult) -> None:
        """Feed one traceroute result.

        Tolerates what live streams do: duplicated results are dropped,
        stale stragglers (bins already closed) are dropped, records
        with non-finite timestamps or malformed hop data are dropped —
        each with a reason code on :attr:`quality` — and gaps simply
        leave bins unclosed, which the rolling baseline rides out.
        """
        self.results_seen += 1
        self._m_results.inc()
        self.quality.ingest(STAGE)
        timestamp = result.timestamp
        if not np.isfinite(timestamp):
            self._drop_record(
                DropReason.MALFORMED_RECORD,
                f"probe {result.prb_id}: timestamp {timestamp!r}",
            )
            return
        bin_index = int(timestamp // self.config.bin_seconds)
        if bin_index > self._head_bin:
            self._head_bin = bin_index
            self._expire_lagging_probes()

        state = self._probes.get(result.prb_id)
        if state is None:
            state = _ProbeState()
            state.reset(bin_index)
            self._probes[result.prb_id] = state
        elif state.current_bin is None:
            state.reset(bin_index)
        elif bin_index != state.current_bin:
            if bin_index < state.current_bin:
                self._drop_record(
                    DropReason.STALE_RECORD,
                    f"probe {result.prb_id}: bin {bin_index} "
                    f"already closed (open bin {state.current_bin})",
                )
                return  # stale straggler: already closed that bin
            self._close_probe_bin(result.prb_id, state)
            state.reset(bin_index)

        key = (result.msm_id, timestamp)
        if key in state.seen:
            self._drop_record(
                DropReason.DUPLICATE_RECORD,
                f"probe {result.prb_id}: msm {result.msm_id} "
                f"@{timestamp:.0f}s repeated",
            )
            return
        state.seen.add(key)

        state.count += 1
        try:
            samples = lastmile_samples(result)
        except (ValueError, TypeError) as exc:
            self._drop_record(
                DropReason.MALFORMED_RECORD,
                f"probe {result.prb_id}: {exc}",
            )
            return
        if samples:
            state.median.extend(samples)

    def ingest_many(self, results) -> None:
        """Feed an iterable of results."""
        for result in results:
            self.ingest(result)

    def flush(self) -> None:
        """Close every open bin (end of stream)."""
        for prb_id, state in self._probes.items():
            if state.current_bin is not None:
                self._close_probe_bin(prb_id, state)
                state.current_bin = None
        for asn in list(self._ases):
            self._aggregate_ready(asn, up_to_bin=None)

    # -- bin closing -------------------------------------------------------

    def _expire_lagging_probes(self) -> None:
        horizon = self._head_bin - self.config.max_open_bins
        for prb_id, state in self._probes.items():
            if state.current_bin is not None and state.current_bin < horizon:
                self._close_probe_bin(prb_id, state)
                state.current_bin = None
        for asn in list(self._ases):
            self._aggregate_ready(asn, up_to_bin=horizon)

    def _close_probe_bin(self, prb_id: int, state: _ProbeState) -> None:
        self.bins_closed += 1
        self._m_bins_closed.inc()
        if state.count < self.config.min_traceroutes:
            # The paper's disconnected-probe sanity check.
            self._skip_bin(
                DropReason.SPARSE_BIN,
                f"probe {prb_id}: bin {state.current_bin} closed with "
                f"{state.count} < {self.config.min_traceroutes} "
                "traceroutes",
            )
            return
        median = state.median.median()
        if median is None:
            self._skip_bin(
                DropReason.NO_VALID_BINS,
                f"probe {prb_id}: bin {state.current_bin} had no "
                "usable last-mile samples",
            )
            return
        asn = self.asn_of(prb_id)
        if asn is None:
            self._skip_bin(
                DropReason.UNRESOLVED_ASN,
                f"probe {prb_id}: no AS mapping; bin "
                f"{state.current_bin} discarded",
            )
            return
        as_state = self._ases.get(asn)
        if as_state is None:
            as_state = _ASState(self.config.baseline_window_bins)
            self._ases[asn] = as_state
            self._m_asns.set(len(self._ases))
        as_state.pending.setdefault(state.current_bin, []).append(median)

    def _aggregate_ready(self, asn: int, up_to_bin: Optional[int]) -> None:
        state = self._ases[asn]
        ready = sorted(
            b for b in state.pending
            if up_to_bin is None or b < up_to_bin
        )
        for bin_index in ready:
            medians = state.pending.pop(bin_index)
            raw = float(np.median(medians))
            baseline = state.baseline.push(raw)
            delay = max(raw - baseline, 0.0)
            state.history.append((bin_index, delay))
            self._evaluate_alert(asn, state, bin_index, delay)

    # -- alerting -----------------------------------------------------------

    def _evaluate_alert(
        self, asn: int, state: _ASState, bin_index: int, delay: float
    ) -> None:
        cfg = self.config
        if delay > cfg.alert_threshold_ms:
            state.elevated_bins += 1
            if (
                state.elevated_bins >= cfg.alert_min_bins
                and not state.alerting
            ):
                state.alerting = True
                self.alerts_emitted += 1
                self._m_alerts.inc(1, kind="congestion-start")
                self.sink.emit(Alert(
                    asn=asn,
                    start_bin=bin_index - cfg.alert_min_bins + 1,
                    bin_seconds=cfg.bin_seconds,
                    delay_ms=delay,
                    kind="congestion-start",
                ))
        else:
            if state.alerting:
                self.alerts_emitted += 1
                self._m_alerts.inc(1, kind="congestion-end")
                self.sink.emit(Alert(
                    asn=asn,
                    start_bin=bin_index,
                    bin_seconds=cfg.bin_seconds,
                    delay_ms=delay,
                    kind="congestion-end",
                ))
            state.alerting = False
            state.elevated_bins = 0

    # -- inspection ----------------------------------------------------------

    def delay_series(self, asn: int) -> List[tuple]:
        """Closed ``(bin_index, aggregated_delay_ms)`` pairs of an AS."""
        state = self._ases.get(asn)
        return list(state.history) if state else []

    def monitored_asns(self) -> List[int]:
        """ASes with at least one closed aggregated bin."""
        return sorted(
            asn for asn, state in self._ases.items() if state.history
        )

    def summary(self) -> str:
        """One-line status for logs, skips broken down by reason."""
        line = (
            f"raclette: {self.results_seen} results, "
            f"{self.bins_closed} probe-bins closed, "
            f"{len(self.monitored_asns())} ASes, "
            f"{self.alerts_emitted} alerts"
        )
        entry = self.quality.stages.get(STAGE)
        if entry is not None and entry.dropped:
            parts = [
                f"{reason.value}={count}"
                for reason, count in sorted(
                    entry.dropped.items(), key=lambda kv: kv[0].value
                )
            ]
            line += ", dropped: " + " ".join(parts)
        return line
