"""Streaming last-mile monitor (the paper's *raclette* artifact).

Consumes traceroute results as they arrive, one at a time or in runs,
and — as bins close — updates per-AS aggregated queueing-delay state
with a rolling propagation-delay baseline.  Sustained deviations raise
:class:`~repro.raclette.alerts.Alert` records.

A run of results goes through the batch scan
(:func:`~repro.core.kernels.flat.gate`, one
:func:`~repro.core.kernels.flat.sample_lastmile` walk) into the stream
engine's open-bin store (:class:`~repro.stream.openbins.OpenBins`),
which closes each probe's bin with the batch estimator: same bin
width, median and sanity threshold.  The monitor adds duplicate
suppression, the per-AS median of probe medians, the rolling baseline
(rather than a whole-period minimum: the stream is unbounded) and the
alert rule.

Bins close at one watermark, the stream head (the highest bin seen so
far) minus :data:`MAX_OPEN_BINS`; a result for a bin below it is
dropped as ``STALE_RECORD``, so the input must arrive roughly in
timestamp order.  The head is a running maximum, so the output does
not depend on how the stream is split into runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..atlas.traceroute import TracerouteResult
from ..core.kernels.flat import MALFORMED, gate, sample_lastmile
from ..core.lastmile import MIN_TRACEROUTES_PER_BIN
from ..obs import get_observer
from ..quality import DataQualityReport, DropReason
from ..stream.openbins import OpenBins
from ..timebase import DELAY_BIN_SECONDS
from .alerts import Alert, AlertSink, ListSink
from .sketch import RollingMinimum

STAGE = "raclette-monitor"

#: Bins an open bin may lag the stream head before it closes: the
#: out-of-order tolerance.
MAX_OPEN_BINS = 2


class _StreamGrid:
    """The stream's bin grid for :func:`gate`: 30-minute bins from the
    epoch of the result timestamps, with no end."""

    bin_seconds = DELAY_BIN_SECONDS
    num_bins = math.inf

    @staticmethod
    def bin_index(seconds: np.ndarray) -> np.ndarray:
        return np.floor_divide(seconds, DELAY_BIN_SECONDS).astype(np.int64)


@dataclass
class MonitorConfig:
    """Tunables of the streaming monitor."""

    #: Rolling-baseline window, in bins (336 = one week of 30-min bins).
    baseline_window_bins: int = 336
    #: Aggregated delay above baseline that arms an alert (the paper's
    #: Mild threshold: §4 shows throughput collapses past ~1 ms).
    alert_threshold_ms: float = 1.0
    #: Consecutive elevated bins required before an alert fires — the
    #: streaming analogue of "persistent" (4 bins = 2 hours).
    alert_min_bins: int = 4


class _ASState:
    """Aggregation state for one AS."""

    __slots__ = ("baseline", "elevated_bins", "history", "alerting")

    def __init__(self, window: int):
        self.baseline = RollingMinimum(window)
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
        self._store = OpenBins()
        #: Store slot of each probe, and each slot's probe.
        self._slots: Dict[int, int] = {}
        self._slot_prb: List[int] = []
        #: Open bin -> ``(slot, msm_id, timestamp)`` of its accepted
        #: results: duplicate suppression bounded to the open bins, and
        #: their traceroute counts.
        self._seen: Dict[int, Set[Tuple[int, int, float]]] = {}
        self._ases: Dict[int, _ASState] = {}
        self._head_bin = -1
        self._closed_through = -1
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
        """Feed one traceroute result: a run of one."""
        self.ingest_many((result,))

    def ingest_many(self, results) -> None:
        """Feed a run of results, then close the bins it left behind
        the watermark.

        Tolerates what live streams do: duplicated results are dropped,
        stale stragglers (bins already closed) are dropped, records
        with non-finite or pre-epoch timestamps are dropped — each with
        a reason code on :attr:`quality` — and gaps simply leave bins
        unfilled, which the rolling baseline rides out.
        """
        results = list(results)
        if not results:
            return
        self.results_seen += len(results)
        self._m_results.inc(len(results))
        self.quality.ingest(STAGE, len(results))
        bins = gate(results, _StreamGrid)
        heads = np.maximum.accumulate(np.maximum(bins, self._head_bin))
        closed = np.maximum(heads - MAX_OPEN_BINS - 1, self._closed_through)
        kept: List[int] = []
        slots: List[int] = []
        for row, (result, bin_index, closed_through) in enumerate(
            zip(results, bins.tolist(), closed.tolist())
        ):
            prb_id = result.prb_id
            if bin_index < 0:
                reason = (
                    DropReason.MALFORMED_RECORD if bin_index == MALFORMED
                    else DropReason.OUT_OF_PERIOD
                )
                self._drop_record(
                    reason, f"probe {prb_id}: timestamp {result.timestamp!r}"
                )
            elif bin_index <= closed_through:
                self._drop_record(
                    DropReason.STALE_RECORD,
                    f"probe {prb_id}: bin {bin_index} already closed "
                    f"(watermark {closed_through + 1})",
                )
            else:
                slot = self._slot(prb_id)
                key = (slot, result.msm_id, result.timestamp)
                seen = self._seen.setdefault(bin_index, set())
                if key in seen:
                    self._drop_record(
                        DropReason.DUPLICATE_RECORD,
                        f"probe {prb_id}: msm {result.msm_id} "
                        f"@{result.timestamp:.0f}s repeated",
                    )
                    continue
                seen.add(key)
                kept.append(row)
                slots.append(slot)
        rows = np.asarray(kept, dtype=np.int64)
        sizes, samples = sample_lastmile(
            results, bins, rows, _StreamGrid, None
        )
        self._store.extend(
            np.repeat(np.asarray(slots, dtype=np.int64), sizes),
            np.repeat(bins[rows], sizes), samples,
        )
        self._head_bin = int(heads[-1])
        self._close_through(self._head_bin - MAX_OPEN_BINS - 1)

    def _slot(self, prb_id: int) -> int:
        slot = self._slots.get(prb_id)
        if slot is None:
            slot = self._slots[prb_id] = len(self._slot_prb)
            self._slot_prb.append(prb_id)
        return slot

    def flush(self) -> None:
        """Close every open bin (end of stream)."""
        self._close_through(self._head_bin)

    # -- bin closing -------------------------------------------------------

    def _close_through(self, bin_index: int) -> None:
        """Close every open bin ≤ ``bin_index``: probe medians from the
        store, sanity and mapping checks, then per-AS aggregation in
        bin order."""
        if bin_index <= self._closed_through:
            return
        self._closed_through = bin_index
        counts: Dict[Tuple[int, int], int] = {}
        for closing in sorted(b for b in self._seen if b <= bin_index):
            for slot, _msm, _timestamp in self._seen.pop(closing):
                counts[slot, closing] = counts.get((slot, closing), 0) + 1
        if not counts:
            return
        key_slots, key_bins, _counts, medians = self._store.close_through(
            bin_index, np.asarray(self._slot_prb, dtype=np.int64),
            lambda slots, bins: np.array([
                counts[key] for key in zip(slots.tolist(), bins.tolist())
            ], dtype=np.int64),
            MIN_TRACEROUTES_PER_BIN, None,
        )
        median_of = dict(zip(
            zip(key_slots.tolist(), key_bins.tolist()), medians.tolist()
        ))
        self.bins_closed += len(counts)
        self._m_bins_closed.inc(len(counts))
        #: (bin, AS) -> probe medians, in bin order.
        ready: Dict[Tuple[int, int], List[float]] = {}
        for slot, closing in sorted(
            counts, key=lambda key: (key[1], self._slot_prb[key[0]])
        ):
            prb_id = self._slot_prb[slot]
            count = counts[slot, closing]
            if count < MIN_TRACEROUTES_PER_BIN:
                # The paper's disconnected-probe sanity check.
                self._skip_bin(
                    DropReason.SPARSE_BIN,
                    f"probe {prb_id}: bin {closing} closed with "
                    f"{count} < {MIN_TRACEROUTES_PER_BIN} traceroutes",
                )
                continue
            median = median_of.get((slot, closing))
            if median is None:
                self._skip_bin(
                    DropReason.NO_VALID_BINS,
                    f"probe {prb_id}: bin {closing} had no "
                    "usable last-mile samples",
                )
                continue
            asn = self.asn_of(prb_id)
            if asn is None:
                self._skip_bin(
                    DropReason.UNRESOLVED_ASN,
                    f"probe {prb_id}: no AS mapping; bin "
                    f"{closing} discarded",
                )
                continue
            ready.setdefault((closing, asn), []).append(median)
        for (closing, asn), probe_medians in ready.items():
            self._aggregate(asn, closing, probe_medians)

    def _aggregate(
        self, asn: int, bin_index: int, probe_medians: List[float]
    ) -> None:
        state = self._ases.get(asn)
        if state is None:
            state = _ASState(self.config.baseline_window_bins)
            self._ases[asn] = state
            self._m_asns.set(len(self._ases))
        raw = float(np.median(probe_medians))
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
                    bin_seconds=DELAY_BIN_SECONDS,
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
                    bin_seconds=DELAY_BIN_SECONDS,
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
