"""Pipeline-wide observability: metrics, tracing, logging.

One :class:`Observability` object bundles the three concerns the
analysis pipeline reports through:

* :mod:`repro.obs.metrics` — counters/gauges/histograms with labels,
  JSON and Prometheus export;
* :mod:`repro.obs.trace`   — nested wall/CPU spans per stage and AS;
* :mod:`repro.obs.log`     — structured JSONL event logging.

Instrumented code never receives an observer argument; it asks for the
process-wide active one (:func:`get_observer`) exactly like stages ask
for a quality ledger.  The default observer is the shared no-op
:data:`NOOP` — every instrument call on it is a constant-time method
dispatch, which keeps the un-observed pipeline within the < 2 %
throughput budget.  The CLI (``--trace`` / ``--metrics-out``) and
tests install a live observer with :func:`observed` or
:func:`set_observer`.

Standard stage metrics (the names CI's exporter smoke test checks):

* ``pipeline_items_in_total{stage}``   — items entering a stage;
* ``pipeline_items_out_total{stage}``  — items surviving it;
* ``pipeline_duration_seconds{stage}`` — stage latency histogram;
* ``quality_ingested_total{stage}``, ``quality_dropped_total{stage,
  reason}``, ``quality_degraded_total{stage,reason}`` — the
  :class:`repro.quality.DataQualityReport` ledger mirrored as metrics.

Like :mod:`repro.quality`, the whole package is stdlib-only.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Optional

from .log import StructuredLogger, open_jsonl_sink
from .metrics import (
    BoundCounter,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    estimate_quantile,
    parse_prometheus,
)
from .snapshot import TelemetrySnapshot
from .trace import (
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    render_trace,
    render_trace_dict,
)

__all__ = [
    "Observability",
    "NOOP",
    "get_observer",
    "set_observer",
    "observed",
    "PerObserver",
    "MetricsRegistry",
    "estimate_quantile",
    "parse_prometheus",
    "TelemetrySnapshot",
    "Counter",
    "BoundCounter",
    "Gauge",
    "Histogram",
    "Tracer",
    "NullTracer",
    "Span",
    "TraceContext",
    "render_trace",
    "render_trace_dict",
    "StructuredLogger",
    "open_jsonl_sink",
]

ITEMS_IN = "pipeline_items_in_total"
ITEMS_OUT = "pipeline_items_out_total"
DURATION = "pipeline_duration_seconds"
QUALITY_INGESTED = "quality_ingested_total"
QUALITY_DROPPED = "quality_dropped_total"
QUALITY_DEGRADED = "quality_degraded_total"
SPANS_DROPPED = "obs_spans_dropped_total"


def _bound(handles, instrument, stage: str):
    """``instrument``'s handle bound to ``stage``, made on first use.

    The stage accounting runs once per AS; a bound handle skips the
    label-key build a labelled call pays each time.
    """
    handle = handles.get(stage)
    if handle is None:
        handle = handles[stage] = instrument.labels(stage=stage)
    return handle


class Observability:
    """A live observer: real registry, tracer and logger."""

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        logger: Optional[StructuredLogger] = None,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.logger = logger if logger is not None else StructuredLogger()
        self._items_in = self.metrics.counter(
            ITEMS_IN, "items entering a pipeline stage", ("stage",)
        )
        self._items_out = self.metrics.counter(
            ITEMS_OUT, "items leaving a pipeline stage", ("stage",)
        )
        self._duration = self.metrics.histogram(
            DURATION, "stage wall-clock latency", ("stage",)
        )
        self._in_by_stage: Dict = {}
        self._out_by_stage: Dict = {}
        self._duration_by_stage: Dict = {}

    @property
    def enabled(self) -> bool:
        return True

    # -- tracing -------------------------------------------------------

    def span(self, name: str, **attrs):
        """Plain span (no stage accounting)."""
        return self.tracer.span(name, **attrs)

    def stage_span(self, stage: str, **attrs):
        """Span that also records ``pipeline_duration_seconds``."""
        duration = _bound(self._duration_by_stage, self._duration, stage)
        return self.tracer.timed_span(duration.observe, stage, attrs)

    def keep_recent_spans(self, max_roots: int) -> None:
        """Bound the trace to its ``max_roots`` most recent root spans.

        Every evicted root is counted in ``obs_spans_dropped_total``,
        so a scrape says what the trace no longer holds.
        """
        dropped = self.metrics.counter(
            SPANS_DROPPED, "root spans evicted from a bounded trace",
        )
        dropped.inc(0)  # scrapes show the series before any drop
        self.tracer.keep_recent(max_roots, on_drop=dropped.inc)

    # -- stage accounting ----------------------------------------------

    def items_in(self, stage: str, n: int = 1) -> None:
        _bound(self._in_by_stage, self._items_in, stage).inc(n)

    def items_out(self, stage: str, n: int = 1) -> None:
        _bound(self._out_by_stage, self._items_out, stage).inc(n)

    def counter(self, name: str, help: str = "",
                label_names=()) -> Counter:
        return self.metrics.counter(name, help, label_names)

    def gauge(self, name: str, help: str = "", label_names=()) -> Gauge:
        return self.metrics.gauge(name, help, label_names)

    def histogram(self, name: str, help: str = "",
                  label_names=(), **kwargs) -> Histogram:
        return self.metrics.histogram(name, help, label_names, **kwargs)

    # -- quality bridge ------------------------------------------------

    def record_quality(self, report) -> None:
        """Mirror a :class:`~repro.quality.DataQualityReport` into the
        registry (idempotent per report *snapshot*: gauges, not adds).

        Stage names land verbatim as the ``stage`` label — the ledger
        already normalizes them to kebab-case, so metric labels and
        ledger keys match.
        """
        ingested = self.metrics.gauge(
            QUALITY_INGESTED, "items ingested per quality stage",
            ("stage",),
        )
        dropped = self.metrics.gauge(
            QUALITY_DROPPED, "items dropped per stage and reason",
            ("stage", "reason"),
        )
        degraded = self.metrics.gauge(
            QUALITY_DEGRADED, "items degraded per stage and reason",
            ("stage", "reason"),
        )
        for name, entry in report.stages.items():
            ingested.set(entry.ingested, stage=name)
            for reason, count in entry.dropped.items():
                dropped.set(count, stage=name, reason=reason.value)
            for reason, count in entry.degraded.items():
                degraded.set(count, stage=name, reason=reason.value)


class _NoopInstrument:
    """Stands in for Counter/Gauge/Histogram when observability is off."""

    __slots__ = ()

    def inc(self, n: float = 1, **labels) -> None:
        pass

    def set(self, value: float, **labels) -> None:
        pass

    def add(self, n: float = 1, **labels) -> None:
        pass

    def observe(self, value: float, **labels) -> None:
        pass

    def labels(self, **labels) -> "_NoopInstrument":
        return self


_NOOP_INSTRUMENT = _NoopInstrument()


class _NoopObservability:
    """Observability off: every call is a constant-time no-op.

    Shares interface with :class:`Observability`; hot paths hold no
    conditionals — they call the same methods either way.
    """

    __slots__ = ()
    tracer = NullTracer()
    logger = StructuredLogger()  # sink=None: emits nothing
    metrics = None

    @property
    def enabled(self) -> bool:
        return False

    def span(self, name: str, **attrs):
        return self.tracer.span(name)

    def stage_span(self, stage: str, **attrs):
        return self.tracer.span(stage)

    def items_in(self, stage: str, n: int = 1) -> None:
        pass

    def items_out(self, stage: str, n: int = 1) -> None:
        pass

    def counter(self, name, help="", label_names=()) -> _NoopInstrument:
        return _NOOP_INSTRUMENT

    def gauge(self, name, help="", label_names=()) -> _NoopInstrument:
        return _NOOP_INSTRUMENT

    def histogram(self, name, help="", label_names=(),
                  **kwargs) -> _NoopInstrument:
        return _NOOP_INSTRUMENT

    def record_quality(self, report) -> None:
        pass


NOOP = _NoopObservability()

_active = NOOP


def get_observer():
    """The process-wide active observer (:data:`NOOP` by default)."""
    return _active


def set_observer(observer) -> None:
    """Install an observer; pass :data:`NOOP` to disable."""
    global _active
    _active = observer if observer is not None else NOOP


@contextmanager
def observed(observer: Optional[Observability] = None):
    """Install a (fresh by default) observer for a ``with`` block.

    Yields the observer and restores the previous one on exit —
    the run-isolation idiom for tests and CLI commands::

        with observed() as obs:
            run_survey(...)
        print(render_trace(obs.tracer))
    """
    if observer is None:
        observer = Observability()
    previous = get_observer()
    set_observer(observer)
    try:
        yield observer
    finally:
        set_observer(previous)


class PerObserver:
    """``factory(observer)``, rebuilt only when the observer changes.

    A hot path that would look its instruments up in the registry on
    every call resolves them once through one of these instead (and
    again after :func:`set_observer` installs a different observer).
    """

    __slots__ = ("_factory", "_bound", "_lock")

    def __init__(self, factory):
        self._factory = factory
        self._bound = (None, None)
        self._lock = threading.Lock()

    def get(self, observer):
        bound = self._bound
        if bound[0] is not observer:
            with self._lock:
                bound = self._bound
                if bound[0] is not observer:
                    bound = (observer, self._factory(observer))
                    self._bound = bound
        return bound[1]


from .report import (  # noqa: E402  (needs the names above)
    build_report,
    load_report,
    render_report,
    write_report,
)

__all__ += ["build_report", "write_report", "load_report", "render_report"]
