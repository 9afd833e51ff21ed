"""The survey query API: routes → archive queries → JSON responses.

This layer is deliberately socket-free: :class:`SurveyAPI` maps a
request path to a fully rendered :class:`Response` (status, body
bytes, ETag, extra headers), and :mod:`repro.serve.http` is a thin
HTTP shell around it.  Tests exercise routing, error mapping, caching
and the resilience middleware here without binding a port.

The HTTP surface (all ``GET``, all JSON):

* ``/v1/healthz``                       — liveness, archive summary,
  breaker/limiter state (never cached — health must be fresh);
* ``/v1/periods``                       — committed periods with meta;
* ``/v1/period/<p>``                    — one period's full payload;
* ``/v1/period/<p>/severe``             — the Severe-class lookup;
* ``/v1/period/<p>/severity/<class>``   — any severity class;
* ``/v1/period/<p>/country/<cc>``       — per-country AS list;
* ``/v1/as/<asn>[?period=<p>]``         — one AS's verdict (the
  operator lookup the paper's site exists for);
* ``/v1/as/<asn>/history``              — the AS's longitudinal record;
* ``/v1/period/<p>/anomalies``          — the period's committed
  anomaly report (per-link differential RTT bands + delay/forwarding
  events, :mod:`repro.anomaly`);
* ``/v1/link/<link>/history``           — one link's longitudinal
  record across every committed anomaly report;
* ``/v1/metrics``                       — the live observer's metric
  registry, Prometheus text by default, JSON via ``Accept:
  application/json`` or ``?format=json`` (never cached — a scrape
  must see current values; 503 when no live observer is installed).

Every response carries an ``X-Request-Id`` header — echoed from the
request when the client sent one, freshly generated otherwise — and
names the ``route`` that rendered it and an ``outcome`` word (``ok``,
``cached``, ``shed``, ``breaker-open``, ``deadline`` or ``error``).
The HTTP shell (:mod:`repro.serve.http`) books each request once from
those: ``http_requests_total{route,status}``, the
``serve_request_seconds{route}`` histogram and one ``access`` log
line.  This layer keeps only what it alone knows:
``requests_shed_total``, ``serve_cache_hits_total``, the
``serve_cache_hit_ratio`` gauge and cache invalidations.

Error mapping follows the :mod:`repro.netbase.errors` taxonomy:
*not found* archive errors → 404, malformed requests → 400, archive
corruption / open circuits / shed load / blown deadlines → 503
(with ``Retry-After``), anything else → 500.

Resilience (see :mod:`repro.serve.resilience`): every request first
takes a :class:`ConcurrencyLimiter` slot or is shed with 503 +
``Retry-After`` (``requests_shed_total``); period-scoped archive
reads run under a per-period :class:`CircuitBreaker` so repeated
checksum/IO failures trip that period to fast 503s while the rest of
the archive keeps serving; a cooperative per-request
:class:`Deadline` is checked at iteration checkpoints.

Successful responses are cached in an LRU keyed by path+query.  The
archive is append-only while healthy, but quarantine, fsck repair and
re-ingest all bump :attr:`SurveyArchive.generation` — the API watches
that counter and clears the whole cache when it moves
(``serve_cache_invalidations_total``), so a repaired or re-ingested
period is re-rendered with a *new* ETag, never served stale.  At
most once per :data:`REFRESH_INTERVAL_S` of monotonic time a request
first calls :meth:`SurveyArchive.refresh`, so commits made through
another handle (a concurrent ``repro stream --archive``) are served
within about a second.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..netbase.errors import NetbaseError
from ..obs import PerObserver, get_observer
from ..store import (
    AnomalyReportNotFoundError,
    ArchiveCorruptionError,
    ASNotFoundError,
    LinkNotFoundError,
    PeriodNotFoundError,
    SurveyArchive,
)
from .resilience import (
    BreakerOpenError,
    CircuitBreaker,
    ConcurrencyLimiter,
    Deadline,
    DeadlineExceeded,
    OverloadedError,
    ResilienceConfig,
)

STAGE = "serve"

#: Severity classes the API accepts in ``/severity/<class>``.
SEVERITY_CLASSES = ("none", "low", "mild", "severe")

#: Prometheus text exposition format version served by /v1/metrics.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

REQUEST_ID_HEADER = "X-Request-Id"

#: Seconds between checks for commits made through other archive
#: handles: a request pays the 56-byte slot-header read at most once
#: per interval, not once per request.
REFRESH_INTERVAL_S = 1.0


@dataclass(frozen=True)
class Response:
    """One rendered API response."""

    status: int
    body: bytes
    etag: Optional[str] = None
    content_type: str = "application/json"
    #: Extra response headers, e.g. ``(("Retry-After", "1"),)``.
    headers: Tuple[Tuple[str, str], ...] = ()
    #: The route that rendered this response — cached copies keep it,
    #: so a cache hit still lands on the right RED series.
    route: str = "unknown"
    #: How the request went: ``ok``, ``cached``, ``shed``,
    #: ``breaker-open``, ``deadline`` or ``error`` (the shell's own
    #: refusals say ``refused``).
    outcome: str = "ok"

    @property
    def cacheable(self) -> bool:
        return self.status == 200 and self.etag is not None


def _render(status: int, payload: Dict) -> Response:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    etag = None
    if status == 200:
        etag = f'"{hashlib.sha256(body).hexdigest()[:32]}"'
    return Response(status=status, body=body, etag=etag)


def _error(status: int, kind: str, detail: str) -> Response:
    return _render(status, {"error": kind, "detail": detail})


def _request_id(headers) -> str:
    """Echo the client's ``X-Request-Id``, or mint a fresh one."""
    if headers is not None:
        value = headers.get(REQUEST_ID_HEADER)
        if value:
            value = value.strip()
            if value:
                return value[:128]
    return os.urandom(8).hex()


def _stamped(response: Response, request_id: str, route: str,
             outcome: str) -> Response:
    """``response`` as this request's: its id, route and outcome."""
    return Response(
        response.status, response.body, response.etag,
        response.content_type,
        response.headers + ((REQUEST_ID_HEADER, request_id),),
        route, outcome,
    )


class _Instruments:
    """One observer's cache instruments, resolved once."""

    __slots__ = ("hit_ratio", "cache_hits")

    def __init__(self, obs):
        self.hit_ratio = obs.gauge(
            "serve_cache_hit_ratio",
            "hot-object cache hit rate since start",
        )
        self.cache_hits = obs.counter(
            "serve_cache_hits_total",
            "responses served from the hot-object cache",
        ).labels()


def outcome_for(exc: Exception) -> str:
    """Outcome word for a failed request."""
    if isinstance(exc, BreakerOpenError):
        return "breaker-open"
    if isinstance(exc, DeadlineExceeded):
        return "deadline"
    if isinstance(exc, OverloadedError):
        return "shed"
    return "error"


def status_for(exc: Exception) -> int:
    """HTTP status for an exception, per the netbase taxonomy."""
    if isinstance(
        exc,
        (
            PeriodNotFoundError,
            ASNotFoundError,
            AnomalyReportNotFoundError,
            LinkNotFoundError,
        ),
    ):
        return 404
    if isinstance(
        exc,
        (
            ArchiveCorruptionError,
            BreakerOpenError,
            DeadlineExceeded,
            OverloadedError,
        ),
    ):
        return 503
    if isinstance(exc, (NetbaseError, ValueError)):
        return 400
    return 500


class SurveyAPI:
    """Route dispatcher over a :class:`~repro.store.SurveyArchive`."""

    def __init__(
        self,
        archive: SurveyArchive,
        cache_size: int = 512,
        resilience: Optional[ResilienceConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        from .cache import LRUCache

        self.archive = archive
        self.cache = LRUCache(cache_size)
        self.resilience = (
            resilience if resilience is not None else ResilienceConfig()
        )
        self.limiter = ConcurrencyLimiter(self.resilience.max_concurrency)
        self.breaker = CircuitBreaker(
            threshold=self.resilience.breaker_threshold,
            cooldown_seconds=self.resilience.breaker_cooldown_seconds,
            clock=clock,
        )
        self._clock = clock
        self._local = threading.local()
        self._generation_lock = threading.Lock()
        self._generation = getattr(archive, "generation", 0)
        self._refresh_lock = threading.Lock()
        self._refresh_due = time.monotonic() + REFRESH_INTERVAL_S
        self._instruments = PerObserver(_Instruments)

    # -- entry point ---------------------------------------------------

    def handle(self, target: str, headers=None) -> Response:
        """Serve one request target (path + optional query string).

        ``headers`` is the request-header mapping (anything with
        ``.get``) — consulted for ``X-Request-Id`` echo and the
        ``Accept`` negotiation of ``/v1/metrics``.
        """
        obs = get_observer()
        request_id = _request_id(headers)
        try:
            self.limiter.acquire()
        except OverloadedError as exc:
            obs.counter(
                "requests_shed_total",
                "requests refused at the concurrency limit",
            ).inc()
            return _stamped(
                self._retry_later(_error(503, "Overloaded", str(exc))),
                request_id, "shed", "shed",  # never routed
            )
        instruments = self._instruments.get(obs)
        route = "unknown"
        try:
            self._local.deadline = Deadline(
                self.resilience.deadline_seconds, self._clock
            )
            self._local.headers = headers
            self._refresh_if_due()
            self._invalidate_if_stale(obs)
            cached = self.cache.get(target)
            if cached is not None:
                instruments.cache_hits.inc()
                return _stamped(cached, request_id, cached.route, "cached")
            route, run_handler = self._dispatch(target)
            if run_handler is None:
                rendered = _error(
                    404, "NoSuchRoute", f"unknown path {target!r}"
                )
            else:
                with obs.span("serve-" + route):
                    rendered = run_handler()
            if rendered.cacheable and route != "healthz":
                # The cached copy keeps its route but not this
                # request's id — hits get their own.
                self.cache.put(target, replace(rendered, route=route))
            return _stamped(rendered, request_id, route, "ok")
        except Exception as exc:  # noqa: BLE001 — boundary mapping
            status = status_for(exc)
            obs.logger.bind(stage=STAGE).warning(
                "request-failed", target=target,
                error=type(exc).__name__, status=status,
                request_id=request_id,
            )
            rendered = _error(status, type(exc).__name__, str(exc))
            if status == 503:
                rendered = self._retry_later(rendered)
            return _stamped(rendered, request_id, route, outcome_for(exc))
        finally:
            self._local.deadline = None
            self._local.headers = None
            self.limiter.release()
            instruments.hit_ratio.set(self.cache.stats.hit_rate)

    def _retry_later(self, response: Response) -> Response:
        value = format(self.resilience.retry_after_seconds, "g")
        return replace(
            response,
            headers=response.headers + (("Retry-After", value),),
        )

    def _refresh_if_due(self) -> None:
        """Let the archive catch up with other handles' commits, at
        most once per interval and on one thread at a time."""
        now = time.monotonic()
        if now < self._refresh_due or not self._refresh_lock.acquire(
            blocking=False
        ):
            return
        try:
            self._refresh_due = now + REFRESH_INTERVAL_S
            self.archive.refresh()
        finally:
            self._refresh_lock.release()

    def _invalidate_if_stale(self, obs) -> None:
        """Drop the response cache when the archive's content moved.

        Quarantine, recovery, fsck repair and re-ingest each bump the
        archive generation; serving a cached body across any of those
        would hand out a stale ETag for changed content.
        """
        generation = getattr(self.archive, "generation", 0)
        with self._generation_lock:
            if generation == self._generation:
                return
            self._generation = generation
        self.cache.clear()
        obs.counter(
            "serve_cache_invalidations_total",
            "whole-cache drops on archive generation change",
        ).inc()

    def _check_deadline(self) -> None:
        deadline = getattr(self._local, "deadline", None)
        if deadline is not None:
            deadline.check()

    def _guarded(self, period: Optional[str], fn: Callable):
        """Run one archive read under ``period``'s circuit.

        Checksum/IO failures count against the period's breaker; a
        tripped period fails fast with :class:`BreakerOpenError`
        (→ 503) until the cooldown's half-open probe succeeds.
        """
        if period is None:
            period = self.archive.latest() if len(self.archive) else None
        if period is None:
            return fn()
        self.breaker.check(period)
        try:
            result = fn()
        except (ArchiveCorruptionError, OSError):
            self.breaker.record_failure(period)
            raise
        self.breaker.record_success(period)
        return result

    def _dispatch(
        self, target: str
    ) -> Tuple[str, Optional[Callable[[], Response]]]:
        """Resolve a target to its route name and a handler thunk.

        Resolution is separate from execution so a handler that raises
        still has its route attributed correctly (RED metrics, access
        log); an unroutable target yields ``("unknown", None)``.
        """
        split = urlsplit(target)
        parts = [p for p in split.path.split("/") if p]
        query = parse_qs(split.query)
        if not parts or parts[0] != "v1":
            return "unknown", None
        tail = parts[1:]
        for route, pattern, handler in self._routes():
            bound = _match(pattern, tail)
            if bound is not None:
                return route, lambda: handler(*bound, query)
        return "unknown", None

    def _routes(self) -> Tuple[Tuple[str, Tuple[str, ...], Callable], ...]:
        return (
            ("healthz", ("healthz",), self._healthz),
            ("metrics", ("metrics",), self._metrics),
            ("periods", ("periods",), self._periods),
            ("period", ("period", "*"), self._period),
            ("severe", ("period", "*", "severe"), self._severe),
            ("severity", ("period", "*", "severity", "*"),
             self._severity),
            ("country", ("period", "*", "country", "*"), self._country),
            ("as", ("as", "*"), self._as),
            ("history", ("as", "*", "history"), self._history),
            ("anomalies", ("period", "*", "anomalies"),
             self._anomalies),
            ("link-history", ("link", "*", "history"),
             self._link_history),
        )

    # -- handlers ------------------------------------------------------

    def _healthz(self, _query) -> Response:
        tripped = self.breaker.tripped()
        return _render(200, {
            "status": "degraded" if tripped else "ok",
            "periods": len(self.archive),
            "latest": (
                self.archive.latest() if len(self.archive) else None
            ),
            "generation": getattr(self.archive, "generation", 0),
            "degraded_periods": tripped,
            "in_flight": self.limiter.in_flight,
            "concurrency_limit": self.limiter.limit,
            "shed_total": self.limiter.shed_total,
        })

    def _metrics(self, query) -> Response:
        """The live metric registry, Prometheus text or JSON.

        ``?format=json|prometheus`` wins; otherwise ``Accept:
        application/json`` selects JSON and everything else gets the
        text exposition format.  Responses carry no ETag, so they are
        never cached — a scrape must observe current values.
        """
        obs = get_observer()
        registry = getattr(obs, "metrics", None)
        if registry is None:
            return _error(
                503, "MetricsUnavailable",
                "no live observer installed (metrics collection off)",
            )
        fmt = (query.get("format", [None])[0] or "").lower()
        if not fmt:
            headers = getattr(self._local, "headers", None)
            accept = (
                headers.get("Accept") if headers is not None else None
            ) or ""
            fmt = "json" if "application/json" in accept else "prometheus"
        if fmt == "json":
            body = (
                json.dumps(registry.to_dict(), sort_keys=True) + "\n"
            ).encode()
            return Response(status=200, body=body)
        if fmt in ("prometheus", "text"):
            return Response(
                status=200,
                body=registry.to_prometheus().encode(),
                content_type=METRICS_CONTENT_TYPE,
            )
        return _error(
            400, "BadFormat",
            f"format must be json or prometheus, got {fmt!r}",
        )

    def _periods(self, _query) -> Response:
        entries = []
        for name in self.archive.periods():
            self._check_deadline()
            entries.append(dict(self.archive.period_meta(name), name=name))
        return _render(200, {"periods": entries})

    def _period(self, name: str, _query) -> Response:
        payload = self._guarded(name, lambda: self.archive.get_period(name))
        return _render(200, payload)

    def _severe(self, name: str, query) -> Response:
        return self._severity(name, "severe", query)

    def _severity(self, name: str, severity: str, _query) -> Response:
        severity = severity.lower()
        if severity not in SEVERITY_CLASSES:
            return _error(
                400, "BadSeverity",
                f"severity must be one of {SEVERITY_CLASSES}, "
                f"got {severity!r}",
            )
        asns = self._guarded(
            name, lambda: self.archive.asns_with_severity(name, severity)
        )
        reports = {}
        for asn in asns:
            self._check_deadline()
            reports[str(asn)] = self._guarded(
                name, lambda asn=asn: self.archive.get(asn, name)
            )
        return _render(200, {
            "period": name,
            "severity": severity,
            "count": len(asns),
            "asns": asns,
            "reports": reports,
        })

    def _country(self, name: str, country: str, _query) -> Response:
        asns = self._guarded(
            name, lambda: self.archive.asns_in_country(name, country)
        )
        return _render(200, {
            "period": name,
            "country": country.upper(),
            "count": len(asns),
            "asns": asns,
        })

    def _as(self, asn_text: str, query) -> Response:
        asn = _parse_asn(asn_text)
        period = query.get("period", [None])[0]
        report = self._guarded(
            period, lambda: self.archive.get(asn, period)
        )
        name = period if period is not None else self.archive.latest()
        return _render(200, {
            "asn": asn,
            "period": name,
            "report": report,
        })

    def _history(self, asn_text: str, _query) -> Response:
        # History spans every period, so it runs outside any single
        # period's circuit; per-read corruption still maps to 503.
        asn = _parse_asn(asn_text)
        self._check_deadline()
        history = self.archive.history(asn)
        if not any(entry["monitored"] for entry in history):
            raise ASNotFoundError(asn, "<any committed period>")
        return _render(200, {"asn": asn, "history": history})

    def _anomalies(self, name: str, _query) -> Response:
        payload = self._guarded(
            name, lambda: self.archive.get_anomalies(name)
        )
        return _render(200, payload)

    def _link_history(self, link: str, _query) -> Response:
        # Spans every reported period, like the AS history route, so
        # it runs outside any single period's circuit.
        self._check_deadline()
        history = self.archive.link_history(link)
        return _render(200, {"link": link, "history": history})


def _match(pattern: Tuple[str, ...], parts) -> Optional[Tuple[str, ...]]:
    """Bind ``*`` segments of a route pattern; None when no match."""
    if len(pattern) != len(parts):
        return None
    bound = []
    for expected, got in zip(pattern, parts):
        if expected == "*":
            bound.append(got)
        elif expected != got:
            return None
    return tuple(bound)


def _parse_asn(text: str) -> int:
    """Parse an ASN path segment (``64500`` or ``AS64500``)."""
    cleaned = text.upper().removeprefix("AS")
    try:
        asn = int(cleaned)
    except ValueError:
        raise ValueError(f"not an AS number: {text!r}") from None
    if asn < 0:
        raise ValueError(f"negative AS number: {text!r}")
    return asn
