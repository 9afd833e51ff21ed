"""The closed-loop load generator.

``run_load`` drives a transport callable with ``config.concurrency``
worker threads for ``config.duration_seconds`` of wall clock.  Each
worker is a closed loop — pick a target from the weighted mix, send,
wait for the outcome, record, repeat — so the measured request rate
is the throughput the server actually sustained at that concurrency.

Samples completed during the warmup window are issued but not
measured (caches fill, threads spin up, the JIT-less interpreter
still warms its dict caches); everything after lands in the
:class:`LoadReport`.

Transports adapt the engine to a surface:

* :func:`http_transport` — real sockets against a base URL
  (``urllib``), the end-to-end path CI smokes;
* :func:`api_transport`  — straight into
  :meth:`repro.serve.app.SurveyAPI.handle`, socket-free, for tests
  and in-process benchmarking.

Every transport returns an :class:`Outcome`; exceptions inside a
transport are converted to error outcomes (status 0) rather than
killing the worker, so a flaky run yields a report with a high error
rate instead of a stack trace.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Outcome",
    "LoadConfig",
    "LoadReport",
    "run_load",
    "http_transport",
    "api_transport",
    "percentile",
    "server_app_ms",
]

#: A weighted request mix: (target, weight) pairs.
Mix = Sequence[Tuple[str, float]]

Transport = Callable[[str], "Outcome"]


@dataclass(frozen=True)
class Outcome:
    """What one request came back with (status 0 = transport error)."""

    status: int
    retry_after: Optional[str] = None
    error: Optional[str] = None
    #: The server's own time for the request, from its
    #: ``Server-Timing: app;dur=<ms>`` header (None when absent).
    app_ms: Optional[float] = None


@dataclass(frozen=True)
class LoadConfig:
    """Knobs of one load run."""

    concurrency: int = 8
    duration_seconds: float = 5.0
    warmup_seconds: float = 0.5
    #: (target, weight) pairs; weights need not sum to anything.
    mix: Tuple[Tuple[str, float], ...] = (("/v1/healthz", 1.0),)
    seed: int = 0

    def __post_init__(self):
        if self.concurrency < 1:
            raise ValueError(
                f"concurrency must be >= 1, got {self.concurrency}"
            )
        if self.duration_seconds <= 0:
            raise ValueError("duration must be positive")
        if self.warmup_seconds < 0:
            raise ValueError("warmup cannot be negative")
        if not self.mix:
            raise ValueError("route mix cannot be empty")
        if any(weight <= 0 for _target, weight in self.mix):
            raise ValueError("mix weights must be positive")


@dataclass
class LoadReport:
    """The distilled result of one closed-loop run."""

    requests: int
    duration_seconds: float
    rps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    errors: int
    shed: int
    error_rate: float
    shed_rate: float
    missing_retry_after: int
    concurrency: int
    warmup_seconds: float
    status_counts: Dict[str, int] = field(default_factory=dict)
    #: Median server-side app time (``Server-Timing``) beside the
    #: client's ``p50_ms``; None when no response carried the header.
    app_p50_ms: Optional[float] = None

    def to_dict(self) -> Dict:
        return {
            "requests": self.requests,
            "duration_seconds": round(self.duration_seconds, 3),
            "rps": round(self.rps, 1),
            "p50_ms": round(self.p50_ms, 3),
            "app_p50_ms": (
                None if self.app_p50_ms is None
                else round(self.app_p50_ms, 3)
            ),
            "p95_ms": round(self.p95_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "mean_ms": round(self.mean_ms, 3),
            "max_ms": round(self.max_ms, 3),
            "errors": self.errors,
            "shed": self.shed,
            "error_rate": round(self.error_rate, 4),
            "shed_rate": round(self.shed_rate, 4),
            "missing_retry_after": self.missing_retry_after,
            "concurrency": self.concurrency,
            "warmup_seconds": self.warmup_seconds,
            "status_counts": dict(sorted(self.status_counts.items())),
        }

    def summary_lines(self) -> List[str]:
        statuses = ", ".join(
            f"{status}×{count}"
            for status, count in sorted(self.status_counts.items())
        )
        app = (
            "" if self.app_p50_ms is None
            else f"  (app p50 {self.app_p50_ms:.3f})"
        )
        return [
            f"{self.requests} requests in "
            f"{self.duration_seconds:.2f}s at concurrency "
            f"{self.concurrency} -> {self.rps:.1f} req/s",
            f"latency ms: p50 {self.p50_ms:.2f}{app}  p95 "
            f"{self.p95_ms:.2f}  p99 {self.p99_ms:.2f}  mean "
            f"{self.mean_ms:.2f}  max {self.max_ms:.2f}",
            f"errors {self.errors} ({self.error_rate:.1%})  "
            f"shed {self.shed} ({self.shed_rate:.1%})  "
            f"statuses: {statuses or '(none)'}",
        ]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of pre-sorted values (q in 0–1)."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return (
        sorted_values[low] * (1 - fraction)
        + sorted_values[high] * fraction
    )


class _WeightedPicker:
    """Deterministic weighted target choice (one RNG per worker)."""

    def __init__(self, mix: Mix, seed: int):
        import random

        self._targets = [target for target, _weight in mix]
        self._weights = [weight for _target, weight in mix]
        self._rng = random.Random(seed)

    def pick(self) -> str:
        return self._rng.choices(self._targets, self._weights)[0]


def run_load(transport: Transport, config: LoadConfig) -> LoadReport:
    """Drive ``transport`` closed-loop and distill a report.

    All workers start together (barrier), run until the shared
    deadline, and only samples *started* after the warmup window
    count — the measured duration is the post-warmup span, so
    ``rps`` is sustained throughput, not a startup-skewed average.
    """
    samples: List[Tuple[float, Outcome]] = []
    lock = threading.Lock()
    barrier = threading.Barrier(config.concurrency + 1)
    start_at = [0.0]  # set by the coordinator once workers are ready

    def worker(index: int) -> None:
        picker = _WeightedPicker(config.mix, config.seed + index)
        local: List[Tuple[float, Outcome]] = []
        barrier.wait()
        measure_from = start_at[0] + config.warmup_seconds
        deadline = start_at[0] + config.warmup_seconds \
            + config.duration_seconds
        while True:
            begin = time.perf_counter()
            if begin >= deadline:
                break
            target = picker.pick()
            try:
                outcome = transport(target)
            except Exception as exc:  # noqa: BLE001 — keep looping
                outcome = Outcome(status=0, error=repr(exc))
            elapsed = time.perf_counter() - begin
            if begin >= measure_from:
                local.append((elapsed, outcome))
        with lock:
            samples.extend(local)

    threads = [
        threading.Thread(
            target=worker, args=(index,), daemon=True,
            name=f"loadgen-{index}",
        )
        for index in range(config.concurrency)
    ]
    for thread in threads:
        thread.start()
    start_at[0] = time.perf_counter()
    barrier.wait()
    for thread in threads:
        thread.join()
    measured = time.perf_counter() - start_at[0] - config.warmup_seconds
    return _distill(samples, max(measured, 1e-9), config)


def _distill(
    samples: List[Tuple[float, Outcome]],
    duration: float,
    config: LoadConfig,
) -> LoadReport:
    latencies = sorted(elapsed * 1000.0 for elapsed, _ in samples)
    outcomes = [outcome for _, outcome in samples]
    status_counts: Dict[str, int] = {}
    for outcome in outcomes:
        key = str(outcome.status) if outcome.status else "error"
        status_counts[key] = status_counts.get(key, 0) + 1
    shed = sum(1 for o in outcomes if o.status == 503)
    errors = sum(
        1 for o in outcomes
        if o.status == 0 or (o.status >= 400 and o.status != 503)
    )
    missing_retry_after = sum(
        1 for o in outcomes if o.status == 503 and not o.retry_after
    )
    app_times = sorted(o.app_ms for o in outcomes if o.app_ms is not None)
    total = len(samples)
    return LoadReport(
        requests=total,
        duration_seconds=duration,
        rps=total / duration,
        p50_ms=percentile(latencies, 0.50),
        p95_ms=percentile(latencies, 0.95),
        p99_ms=percentile(latencies, 0.99),
        mean_ms=(sum(latencies) / total) if total else 0.0,
        max_ms=latencies[-1] if latencies else 0.0,
        errors=errors,
        shed=shed,
        error_rate=errors / total if total else 0.0,
        shed_rate=shed / total if total else 0.0,
        missing_retry_after=missing_retry_after,
        concurrency=config.concurrency,
        warmup_seconds=config.warmup_seconds,
        status_counts=status_counts,
        app_p50_ms=percentile(app_times, 0.50) if app_times else None,
    )


def http_transport(
    base_url: str, timeout: float = 30.0
) -> Transport:
    """Real-socket transport against ``base_url`` (no trailing slash).

    One persistent HTTP/1.1 keep-alive connection per worker thread
    (the engine drives a transport from many threads): connection
    setup is paid once per worker, not once per request, so the
    measured path is request/response work, not TCP handshakes.  A
    dropped or stale connection is rebuilt and the request retried
    once before the failure surfaces as an error outcome.
    """
    import http.client
    import urllib.parse

    parsed = urllib.parse.urlsplit(base_url.rstrip("/"))
    prefix = parsed.path.rstrip("/")
    local = threading.local()

    def connection() -> http.client.HTTPConnection:
        conn = getattr(local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                parsed.hostname, parsed.port, timeout=timeout
            )
            local.conn = conn
        return conn

    def drop() -> None:
        conn = getattr(local, "conn", None)
        if conn is not None:
            conn.close()
        local.conn = None

    def once(target: str) -> Outcome:
        conn = connection()
        conn.request("GET", prefix + target)
        response = conn.getresponse()
        response.read()
        return Outcome(
            status=response.status,
            retry_after=response.headers.get("Retry-After"),
            app_ms=server_app_ms(response.headers.get("Server-Timing")),
        )

    def send(target: str) -> Outcome:
        try:
            return once(target)
        except (http.client.HTTPException, OSError):
            drop()
            try:
                return once(target)
            except (http.client.HTTPException, OSError):
                drop()
                raise

    return send


def server_app_ms(header: Optional[str]) -> Optional[float]:
    """The ``app`` duration (ms) of a ``Server-Timing`` header, if any."""
    for metric in (header or "").split(","):
        name, _, params = metric.partition(";")
        if name.strip() != "app":
            continue
        for param in params.split(";"):
            key, _, value = param.partition("=")
            if key.strip() == "dur":
                try:
                    return float(value)
                except ValueError:
                    return None
    return None


def api_transport(api) -> Transport:
    """Socket-free transport straight into ``SurveyAPI.handle``."""

    def send(target: str) -> Outcome:
        response = api.handle(target)
        retry_after = next(
            (
                value for name, value in response.headers
                if name.lower() == "retry-after"
            ),
            None,
        )
        return Outcome(status=response.status, retry_after=retry_after)

    return send
