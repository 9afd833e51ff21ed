"""Survey serving layer — the lookup service over :mod:`repro.store`.

The paper's public site lets any operator look up their AS's
congestion verdict; this package is that lookup service for archived
survey results:

* :mod:`repro.serve.app`        — :class:`SurveyAPI`, socket-free
  routing from request targets to rendered JSON responses with ETags,
  taxonomy-mapped error statuses, and the route and outcome each
  response names;
* :mod:`repro.serve.http`       — :class:`SurveyServer`, the stdlib
  keep-alive HTTP/1.1 shell (one thread per connection) with
  conditional (304) responses, in-flight drain and signal-driven
  graceful shutdown; the one place a served request is booked
  (``http_requests_total``, ``serve_request_seconds`` and one
  ``access`` line on the ``--log-jsonl`` logger);
* :mod:`repro.serve.cache`      — :class:`LRUCache`, the thread-safe
  hot-object cache rendered responses sit in;
* :mod:`repro.serve.resilience` — the overload/corruption middleware:
  concurrency limiter (shed with 503 + Retry-After), per-period
  circuit breaker, cooperative request deadlines.

Typical embedding::

    from repro.store import SurveyArchive
    from repro.serve import SurveyServer

    with SurveyServer(SurveyArchive("archive/")) as server:
        print(server.url)  # ephemeral port by default
        ...

Standalone: ``python -m repro serve archive/ --port 8080``
(SIGTERM/SIGINT drain in-flight requests and flush metrics).
"""

from .app import Response, SEVERITY_CLASSES, SurveyAPI, status_for
from .cache import LRUCache, LRUStats
from .http import SERVER_NAME, TRACE_RING_ROOTS, SurveyServer
from .resilience import (
    BreakerOpenError,
    CircuitBreaker,
    ConcurrencyLimiter,
    Deadline,
    DeadlineExceeded,
    OverloadedError,
    ResilienceConfig,
)

__all__ = [
    "SurveyAPI",
    "Response",
    "status_for",
    "SEVERITY_CLASSES",
    "SurveyServer",
    "SERVER_NAME",
    "TRACE_RING_ROOTS",
    "LRUCache",
    "LRUStats",
    "ResilienceConfig",
    "ConcurrencyLimiter",
    "CircuitBreaker",
    "Deadline",
    "OverloadedError",
    "BreakerOpenError",
    "DeadlineExceeded",
]
