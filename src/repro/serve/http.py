"""Keep-alive HTTP/1.1 shell over :class:`~repro.serve.app.SurveyAPI`.

Stdlib only (:mod:`socketserver`), matching the repo's no-dependency
discipline.  The server is a :class:`socketserver.ThreadingTCPServer`:
each connection gets a thread, the API layer underneath is thread-safe
(locked LRU, lock-free mapped segment reads, locked limiter/breaker),
and writes happen out-of-band (quarantine/fsck bump the archive
generation, which the API watches), so there is no write contention
to manage here.

Each connection thread runs one loop, a request at a time, in order
(pipelined requests queue in the socket's read buffer):

* **parse** — the request line and each header line come off
  ``rfile.readline``; headers land in a :class:`Headers` dict keyed
  by lower-cased name, whose ``get`` ignores case (all the API reads).
  A request line over :data:`MAX_LINE` bytes is answered 414, more
  than :data:`MAX_HEADERS` header lines 431, a malformed line 400,
  any method but GET/HEAD 501 — each followed by a close;
* **answer** — ``SurveyAPI.handle`` renders the response; the shell
  builds the status line and every header as one bytes block and
  hands block and body to a single ``sendmsg`` (looped only on a
  short write), so a ~365 KB period body is never copied into a
  header buffer.  The ``Date`` line is cached per second;
* **keep or close** — HTTP/1.1 keeps the connection unless the
  client sent ``Connection: close``; HTTP/1.0 closes unless it asked
  for ``keep-alive``.  A request that carries a body
  (``Content-Length`` > 0 or ``Transfer-Encoding``) is answered and
  the connection closed, since the shell never reads request bodies.

Conditional requests (RFC 9110): every 200 carries a strong ETag; a
GET or HEAD whose ``If-None-Match`` lists that ETag — compared
weakly, so ``W/"…"`` matches — or ``*`` gets a 304 with the ETag,
``Cache-Control`` and ``X-Request-Id`` but no body and no
Content-Length.  The survey site's per-AS pages are effectively
immutable per period, so repeat lookups cost a header exchange.

Accounting: the loop books every request exactly once, refusals and
304s included, from the ``route`` and ``outcome`` the response names
(the shell's own 400/414/431/501/505 answers say ``refused``):

* ``http_requests_total{route,status}`` counts the status sent on the
  wire;
* one ``access`` line goes to the observer's logger (``--log-jsonl``)
  before the response is sent, so a client that waits for each
  response finds its requests logged in order.  It holds
  ``request_id``, ``method``, ``target``, ``route``, ``status``,
  ``outcome``, ``bytes`` (body bytes sent) and ``duration_ms``, the
  app time that ``Server-Timing: app;dur=<ms>`` reports (0 for a
  refusal, which never reaches the app);
* after the last byte is sent, ``serve_request_seconds{route}``
  (sub-millisecond :data:`SHELL_BUCKETS`) times the whole request,
  from the request line read.

Shutdown is graceful every way in:

* :meth:`SurveyServer.stop` (and the context manager) stop accepting,
  **drain** in-flight requests (bounded wait on a live counter, not a
  blind sleep), close the socket and join the serving thread;
* the blocking :meth:`serve_forever` converts ``KeyboardInterrupt``
  into the same drain-then-close path;
* :meth:`install_signal_handlers` wires SIGTERM/SIGINT to it for
  standalone use (``repro serve``): the handler nudges ``shutdown()``
  from a helper thread (it blocks until the accept loop exits), then
  ``serve_forever`` drains and runs the ``on_shutdown`` hook — the
  CLI flushes metrics there, so a SIGTERM'd server still writes its
  ``--metrics-out`` file.
"""

from __future__ import annotations

import signal
import socketserver
import threading
import time
from dataclasses import replace
from typing import Callable, Iterable, Optional, Tuple, Union

from ..obs import PerObserver, get_observer
from ..store import SurveyArchive
from .app import (
    REQUEST_ID_HEADER, Response, SurveyAPI, _error, _request_id,
)
from .resilience import ResilienceConfig

SERVER_NAME = "repro-serve"

#: Root spans a traced server keeps: one opens per cache miss, and a
#: server runs for days, so older ones fall out of a ring of this size
#: and are counted in ``obs_spans_dropped_total``.
TRACE_RING_ROOTS = 1024

#: Longest request or header line accepted, in bytes (414 / 431 past it).
MAX_LINE = 65536
#: Most header lines accepted in one request (431 past it).
MAX_HEADERS = 100

#: Sub-millisecond resolution: a warm request spends ~0.1 ms here.
SHELL_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.05, 0.1,
    0.5, 1.0, 5.0,
)

_REASONS = {
    200: "OK", 304: "Not Modified", 400: "Bad Request",
    404: "Not Found", 414: "URI Too Long",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 501: "Not Implemented",
    503: "Service Unavailable", 505: "HTTP Version Not Supported",
}
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("", "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug",
           "Sep", "Oct", "Nov", "Dec")
_date_line: Tuple[int, str] = (-1, "")


def _server_and_date() -> str:
    """The ``Server`` and ``Date`` header lines, rebuilt once a second."""
    global _date_line
    now = int(time.time())
    cached = _date_line
    if cached[0] != now:
        t = time.gmtime(now)
        cached = (now, (
            f"Server: {SERVER_NAME}\r\n"
            f"Date: {_DAYS[t.tm_wday]}, {t.tm_mday:02d} "
            f"{_MONTHS[t.tm_mon]} {t.tm_year} {t.tm_hour:02d}:"
            f"{t.tm_min:02d}:{t.tm_sec:02d} GMT\r\n"
        ))
        _date_line = cached
    return cached[1]


class Headers(dict):
    """Request headers keyed by lower-cased name; ``get`` ignores case."""

    __slots__ = ()

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)


def _etag_matches(header: Optional[str], etag: str) -> bool:
    """``If-None-Match`` weak comparison (RFC 9110 §13.1.2)."""
    if not header:
        return False
    for tag in header.split(","):
        tag = tag.strip()
        if tag == "*" or tag.removeprefix("W/") == etag:
            return True
    return False


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read, answer, repeat until either side closes."""

    # Keep-alive clients issue many small request/response rounds on
    # one socket; Nagle + delayed ACK would add ~40ms to each, so
    # flush segments immediately.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        try:
            while self._one_request():
                pass
        except OSError:
            pass  # the peer reset or vanished mid-exchange

    def _one_request(self) -> bool:
        """Serve one request; False closes the connection."""
        line = self.rfile.readline(MAX_LINE + 1)
        if not line:
            return False
        started = time.perf_counter()
        if len(line) > MAX_LINE:
            return self._refuse(414, "request line too long", started)
        words = line.decode("iso-8859-1").split()
        if len(words) != 3:
            return self._refuse(400, "bad request line", started)
        method, target, version = words
        try:
            if not version.startswith("HTTP/"):
                raise ValueError(version)
            major, minor = map(int, version[5:].split("."))
        except ValueError:
            return self._refuse(400, "bad HTTP version", started, words)
        if major != 1:
            return self._refuse(
                505, "only HTTP/1.x is served", started, words
            )
        headers = Headers()
        for _ in range(MAX_HEADERS + 1):
            raw = self.rfile.readline(MAX_LINE + 1)
            if raw in (b"\r\n", b"\n"):
                break
            if not raw:
                return False
            if len(raw) > MAX_LINE:
                return self._refuse(
                    431, "header line too long", started, words
                )
            name, colon, value = raw.decode("iso-8859-1").partition(":")
            if not colon:
                return self._refuse(400, "bad header line", started, words)
            headers.setdefault(name.strip().lower(), value.strip())
        else:
            return self._refuse(431, "too many headers", started, words)
        if method not in ("GET", "HEAD"):
            return self._refuse(
                501, f"unsupported method {method!r}", started, words
            )
        connection = headers.get("connection", "").lower()
        keep_alive = connection != "close" and (
            minor >= 1 or connection == "keep-alive"
        )
        if "transfer-encoding" in headers or \
                headers.get("content-length", "0") != "0":
            keep_alive = False  # its body was never read
        with self.server.tracked():
            api_started = time.perf_counter()
            response = self.server.api.handle(target, headers=headers)
            app_ms = (time.perf_counter() - api_started) * 1e3
            status, body = response.status, response.body
            if response.etag is not None and _etag_matches(
                headers.get("if-none-match"), response.etag
            ):
                status, body = 304, b""
            head = _head(
                response, status, len(body), keep_alive,
                f"Server-Timing: app;dur={app_ms:.3f}\r\n",
            )
            if method == "HEAD":
                body = b""
            self._book(words, response, status, len(body), app_ms)
            self._send(head, body)
            self._observe(response.route, started)
        return keep_alive

    def _refuse(self, status: int, detail: str, started: float,
                words=(None, None)) -> bool:
        """Answer a request the shell cannot serve, then close."""
        response = replace(
            _error(status, _REASONS[status].replace(" ", ""), detail),
            outcome="refused",
        )
        with self.server.tracked():
            self._book(words, response, status, len(response.body), 0.0)
            self._send(
                _head(response, status, len(response.body), False),
                response.body,
            )
            self._observe(response.route, started)
        return False

    def _send(self, head: bytes, body: bytes) -> None:
        """Write head and body with one ``sendmsg``, copying neither."""
        buffers = [head, body] if body else [head]
        while buffers:
            sent = self.connection.sendmsg(buffers)
            while buffers and sent >= len(buffers[0]):
                sent -= len(buffers.pop(0))
            if sent:
                buffers[0] = memoryview(buffers[0])[sent:]

    def _book(self, words, response: Response, status: int, length: int,
              app_ms: float) -> None:
        """Count the request and log its ``access`` line, before the
        response goes out."""
        self.server.instruments().count(response.route, status)
        logger = get_observer().logger
        if logger.sink is None:
            return
        request_id = next(
            (value for name, value in response.headers
             if name == REQUEST_ID_HEADER),
            None,
        ) or _request_id(None)  # a refusal never reached the app
        logger.info(
            "access", stage="serve-http", request_id=request_id,
            method=words[0], target=words[1], route=response.route,
            status=status, outcome=response.outcome, bytes=length,
            duration_ms=round(app_ms, 3),
        )

    def _observe(self, route: str, started: float) -> None:
        """Book the whole request, send included, in the histogram."""
        self.server.instruments().time(
            route, time.perf_counter() - started
        )


class _Instruments:
    """One observer's request instruments, resolved once, with bound
    handles per route and per (route, status)."""

    __slots__ = ("requests", "latency", "_counts", "_timers")

    def __init__(self, obs):
        self.requests = obs.counter(
            "http_requests_total",
            "HTTP requests by route and status sent",
            ("route", "status"),
        )
        self.latency = obs.histogram(
            "serve_request_seconds",
            "whole-request time at the HTTP shell, by route",
            ("route",), buckets=SHELL_BUCKETS,
        )
        self._counts = {}
        self._timers = {}

    def count(self, route: str, status: int) -> None:
        handle = self._counts.get((route, status))
        if handle is None:
            handle = self._counts[route, status] = self.requests.labels(
                route=route, status=str(status)
            )
        handle.inc()

    def time(self, route: str, seconds: float) -> None:
        handle = self._timers.get(route)
        if handle is None:
            handle = self._timers[route] = self.latency.labels(route=route)
        handle.observe(seconds)


def _head(response: Response, status: int, length: int,
          keep_alive: bool, timing: str = "") -> bytes:
    """Status line plus every header, ready for the wire."""
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n",
        _server_and_date(),
    ]
    if status != 304:
        lines.append(
            f"Content-Type: {response.content_type}\r\n"
            f"Content-Length: {length}\r\n"
        )
    if response.etag is not None:
        lines.append(f"ETag: {response.etag}\r\n")
    for name, value in response.headers:
        lines.append(f"{name}: {value}\r\n")
    if status in (200, 304):
        # Committed periods are immutable; let clients hold on.
        lines.append("Cache-Control: max-age=300\r\n")
    lines.append(timing)
    lines.append("\r\n" if keep_alive else "Connection: close\r\n\r\n")
    return "".join(lines).encode("latin-1")


class _TrackedServer(socketserver.ThreadingTCPServer):
    """Thread-per-connection server that counts in-flight requests."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, api: SurveyAPI):
        super().__init__(address, _Handler)
        self.api = api
        self._inflight_lock = threading.Lock()
        self._inflight_idle = threading.Condition(self._inflight_lock)
        self._inflight = 0
        self._instruments = PerObserver(_Instruments)

    def instruments(self) -> _Instruments:
        return self._instruments.get(get_observer())

    def tracked(self):
        return _InflightGuard(self)

    @property
    def in_flight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def wait_idle(self, timeout: float) -> bool:
        """Block until no request is in flight; False on timeout."""
        with self._inflight_idle:
            return self._inflight_idle.wait_for(
                lambda: self._inflight == 0, timeout=timeout
            )


class _InflightGuard:
    __slots__ = ("_server",)

    def __init__(self, server: _TrackedServer):
        self._server = server

    def __enter__(self):
        with self._server._inflight_lock:
            self._server._inflight += 1
        return self

    def __exit__(self, *_exc) -> None:
        with self._server._inflight_idle:
            self._server._inflight -= 1
            if self._server._inflight == 0:
                self._server._inflight_idle.notify_all()


class SurveyServer:
    """The archive's HTTP frontend, embeddable or standalone.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port` after construction) — tests and the CI smoke step
    rely on that.
    """

    def __init__(
        self,
        archive: Union[SurveyArchive, SurveyAPI],
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = 512,
        resilience: Optional[ResilienceConfig] = None,
    ):
        self.api = (
            archive if isinstance(archive, SurveyAPI)
            else SurveyAPI(
                archive, cache_size=cache_size, resilience=resilience,
            )
        )
        self._httpd = _TrackedServer((host, port), self.api)
        self._thread: Optional[threading.Thread] = None

    # -- addressing ----------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def in_flight(self) -> int:
        """Requests currently being handled (drain watches this)."""
        return self._httpd.in_flight

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "SurveyServer":
        """Serve on a background thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=SERVER_NAME,
            daemon=True,
        )
        self._thread.start()
        return self

    def _drain(self, timeout: float) -> None:
        if not self._httpd.wait_idle(timeout):
            get_observer().logger.bind(stage="serve-http").warning(
                "drain-timeout", in_flight=self._httpd.in_flight,
                timeout=timeout,
            )

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful shutdown: stop accepting, drain, close, join."""
        self._httpd.shutdown()
        self._drain(timeout)
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def serve_forever(
        self,
        on_shutdown: Optional[Callable[[], None]] = None,
        drain_timeout: float = 5.0,
    ) -> None:
        """Blocking serve loop for the CLI.

        Ctrl-C, or a signal wired via :meth:`install_signal_handlers`,
        exits the accept loop; in-flight requests are drained before
        the socket closes and ``on_shutdown`` runs (always — it is the
        CLI's metrics-flush hook).
        """
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self._drain(drain_timeout)
            self._httpd.server_close()
            if on_shutdown is not None:
                on_shutdown()

    def install_signal_handlers(
        self,
        signals: Iterable[int] = (signal.SIGTERM, signal.SIGINT),
    ) -> None:
        """Route SIGTERM/SIGINT into the graceful-shutdown path.

        ``shutdown()`` blocks until the accept loop exits, and the
        signal arrives *on* the thread running that loop (the main
        thread, in CLI use) — so the handler hands the call to a
        helper thread and returns immediately; ``serve_forever`` then
        unblocks and runs its drain-close-flush sequence.
        """

        def _handler(signum, _frame) -> None:
            get_observer().logger.bind(stage="serve-http").info(
                "shutdown-signal",
                signal=signal.Signals(signum).name,
                in_flight=self._httpd.in_flight,
            )
            threading.Thread(
                target=self._httpd.shutdown,
                name=SERVER_NAME + "-shutdown",
                daemon=True,
            ).start()

        for signum in signals:
            signal.signal(signum, _handler)

    def __enter__(self) -> "SurveyServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
