"""HTTP/1.1 protocol contract of ``repro serve``, over raw sockets.

Each case writes request bytes by hand and parses the reply stream
itself, so nothing a client library forgives (a stray body, a wrong
length, a dropped connection) goes unnoticed.  Two groups of cases
pin rules the earlier ``http.server`` shell broke; their docstrings
say so:

* conditional requests per RFC 9110 — a 304 carries no
  Content-Length (§8.6), ``If-None-Match`` compares weakly (§13.1.2)
  and HEAD honours it;
* a request that carries a body is answered, then the connection
  closes (the old shell read the body as the next request).
"""

import json
import socket

import pytest

from repro.serve import SERVER_NAME, SurveyAPI, SurveyServer
from tests.serve.conftest import make_archive
from tests.store.test_anomaly_artifacts import LINK, make_anomaly_payload

TIMEOUT = 5.0

#: Every route whose body is fixed for a given archive (healthz and
#: metrics report live counters), plus the error mappings.
FIXED_TARGETS = (
    "/v1/periods",
    "/v1/period/2019-06",
    "/v1/period/2019-09/severe",
    "/v1/period/2019-06/severity/low",
    "/v1/period/2019-06/country/JP",
    "/v1/as/100",
    "/v1/as/100?period=2019-06",
    "/v1/as/200/history",
    "/v1/period/2019-06/anomalies",
    "/v1/period/2019-09/anomalies",
    f"/v1/link/{LINK}/history",
    "/v1/as/77777",
    "/v1/as/banana",
    "/nope",
)


@pytest.fixture(scope="module")
def reported_archive(tmp_path_factory):
    archive = make_archive(tmp_path_factory.mktemp("protocol") / "arc")
    archive.ingest_anomalies("2019-06", make_anomaly_payload("2019-06"))
    return archive


@pytest.fixture(scope="module")
def server(reported_archive):
    # One server for the module: each stop waits out the accept
    # loop's poll interval.
    with SurveyServer(reported_archive) as server:
        yield server


class Reply:
    """One parsed response: status, lower-cased headers, body."""

    def __init__(self, status, headers, body):
        self.status = status
        self.headers = headers
        self.body = body


class Conn:
    """A raw client socket with a buffered reader over its replies."""

    def __init__(self, port):
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=TIMEOUT
        )
        self.reader = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def reply(self, head_only: bool = False) -> Reply:
        status_line = self.reader.readline()
        assert status_line, "connection closed before a reply"
        version, status, _reason = status_line.decode(
            "latin-1"
        ).split(" ", 2)
        assert version == "HTTP/1.1"
        headers = {}
        while True:
            line = self.reader.readline().decode("latin-1")
            if line in ("\r\n", ""):
                break
            name, _, value = line.partition(":")
            assert name.lower() not in headers, f"repeated {name}"
            headers[name.lower()] = value.strip()
        status = int(status)
        body = b""
        if not head_only and status != 304:
            body = self.reader.read(int(headers["content-length"]))
        return Reply(status, headers, body)

    def closed(self) -> bool:
        """True when the server has closed its end (EOF, no bytes)."""
        return self.reader.read(1) == b""

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


@pytest.fixture()
def conn(server):
    conn = Conn(server.port)
    yield conn
    conn.close()


def get(target, *headers, method="GET", version="HTTP/1.1"):
    lines = [f"{method} {target} {version}", "Host: test", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class TestKeepAlive:
    def test_pipelined_requests_answered_in_order(self, conn):
        targets = ("/v1/as/100", "/v1/periods", "/v1/as/300")
        conn.send(b"".join(
            get(t, f"X-Request-Id: req-{i}") for i, t in enumerate(targets)
        ))
        for i, target in enumerate(targets):
            reply = conn.reply()
            assert reply.status == 200
            assert reply.headers["x-request-id"] == f"req-{i}"
            if target.startswith("/v1/as/"):
                assert json.loads(reply.body)["asn"] == int(target[7:])

    def test_http10_closes_by_default(self, conn):
        conn.send(get("/v1/as/100", version="HTTP/1.0"))
        assert conn.reply().status == 200
        assert conn.closed()

    def test_http10_keep_alive_stays_open(self, conn):
        for _ in range(2):
            conn.send(get(
                "/v1/as/100", "Connection: keep-alive",
                version="HTTP/1.0",
            ))
            assert conn.reply().status == 200

    def test_connection_close(self, conn):
        conn.send(get("/v1/as/100", "Connection: close"))
        assert conn.reply().status == 200
        assert conn.closed()

    def test_lower_case_header_names(self, conn):
        conn.send(get("/v1/as/100", "x-request-id: lower-1"))
        reply = conn.reply()
        assert reply.headers["x-request-id"] == "lower-1"
        conn.send(get(
            "/v1/as/100", f"if-none-match: {reply.headers['etag']}"
        ))
        assert conn.reply().status == 304

    def test_standard_response_headers(self, conn):
        conn.send(get("/v1/as/100"))
        reply = conn.reply()
        assert SERVER_NAME in reply.headers["server"]
        assert reply.headers["date"].endswith(" GMT")
        assert reply.headers["content-type"] == "application/json"
        assert reply.headers["cache-control"] == "max-age=300"
        assert reply.headers["etag"].startswith('"')
        assert int(reply.headers["content-length"]) == len(reply.body)


class TestErrors:
    def test_malformed_request_line_400_then_close(self, conn):
        conn.send(b"GET /v1/healthz extra HTTP/1.1\r\n\r\n")
        assert conn.reply().status == 400
        assert conn.closed()

    @pytest.mark.parametrize("line", [
        b"GARBAGE", b"GET /v1/healthz HTTQ/1.1", b"GET /v1/healthz HTTP/x",
    ])
    def test_unparseable_request_line_400_then_close(self, conn, line):
        # Without a version there is no framing to check, only the
        # status code somewhere in the reply and the close after it.
        conn.send(line + b"\r\n\r\n")
        assert b"400" in conn.reader.read()

    def test_http2_request_line_505(self, conn):
        conn.send(get("/v1/healthz", version="HTTP/2.0"))
        assert b"505" in conn.reader.read()

    def test_long_request_line_414(self, conn):
        conn.send(get("/v1/as/" + "1" * 70_000))
        assert conn.reply().status == 414
        assert conn.closed()

    def test_too_many_headers_431(self, conn):
        conn.send(get("/v1/healthz", *(f"X-H{i}: v" for i in range(101))))
        assert conn.reply().status == 431
        assert conn.closed()

    def test_ninety_nine_headers_allowed(self, conn):
        conn.send(get("/v1/healthz", *(f"X-H{i}: v" for i in range(98))))
        assert conn.reply().status == 200

    @pytest.mark.parametrize("method", ["POST", "PUT", "DELETE"])
    def test_unsupported_method_501(self, conn, method):
        conn.send(get("/v1/healthz", method=method))
        assert conn.reply().status == 501
        assert conn.closed()


class TestHead:
    def test_head_has_length_and_no_body(self, conn):
        # The GET pipelined behind the HEAD parses cleanly only if the
        # HEAD reply really carried no body bytes.
        conn.send(get("/v1/as/100", method="HEAD") + get("/v1/as/100"))
        head = conn.reply(head_only=True)
        full = conn.reply()
        assert head.status == full.status == 200
        assert int(head.headers["content-length"]) == len(full.body) > 0
        assert head.headers["etag"] == full.headers["etag"]


class TestRequestBody:
    def test_request_with_body_answered_then_closed(self, conn):
        """New rule: the old shell read ``hello`` as the next request."""
        conn.send(get("/v1/as/100", "Content-Length: 5") + b"hello")
        reply = conn.reply()
        assert reply.status == 200
        assert reply.headers["connection"] == "close"
        assert conn.closed()

    def test_chunked_request_answered_then_closed(self, conn):
        """New rule: a Transfer-Encoding body also closes."""
        conn.send(
            get("/v1/as/100", "Transfer-Encoding: chunked")
            + b"5\r\nhello\r\n0\r\n\r\n"
        )
        assert conn.reply().status == 200
        assert conn.closed()

    def test_zero_length_body_keeps_alive(self, conn):
        for _ in range(2):
            conn.send(get("/v1/as/100", "Content-Length: 0"))
            assert conn.reply().status == 200


class TestConditional:
    def _etag(self, conn, target="/v1/as/100"):
        conn.send(get(target))
        return conn.reply().headers["etag"]

    def test_304_keeps_validators_and_request_id(self, conn):
        """RFC 9110 §8.6: the old shell sent ``Content-Length: 0``."""
        etag = self._etag(conn)
        conn.send(get(
            "/v1/as/100", f"If-None-Match: {etag}", "X-Request-Id: c-1",
        ))
        reply = conn.reply()
        assert reply.status == 304
        assert reply.headers["etag"] == etag
        assert reply.headers["cache-control"] == "max-age=300"
        assert reply.headers["x-request-id"] == "c-1"
        assert "content-length" not in reply.headers
        assert "content-type" not in reply.headers
        # Still in sync: the next request on the socket answers.
        conn.send(get("/v1/periods"))
        assert conn.reply().status == 200

    def test_weak_etag_matches(self, conn):
        """RFC 9110 §13.1.2: the old shell compared strongly."""
        etag = self._etag(conn)
        conn.send(get("/v1/as/100", f'If-None-Match: "x", W/{etag}'))
        assert conn.reply().status == 304

    def test_head_honours_if_none_match(self, conn):
        """RFC 9110 §13.1.2: the old shell's HEAD ignored it."""
        etag = self._etag(conn)
        conn.send(get("/v1/as/100", f"If-None-Match: {etag}", method="HEAD"))
        assert conn.reply(head_only=True).status == 304

    def test_stale_etag_gets_full_response(self, conn):
        conn.send(get("/v1/as/100", 'If-None-Match: "deadbeef"'))
        reply = conn.reply()
        assert reply.status == 200 and reply.body


def test_bodies_equal_survey_api(server, reported_archive, conn):
    api = SurveyAPI(reported_archive)
    conn.send(b"".join(get(t) for t in FIXED_TARGETS))
    for target in FIXED_TARGETS:
        expected = api.handle(target)
        reply = conn.reply()
        assert (reply.status, reply.body) == (
            expected.status, expected.body
        ), target
