"""End-to-end HTTP tests on an ephemeral port."""

import json
import urllib.error
import urllib.request

import pytest

from repro.serve import SERVER_NAME, SurveyServer


@pytest.fixture()
def server(archive):
    with SurveyServer(archive) as server:
        yield server


def fetch(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers), (
                response.read()
            )
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


class TestEndToEnd:
    def test_ephemeral_port_bound(self, server):
        assert server.port != 0
        assert server.url.startswith("http://127.0.0.1:")

    def test_healthz(self, server):
        status, headers, body = fetch(server.url + "/v1/healthz")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert SERVER_NAME in headers["Server"]
        assert json.loads(body)["status"] == "ok"

    def test_as_lookup_with_etag(self, server):
        status, headers, body = fetch(server.url + "/v1/as/100")
        assert status == 200
        assert headers["ETag"].startswith('"')
        assert json.loads(body)["report"]["severity"] == "mild"
        assert headers["Cache-Control"] == "max-age=300"

    def test_conditional_request_304(self, server):
        _status, headers, body = fetch(server.url + "/v1/as/100")
        status, headers2, body2 = fetch(
            server.url + "/v1/as/100",
            headers={"If-None-Match": headers["ETag"]},
        )
        assert status == 304
        assert body2 == b""
        assert headers2["ETag"] == headers["ETag"]

    def test_conditional_request_star(self, server):
        status, _headers, _body = fetch(
            server.url + "/v1/as/100",
            headers={"If-None-Match": "*"},
        )
        assert status == 304

    def test_stale_etag_gets_full_response(self, server):
        status, _headers, body = fetch(
            server.url + "/v1/as/100",
            headers={"If-None-Match": '"deadbeef"'},
        )
        assert status == 200
        assert body

    def test_error_statuses_over_http(self, server):
        status, _headers, body = fetch(server.url + "/v1/as/77777")
        assert status == 404
        assert json.loads(body)["error"] == "ASNotFoundError"
        status, _headers, _body = fetch(server.url + "/v1/as/banana")
        assert status == 400
        status, _headers, _body = fetch(server.url + "/nope")
        assert status == 404

    def test_head_request(self, server):
        request = urllib.request.Request(
            server.url + "/v1/healthz", method="HEAD"
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 200
            assert response.read() == b""
            assert int(response.headers["Content-Length"]) > 0

    def test_history_over_http(self, server):
        status, _headers, body = fetch(
            server.url + "/v1/as/200/history"
        )
        assert status == 200
        history = json.loads(body)["history"]
        assert history[0]["severity"] == "low"


class TestLifecycle:
    def test_graceful_stop_releases_port(self, archive):
        server = SurveyServer(archive).start()
        port = server.port
        status, _headers, _body = fetch(
            server.url + "/v1/healthz"
        )
        assert status == 200
        server.stop()
        # The port is released: a new server can bind it again.
        rebound = SurveyServer(archive, port=port)
        rebound.start()
        rebound.stop()

    def test_double_start_refused(self, archive):
        server = SurveyServer(archive).start()
        try:
            with pytest.raises(RuntimeError):
                server.start()
        finally:
            server.stop()

    def test_serves_compacted_archive(self, archive):
        archive.compact()
        with SurveyServer(archive) as server:
            status, _headers, body = fetch(
                server.url + "/v1/as/400?period=2019-09"
            )
        assert status == 200
        assert json.loads(body)["report"]["severity"] == "severe"


class TestShellTiming:
    def test_server_timing_and_shell_histogram(self, archive):
        import io

        from repro.obs import Observability, StructuredLogger, observed
        from repro.obs.log import read_jsonl

        sink = io.StringIO()
        observer = Observability(logger=StructuredLogger(sink=sink))
        with observed(observer), SurveyServer(archive) as server:
            _status, headers, _body = fetch(server.url + "/v1/as/100")
            status, _headers, _body = fetch(
                server.url + "/v1/as/100",
                headers={"If-None-Match": headers["ETag"]},
            )
        assert status == 304
        name, _, duration = headers["Server-Timing"].partition(";dur=")
        assert name == "app" and float(duration) > 0
        shell = observer.metrics.get("serve_http_request_seconds")
        assert shell.count() == 2
        # The shell's whole-request time contains the app's.
        assert shell.sum() > float(duration) / 1e3
        assert observer.metrics.get(
            "serve_not_modified_total"
        ).value() == 1
        access = [r for r in read_jsonl(sink) if r["event"] == "access"]
        assert [r["stage"] for r in access] == ["serve-http"] * 2
        assert access[0]["message"] == '"GET /v1/as/100 HTTP/1.1" 200 ' \
            + headers["Content-Length"]

    def test_access_log_follows_request_order(self, archive):
        """Each request is logged before its response goes out, so a
        client that waits for every response finds its requests in
        the log in the order it sent them — even when each request
        rides a new connection and so a new handler thread."""
        import io

        from repro.obs import Observability, StructuredLogger, observed
        from repro.obs.log import read_jsonl

        sink = io.StringIO()
        observer = Observability(logger=StructuredLogger(sink=sink))
        pairs = 50
        with observed(observer), SurveyServer(archive) as server:
            for _ in range(pairs):
                _status, headers, _body = fetch(server.url + "/v1/as/100")
                status, _headers, _body = fetch(
                    server.url + "/v1/as/100",
                    headers={"If-None-Match": headers["ETag"]},
                )
                assert status == 304
        access = [
            r["message"] for r in read_jsonl(sink)
            if r["event"] == "access"
        ]
        assert len(access) == 2 * pairs
        assert [m.split()[-2] for m in access] == ["200", "304"] * pairs


class TestOtherHandlesCommits:
    def test_period_committed_elsewhere_is_served(self, archive):
        """A running server picks up another handle's commit within
        about a second, and re-renders it under a new ETag."""
        import datetime as dt
        import time

        from repro.core import Severity
        from repro.store import SurveyArchive
        from tests.store.conftest import make_ranking, make_survey

        with SurveyServer(SurveyArchive(archive.root)) as server:
            _status, headers, body = fetch(server.url + "/v1/as/100")
            assert json.loads(body)["period"] == "2019-09"
            archive.ingest(
                make_survey("2019-12", dt.datetime(2019, 12, 1), {
                    100: Severity.SEVERE,
                }),
                ranking=make_ranking(),
            )
            committed = time.monotonic()
            while True:
                status, fresh, body = fetch(server.url + "/v1/as/100")
                if json.loads(body)["period"] == "2019-12":
                    break
                assert time.monotonic() - committed < 3.0
                time.sleep(0.02)
            assert status == 200
            assert fresh["ETag"] != headers["ETag"]
            assert json.loads(body)["report"]["severity"] == "severe"
            status, _headers, _body = fetch(
                server.url + "/v1/period/2019-12"
            )
            assert status == 200
