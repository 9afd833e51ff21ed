"""Serving observability: /v1/metrics, X-Request-Id, the RED metrics
and the ``access`` log line the HTTP shell books once per request —
including their behavior under genuine concurrency (counter
consistency, uncorrupted JSONL)."""

import http.client
import io
import json
import threading

import pytest

from repro.obs import (
    NOOP, Observability, StructuredLogger, observed, open_jsonl_sink,
    parse_prometheus,
)
from repro.obs.log import read_jsonl
from repro.serve import ResilienceConfig, SurveyAPI, SurveyServer
from repro.serve.app import METRICS_CONTENT_TYPE, REQUEST_ID_HEADER
from tests.serve.test_http_protocol import Conn, get


def _request_id_of(response):
    return dict(response.headers)[REQUEST_ID_HEADER]


def _logged(sink=None):
    """A live observer whose logger writes to ``sink`` (a fresh
    ``io.StringIO`` by default); returns (observer, sink)."""
    sink = io.StringIO() if sink is None else sink
    return Observability(logger=StructuredLogger(sink=sink)), sink


def _access_lines(sink):
    return [r for r in read_jsonl(sink) if r["event"] == "access"]


def _counts(obs):
    return {
        (dict(key)["route"], dict(key)["status"]): value
        for key, value in obs.metrics.counter(
            "http_requests_total", "", ("route", "status")
        ).samples()
    }


def _timed(obs):
    """``serve_request_seconds`` observation count per route."""
    return {
        dict(key)["route"]: series.count
        for key, series in obs.metrics.histogram(
            "serve_request_seconds", "", ("route",)
        ).samples()
    }


def _get(connection, target, headers=None):
    connection.request("GET", target, headers=headers or {})
    response = connection.getresponse()
    return response.status, dict(response.headers), response.read()


class TestMetricsEndpoint:
    def test_prometheus_by_default_and_round_trips(self, archive):
        with observed() as obs, SurveyServer(archive) as server:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=10
            )
            _get(connection, "/v1/as/100")
            status, headers, body = _get(connection, "/v1/metrics")
            connection.close()
        assert status == 200
        assert headers["Content-Type"] == METRICS_CONTENT_TYPE
        parsed = parse_prometheus(body.decode())
        samples = {
            (sample["labels"]["route"], sample["labels"]["status"]):
                sample["value"]
            for sample in parsed["http_requests_total"]["samples"]
        }
        assert samples[("as", "200")] == 1.0
        # The scrape pre-dates its own accounting; the live registry
        # has since counted the /v1/metrics request itself.
        json_samples = _counts(obs)
        assert json_samples[("as", "200")] == samples[("as", "200")]
        assert json_samples[("metrics", "200")] == 1.0

    def test_json_via_accept_header(self, archive):
        with observed():
            api = SurveyAPI(archive)
            api.handle("/v1/healthz")
            response = api.handle(
                "/v1/metrics",
                headers={"Accept": "application/json"},
            )
        assert response.content_type == "application/json"
        payload = json.loads(response.body)
        assert payload["serve_cache_hit_ratio"]["type"] == "gauge"

    def test_format_query_beats_accept(self, archive):
        with observed():
            api = SurveyAPI(archive)
            response = api.handle(
                "/v1/metrics?format=prometheus",
                headers={"Accept": "application/json"},
            )
        assert response.content_type == METRICS_CONTENT_TYPE

    def test_unknown_format_is_400(self, archive):
        with observed():
            response = SurveyAPI(archive).handle("/v1/metrics?format=xml")
        assert response.status == 400

    def test_unavailable_without_live_observer(self, archive):
        response = SurveyAPI(archive).handle("/v1/metrics")
        assert response.status == 503
        assert b"MetricsUnavailable" in response.body

    def test_never_cached(self, archive):
        with observed():
            api = SurveyAPI(archive)
            first = api.handle("/v1/metrics")
            api.handle("/v1/as/100")
            second = api.handle("/v1/metrics")
        assert first.etag is None
        # A scrape sees current values, not the cached first body.
        assert second.body != first.body


class TestRequestId:
    def test_client_id_is_echoed(self, archive):
        response = SurveyAPI(archive).handle(
            "/v1/healthz", headers={REQUEST_ID_HEADER: "abc-123"}
        )
        assert _request_id_of(response) == "abc-123"

    def test_generated_when_absent_and_unique(self, archive):
        api = SurveyAPI(archive)
        first = api.handle("/v1/healthz")
        second = api.handle("/v1/healthz")
        assert _request_id_of(first) != _request_id_of(second)

    def test_cache_hit_gets_fresh_id(self, archive):
        api = SurveyAPI(archive)
        first = api.handle("/v1/as/100")
        hit = api.handle("/v1/as/100")
        assert hit.body == first.body
        assert _request_id_of(hit) != _request_id_of(first)

    def test_oversized_id_is_truncated(self, archive):
        response = SurveyAPI(archive).handle(
            "/v1/healthz", headers={REQUEST_ID_HEADER: "x" * 500}
        )
        assert _request_id_of(response) == "x" * 128

    def test_error_responses_carry_an_id(self, archive):
        response = SurveyAPI(archive).handle("/v1/as/999999")
        assert response.status == 404
        assert _request_id_of(response)


class TestOutcome:
    def test_responses_name_route_and_outcome(self, archive):
        api = SurveyAPI(archive)
        first = api.handle("/v1/as/100")
        hit = api.handle("/v1/as/100")
        missing = api.handle("/v1/as/999999")
        unrouted = api.handle("/nope")
        assert [(r.route, r.outcome) for r in (
            first, hit, missing, unrouted,
        )] == [
            ("as", "ok"), ("as", "cached"), ("as", "error"),
            ("unknown", "ok"),
        ]

    def test_shed_request_says_shed(self, archive):
        api = SurveyAPI(archive, resilience=ResilienceConfig(
            max_concurrency=1,
        ))
        api.limiter.acquire()  # the one slot is taken
        try:
            response = api.handle("/v1/as/100")
        finally:
            api.limiter.release()
        assert (response.status, response.outcome) == (503, "shed")


class TestRedMetrics:
    """``http_requests_total`` and ``serve_request_seconds`` are
    booked by the HTTP shell, once per request; read after the server
    stopped, since a request is timed after its last byte is sent."""

    def _serve(self, archive, targets, headers=None):
        with observed() as obs, SurveyServer(archive) as server:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=10
            )
            statuses = [
                _get(connection, target, headers)[0] for target in targets
            ]
            connection.close()
        return obs, statuses

    def test_cache_hit_keeps_real_route(self, archive):
        obs, _ = self._serve(archive, ["/v1/as/100", "/v1/as/100"])
        assert _counts(obs) == {("as", "200"): 2.0}
        # The latency histogram labels a hit exactly as the counter.
        assert _timed(obs) == {"as": 2}
        assert obs.metrics.get("serve_http_request_seconds") is None
        assert obs.metrics.counter(
            "serve_cache_hits_total", ""
        ).value() == 1

    def test_statuses_land_on_their_series(self, archive):
        obs, statuses = self._serve(archive, [
            "/v1/as/100", "/v1/as/999999", "/v1/as/not-a-number",
        ])
        assert statuses == [200, 404, 400]
        assert _counts(obs) == {
            ("as", "200"): 1.0, ("as", "404"): 1.0, ("as", "400"): 1.0,
        }
        assert _timed(obs) == {"as": 3}

    def test_not_modified_is_counted_as_304(self, archive):
        with observed() as obs, SurveyServer(archive) as server:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=10
            )
            _status, headers, _body = _get(connection, "/v1/as/100")
            status, _headers, _body = _get(
                connection, "/v1/as/100",
                {"If-None-Match": headers["ETag"]},
            )
            connection.close()
        assert status == 304
        assert _counts(obs) == {("as", "200"): 1.0, ("as", "304"): 1.0}
        assert _timed(obs) == {"as": 2}

    def test_in_flight_returns_to_zero_and_hit_ratio_tracks(
        self, archive
    ):
        obs, _ = self._serve(archive, ["/v1/as/100", "/v1/as/100"])
        assert obs.metrics.gauge("serve_in_flight", "").value() == 0
        assert obs.metrics.gauge(
            "serve_cache_hit_ratio", ""
        ).value() == pytest.approx(0.5)


class TestRefusalsAreBooked:
    """The shell's own 400/414/431/501/505 answers are counted, timed
    and logged once each, like any request."""

    @pytest.mark.parametrize("request_bytes, status", [
        (b"GARBAGE\r\n\r\n", 400),
        (get("/v1/as/" + "1" * 70_000), 414),
        (get("/v1/healthz", *(f"X-H{i}: v" for i in range(101))), 431),
        (get("/v1/healthz", method="POST"), 501),
        (get("/v1/healthz", version="HTTP/2.0"), 505),
    ], ids=["400", "414", "431", "501", "505"])
    def test_one_line_and_one_count(self, archive, request_bytes, status):
        observer, sink = _logged()
        with observed(observer), SurveyServer(archive) as server:
            conn = Conn(server.port)
            conn.send(request_bytes)
            assert conn.reply().status == status
            assert conn.closed()
            conn.close()
        assert _counts(observer) == {("unknown", str(status)): 1.0}
        assert _timed(observer) == {"unknown": 1}
        (line,) = _access_lines(sink)
        assert (line["status"], line["route"], line["outcome"]) == (
            status, "unknown", "refused",
        )
        assert line["request_id"]
        assert line["duration_ms"] == 0.0


class TestAccessLog:
    def test_records_request_fields(self, archive):
        observer, sink = _logged()
        with observed(observer), SurveyServer(archive) as server:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=10
            )
            _status, headers, body = _get(
                connection, "/v1/as/100", {REQUEST_ID_HEADER: "rid-1"}
            )
            _get(connection, "/v1/as/100")
            _get(connection, "/v1/as/999999")
            connection.close()
        entries = _access_lines(sink)
        assert [e["outcome"] for e in entries] == [
            "ok", "cached", "error",
        ]
        first = entries[0]
        assert first["stage"] == "serve-http"
        assert first["request_id"] == "rid-1"
        assert first["method"] == "GET"
        assert first["target"] == "/v1/as/100"
        assert first["route"] == "as"
        assert first["status"] == 200
        assert first["bytes"] == len(body)
        # duration_ms is the app time Server-Timing reports.
        assert first["duration_ms"] == pytest.approx(float(
            headers["Server-Timing"].partition(";dur=")[2]
        ), abs=1e-3)
        assert entries[1]["request_id"] != "rid-1"
        assert entries[2]["status"] == 404


class TestConcurrentTelemetry:
    THREADS = 8
    PER_THREAD = 25

    def test_counters_and_log_consistent_under_concurrency(
        self, archive, tmp_path
    ):
        """Parallel connections must leave the books exactly
        balanced: the per-route/status counter and the latency
        histogram each sum to the number of requests issued, and
        every logged line is one valid JSON object."""
        targets = [
            "/v1/as/100", "/v1/as/200", "/v1/period/2019-06",
            "/v1/healthz", "/v1/as/999999",
        ]
        path = tmp_path / "events.jsonl"
        sink = open_jsonl_sink(path)
        observer, _ = _logged(sink)
        with observed(observer), SurveyServer(archive) as server:
            barrier = threading.Barrier(self.THREADS)

            def worker(index):
                connection = http.client.HTTPConnection(
                    server.host, server.port, timeout=10
                )
                barrier.wait()
                for i in range(self.PER_THREAD):
                    _get(connection, targets[(index + i) % len(targets)])
                connection.close()

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(self.THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        sink.close()

        total = self.THREADS * self.PER_THREAD
        assert sum(_counts(observer).values()) == total
        assert sum(_timed(observer).values()) == total
        lines = path.read_text().splitlines()
        entries = [json.loads(line) for line in lines]  # raises on corruption
        access = [e for e in entries if e["event"] == "access"]
        assert len(access) == total
        by_outcome = {}
        for entry in access:
            by_outcome[entry["outcome"]] = \
                by_outcome.get(entry["outcome"], 0) + 1
        assert by_outcome.get("ok", 0) + by_outcome.get("cached", 0) > 0
        assert observer.metrics.gauge("serve_in_flight", "").value() == 0

    def test_noop_observer_still_serves(self, archive):
        api = SurveyAPI(archive)
        assert api.handle("/v1/as/100").status == 200
        assert NOOP.metrics is None


class TestBoundedServerTrace:
    def test_ring_bounds_roots_and_counts_drops(self, archive):
        """A traced server past its ring: the root count stays at the
        ring size and ``obs_spans_dropped_total`` is exact."""
        from repro.obs import SPANS_DROPPED
        from repro.serve import TRACE_RING_ROOTS, SurveyServer

        observer = Observability()
        observer.keep_recent_spans(TRACE_RING_ROOTS)
        requests = TRACE_RING_ROOTS + 37
        # A one-entry cache and two alternating targets: every request
        # misses, and every miss opens one root span.
        with observed(observer), SurveyServer(
            archive, cache_size=1
        ) as server:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=10
            )
            for i in range(requests):
                connection.request("GET", f"/v1/as/{(100, 300)[i % 2]}")
                response = connection.getresponse()
                response.read()
                assert response.status == 200
            connection.request("GET", "/v1/metrics")
            scrape = connection.getresponse().read().decode()
            connection.close()
        roots = observer.tracer.roots
        assert len(roots) == TRACE_RING_ROOTS
        assert roots[-1].name == "serve-metrics"
        assert {root.name for root in roots[:-1]} == {"serve-as"}
        # The scrape's own root was opened (and counted) before it
        # rendered the registry.
        (sample,) = parse_prometheus(scrape)[SPANS_DROPPED]["samples"]
        assert sample["value"] == requests + 1 - TRACE_RING_ROOTS
        assert observer.metrics.counter(SPANS_DROPPED).value() == (
            requests + 1 - TRACE_RING_ROOTS
        )

    def test_serve_command_bounds_only_live_tracers(self):
        from repro.cli import _serve_observer, build_parser
        from repro.obs import NullTracer
        from repro.serve import TRACE_RING_ROOTS

        parser = build_parser()
        observer, sink = _serve_observer(
            parser.parse_args(["serve", "arc", "--trace"])
        )
        assert sink is None
        assert observer.tracer.max_roots == TRACE_RING_ROOTS
        observer, _sink = _serve_observer(
            parser.parse_args(["serve", "arc"])
        )
        assert isinstance(observer.tracer, NullTracer)


class TestObserverIsolation:
    def test_observed_restores_previous(self, archive):
        outer = Observability()
        with observed(outer):
            with observed() as inner:
                SurveyAPI(archive).handle("/v1/healthz")
            assert inner is not outer
        assert outer.metrics.counter(
            "http_requests_total", "", ("route", "status")
        ).value(route="healthz", status="200") == 0
