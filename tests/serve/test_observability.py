"""Serving observability: /v1/metrics, X-Request-Id, RED metrics and
the structured access log — including their behavior under genuine
concurrency (counter consistency, uncorrupted JSONL)."""

import json
import threading

import pytest

from repro.obs import NOOP, Observability, observed, parse_prometheus
from repro.serve import AccessLog, SurveyAPI, read_access_log
from repro.serve.app import METRICS_CONTENT_TYPE, REQUEST_ID_HEADER


def _request_id_of(response):
    return dict(response.headers)[REQUEST_ID_HEADER]


class TestMetricsEndpoint:
    def test_prometheus_by_default_and_round_trips(self, archive):
        with observed() as obs:
            api = SurveyAPI(archive)
            api.handle("/v1/as/100")
            response = api.handle("/v1/metrics")
        assert response.status == 200
        assert response.content_type == METRICS_CONTENT_TYPE
        parsed = parse_prometheus(response.body.decode())
        samples = {
            (sample["labels"]["route"], sample["labels"]["status"]):
                sample["value"]
            for sample in parsed["http_requests_total"]["samples"]
        }
        assert samples[("as", "200")] == 1.0
        # The scrape pre-dates its own accounting; the live registry
        # has since counted the /v1/metrics request itself.
        json_samples = {
            (s["labels"]["route"], s["labels"]["status"]): s["value"]
            for s in obs.metrics.to_dict()["http_requests_total"]
            ["samples"]
        }
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
        assert payload["http_requests_total"]["type"] == "counter"

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


class TestRedMetrics:
    def _counter_samples(self, obs):
        return {
            (dict(key)["route"], dict(key)["status"]): value
            for key, value in obs.metrics.counter(
                "http_requests_total", "", ("route", "status")
            ).samples()
        }

    def test_cache_hit_keeps_real_route(self, archive):
        with observed() as obs:
            api = SurveyAPI(archive)
            api.handle("/v1/as/100")
            api.handle("/v1/as/100")  # cache hit
        samples = self._counter_samples(obs)
        assert samples[("as", "200")] == 2.0
        assert not any(route == "cached" for route, _ in samples)
        # The latency histogram keeps its historical cached label.
        timed = {
            dict(key)["route"]
            for key, _ in obs.metrics.get("serve_request_seconds").samples()
        }
        assert timed == {"as", "cached"}
        assert obs.metrics.get("serve_requests_total") is None

    def test_statuses_land_on_their_series(self, archive):
        with observed() as obs:
            api = SurveyAPI(archive)
            api.handle("/v1/as/100")
            api.handle("/v1/as/999999")        # 404
            api.handle("/v1/as/not-a-number")  # 400
        samples = self._counter_samples(obs)
        assert samples[("as", "200")] == 1.0
        assert samples[("as", "404")] == 1.0
        assert samples[("as", "400")] == 1.0

    def test_in_flight_returns_to_zero_and_hit_ratio_tracks(
        self, archive
    ):
        with observed() as obs:
            api = SurveyAPI(archive)
            api.handle("/v1/as/100")
            api.handle("/v1/as/100")
        assert obs.metrics.gauge("serve_in_flight", "").value() == 0
        assert obs.metrics.gauge(
            "serve_cache_hit_ratio", ""
        ).value() == pytest.approx(0.5)


class TestAccessLog:
    def test_records_request_fields(self, archive, tmp_path):
        path = tmp_path / "access.jsonl"
        with AccessLog(path) as log:
            api = SurveyAPI(archive, access_log=log)
            api.handle(
                "/v1/as/100", headers={REQUEST_ID_HEADER: "rid-1"}
            )
            api.handle("/v1/as/100")
            api.handle("/v1/as/999999")
        entries = list(read_access_log(path))
        assert [e["outcome"] for e in entries] == [
            "ok", "cached", "error",
        ]
        first = entries[0]
        assert first["request_id"] == "rid-1"
        assert first["route"] == "as"
        assert first["status"] == 200
        assert first["target"] == "/v1/as/100"
        assert first["duration_ms"] >= 0
        assert entries[2]["status"] == 404

    def test_in_memory_mode_and_bounding(self):
        log = AccessLog(keep=3)
        for i in range(10):
            log.record(seq=i)
        assert log.written == 10
        assert [e["seq"] for e in log.entries] == [7, 8, 9]

    def test_close_is_idempotent(self, tmp_path):
        log = AccessLog(tmp_path / "a.jsonl")
        log.record(x=1)
        log.close()
        log.close()
        assert [e["x"] for e in read_access_log(tmp_path / "a.jsonl")] \
            == [1]

    def test_corrupt_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="corrupt"):
            list(read_access_log(path))


class TestConcurrentTelemetry:
    THREADS = 8
    PER_THREAD = 25

    def test_counters_and_log_consistent_under_concurrency(
        self, archive, tmp_path
    ):
        """Parallel handlers must leave the books exactly balanced:
        the per-route/status counter sum equals the number of requests
        issued, and every access-log line is one valid JSON object."""
        targets = [
            "/v1/as/100", "/v1/as/200", "/v1/period/2019-06",
            "/v1/healthz", "/v1/as/999999",
        ]
        path = tmp_path / "access.jsonl"
        with AccessLog(path) as log, observed() as obs:
            api = SurveyAPI(archive, access_log=log)
            barrier = threading.Barrier(self.THREADS)

            def worker(index):
                barrier.wait()
                for i in range(self.PER_THREAD):
                    api.handle(targets[(index + i) % len(targets)])

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(self.THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        total = self.THREADS * self.PER_THREAD
        by_series = dict(obs.metrics.counter(
            "http_requests_total", "", ("route", "status")
        ).samples())
        assert sum(by_series.values()) == total
        assert obs.metrics.histogram(
            "serve_request_seconds", "", ("route",)
        )  # exists with the same schema — would raise otherwise

        entries = list(read_access_log(path))  # raises on corruption
        assert len(entries) == total
        assert log.written == total
        by_outcome = {}
        for entry in entries:
            by_outcome[entry["outcome"]] = \
                by_outcome.get(entry["outcome"], 0) + 1
        # Everything resolved: no outcome category went missing.
        assert sum(by_outcome.values()) == total
        assert by_outcome.get("ok", 0) + by_outcome.get("cached", 0) > 0

    def test_noop_observer_still_serves(self, archive):
        api = SurveyAPI(archive)
        assert api.handle("/v1/as/100").status == 200
        assert NOOP.metrics is None


class TestBoundedServerTrace:
    def test_ring_bounds_roots_and_counts_drops(self, archive):
        """A traced server past its ring: the root count stays at the
        ring size and ``obs_spans_dropped_total`` is exact."""
        import http.client

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
        observer, sink, report = _serve_observer(
            parser.parse_args(["serve", "arc", "--trace"])
        )
        assert report and sink is None
        assert observer.tracer.max_roots == TRACE_RING_ROOTS
        observer, _sink, report = _serve_observer(
            parser.parse_args(["serve", "arc"])
        )
        assert not report
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
