"""Serving-layer tests for the anomaly pinpointing routes."""

import json

import pytest

from repro.serve import SurveyAPI, SurveyServer, status_for
from repro.store import (
    AnomalyReportNotFoundError,
    LinkNotFoundError,
    canonical_json,
)
from tests.store.test_anomaly_artifacts import LINK, make_anomaly_payload


@pytest.fixture()
def reported_archive(archive):
    archive.ingest_anomalies(
        "2019-06", make_anomaly_payload("2019-06")
    )
    return archive


@pytest.fixture()
def api(reported_archive):
    return SurveyAPI(reported_archive, cache_size=32)


def body(response):
    return json.loads(response.body)


class TestAnomaliesRoute:
    def test_full_payload(self, api, reported_archive):
        response = api.handle("/v1/period/2019-06/anomalies")
        assert response.status == 200
        assert canonical_json(body(response)) == canonical_json(
            reported_archive.get_anomalies("2019-06")
        )

    def test_report_less_period_is_404(self, api):
        response = api.handle("/v1/period/2019-09/anomalies")
        assert response.status == 404
        payload = body(response)
        assert payload["error"] == "AnomalyReportNotFoundError"
        assert "2019-09" in payload["detail"]

    def test_unknown_period_is_404(self, api):
        assert api.handle(
            "/v1/period/2031-01/anomalies"
        ).status == 404

    def test_status_mapping(self):
        assert status_for(AnomalyReportNotFoundError("x")) == 404
        assert status_for(LinkNotFoundError("a--b")) == 404


class TestLinkHistoryRoute:
    def test_history_spans_periods(self, api):
        response = api.handle(f"/v1/link/{LINK}/history")
        assert response.status == 200
        payload = body(response)
        assert payload["link"] == LINK
        assert [e["period"] for e in payload["history"]] == [
            "2019-06"
        ]
        assert payload["history"][0]["observed"] is True

    def test_unknown_link_is_404(self, api):
        assert api.handle(
            "/v1/link/9.9.9.9--8.8.8.8/history"
        ).status == 404

    def test_malformed_link_is_400(self, api):
        assert api.handle("/v1/link/not-a-link/history").status == 400


class TestCaching:
    def test_etag_stable_and_cached(self, api):
        first = api.handle("/v1/period/2019-06/anomalies")
        before = api.cache.stats.hits
        second = api.handle("/v1/period/2019-06/anomalies")
        assert first.etag is not None
        assert first.etag == second.etag
        assert api.cache.stats.hits == before + 1

    def test_new_report_invalidates_history(
        self, api, reported_archive
    ):
        stale = api.handle(f"/v1/link/{LINK}/history")
        reported_archive.ingest_anomalies(
            "2019-09", make_anomaly_payload("2019-09")
        )
        fresh = api.handle(f"/v1/link/{LINK}/history")
        assert [
            e["period"] for e in body(fresh)["history"]
        ] == ["2019-06", "2019-09"]
        assert fresh.etag != stale.etag


class TestHttpConditional:
    def test_anomalies_200_then_304_replay(self, reported_archive):
        import urllib.request

        with SurveyServer(reported_archive) as server:
            url = server.url + "/v1/period/2019-06/anomalies"
            with urllib.request.urlopen(url, timeout=10) as response:
                etag = response.headers["ETag"]
                assert response.status == 200
                assert json.loads(response.read())["links"]
            request = urllib.request.Request(
                url, headers={"If-None-Match": etag}
            )
            import urllib.error

            try:
                with urllib.request.urlopen(
                    request, timeout=10
                ) as replay:
                    status = replay.status
                    payload = replay.read()
            except urllib.error.HTTPError as error:
                status = error.code
                payload = error.read()
            assert status == 304
            assert payload == b""
