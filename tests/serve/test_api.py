"""Socket-free tests for the survey query API."""

import json

import pytest

from repro.serve import SEVERITY_CLASSES, SurveyAPI, status_for
from repro.store import (
    ArchiveCorruptionError,
    ASNotFoundError,
    PeriodNotFoundError,
    canonical_json,
)


@pytest.fixture()
def api(archive):
    return SurveyAPI(archive, cache_size=32)


def body(response):
    return json.loads(response.body)


class TestRoutes:
    def test_healthz(self, api):
        response = api.handle("/v1/healthz")
        assert response.status == 200
        payload = body(response)
        assert payload["status"] == "ok"
        assert payload["periods"] == 2
        assert payload["latest"] == "2019-09"

    def test_periods(self, api):
        payload = body(api.handle("/v1/periods"))
        names = [entry["name"] for entry in payload["periods"]]
        assert names == ["2019-06", "2019-09"]

    def test_period_full_payload(self, api, archive):
        response = api.handle("/v1/period/2019-06")
        assert response.status == 200
        assert canonical_json(body(response)) == canonical_json(
            archive.get_period("2019-06")
        )

    def test_as_latest(self, api):
        payload = body(api.handle("/v1/as/100"))
        assert payload["period"] == "2019-09"
        assert payload["report"]["severity"] == "mild"

    def test_as_with_period_query(self, api):
        payload = body(api.handle("/v1/as/100?period=2019-06"))
        assert payload["period"] == "2019-06"
        assert payload["report"]["severity"] == "severe"

    def test_as_prefix_accepted(self, api):
        assert api.handle("/v1/as/AS100").status == 200

    def test_severe(self, api):
        payload = body(api.handle("/v1/period/2019-09/severe"))
        assert payload["asns"] == [400]
        assert payload["count"] == 1
        assert payload["reports"]["400"]["severity"] == "severe"

    def test_severity_classes(self, api):
        for severity in SEVERITY_CLASSES:
            response = api.handle(
                f"/v1/period/2019-06/severity/{severity}"
            )
            assert response.status == 200

    def test_country(self, api):
        payload = body(api.handle("/v1/period/2019-09/country/jp"))
        assert payload["country"] == "JP"
        assert payload["asns"] == [100, 400]

    def test_history(self, api):
        payload = body(api.handle("/v1/as/200/history"))
        assert [e["monitored"] for e in payload["history"]] == [
            True, False,
        ]


class TestErrorMapping:
    def test_unknown_route_404(self, api):
        assert api.handle("/v1/nope").status == 404
        assert api.handle("/other/healthz").status == 404

    def test_unknown_period_404(self, api):
        response = api.handle("/v1/period/2024-01")
        assert response.status == 404
        assert body(response)["error"] == "PeriodNotFoundError"

    def test_unknown_as_404(self, api):
        assert api.handle("/v1/as/77777").status == 404
        assert api.handle("/v1/as/77777/history").status == 404

    def test_bad_asn_400(self, api):
        response = api.handle("/v1/as/banana")
        assert response.status == 400
        assert body(response)["error"] == "ValueError"

    def test_bad_severity_400(self, api):
        response = api.handle("/v1/period/2019-06/severity/awful")
        assert response.status == 400

    def test_corruption_503_never_served(self, api, archive):
        path = archive.segment_path("2019-06")
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        archive._payloads.clear()
        response = api.handle("/v1/period/2019-06")
        assert response.status == 503
        assert body(response)["error"] == "ArchiveCorruptionError"

    def test_status_for_taxonomy(self):
        assert status_for(PeriodNotFoundError("x")) == 404
        assert status_for(ASNotFoundError(1, "x")) == 404
        assert status_for(ArchiveCorruptionError("p", "d")) == 503
        assert status_for(ValueError("v")) == 400
        assert status_for(RuntimeError("r")) == 500


class TestCachingAndETags:
    def test_etag_stable_across_requests(self, api):
        first = api.handle("/v1/as/100")
        second = api.handle("/v1/as/100")
        assert first.etag is not None
        assert first.etag == second.etag
        assert first.body == second.body

    def test_second_request_hits_cache(self, api):
        api.handle("/v1/as/100")
        before = api.cache.stats.hits
        api.handle("/v1/as/100")
        assert api.cache.stats.hits == before + 1

    def test_errors_not_cached(self, api):
        api.handle("/v1/as/77777")
        assert api.cache.get("/v1/as/77777") is None

    def test_query_string_is_part_of_key(self, api):
        latest = api.handle("/v1/as/100")
        pinned = api.handle("/v1/as/100?period=2019-06")
        assert latest.etag != pinned.etag

    def test_serves_from_compacted_archive(self, api, archive):
        """Served from the packed segment, not the warm payload."""
        archive._payloads.clear()
        api.cache.clear()
        payload = body(api.handle("/v1/as/400?period=2019-09"))
        assert payload["report"]["severity"] == "severe"
        assert archive.stats.segment_lookups >= 1


class TestRefreshUnderLoad:
    def test_readers_end_on_the_last_revision(self, tmp_path, monkeypatch):
        """Handler threads read a live period while another handle
        commits revisions and finalizes it; once the writer stops and
        one refresh runs, every route serves the final revision, and
        no request failed on the way."""
        import datetime as dt
        import sys
        import threading

        from repro.core import Severity
        from repro.serve import app as app_module
        from repro.store import SurveyArchive
        from tests.store.conftest import make_ranking, make_survey

        monkeypatch.setattr(app_module, "REFRESH_INTERVAL_S", 0.0)
        root = tmp_path / "arc"
        api = SurveyAPI(SurveyArchive(root), cache_size=32)
        writer = SurveyArchive(root).begin_live_period("2019-12")
        ranking = make_ranking()
        targets = (
            "/v1/period/2019-12", "/v1/as/100?period=2019-12",
            "/v1/period/2019-12/severe", "/v1/periods",
        )
        stop = threading.Event()
        failures = []

        def read():
            while not stop.is_set():
                for target in targets:
                    status = api.handle(target).status
                    if status not in (200, 404):
                        failures.append((target, status))

        classes = [Severity.LOW, Severity.SEVERE] * 15 + [Severity.MILD]
        threads = [threading.Thread(target=read) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for severity in classes:
                writer.commit_partial(make_survey(
                    "2019-12", dt.datetime(2019, 12, 1), {100: severity},
                ), ranking=ranking)
            writer.finalize(make_survey(
                "2019-12", dt.datetime(2019, 12, 1), {100: Severity.MILD},
            ), ranking=ranking)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        report = body(api.handle("/v1/as/100?period=2019-12"))
        assert report["report"]["severity"] == "mild"
        assert body(api.handle("/v1/period/2019-12/severe"))["asns"] == []
        assert body(api.handle("/v1/periods"))["periods"][0]["repr"] == (
            "segment"
        )
