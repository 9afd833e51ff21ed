"""Loadgen against the real API surface (socket-free transport)."""

import datetime as dt

import pytest

from repro.core import Severity
from repro.loadgen import (
    LoadConfig, api_transport, build_mix, http_transport, run_load,
)
from repro.obs import observed
from repro.serve import ResilienceConfig, SurveyAPI, SurveyServer
from repro.store import SurveyArchive
from tests.store.conftest import make_ranking, make_survey


@pytest.fixture()
def archive(tmp_path):
    archive = SurveyArchive(tmp_path / "arc")
    archive.ingest(
        make_survey("2019-06", dt.datetime(2019, 6, 1), {
            100: Severity.SEVERE, 200: Severity.LOW,
            300: Severity.NONE,
        }),
        ranking=make_ranking(),
    )
    return archive


def test_loadtest_drives_api_and_scrapes_metrics(archive):
    with observed() as obs, SurveyServer(archive) as server:
        config = LoadConfig(
            concurrency=4, duration_seconds=0.4, warmup_seconds=0.1,
            mix=build_mix(archive, {
                "as": 2.0, "period": 1.0, "healthz": 0.5,
                "metrics": 0.25,
            }),
        )
        report = run_load(http_transport(server.url), config)
    assert report.requests > 0
    assert report.errors == 0
    assert report.error_rate == 0.0
    assert report.p99_ms >= report.p50_ms > 0
    # The engine's view and the server's RED counters agree on scale:
    # warmup requests hit the server but not the report.
    total = sum(dict(obs.metrics.counter(
        "http_requests_total", "", ("route", "status")
    ).samples()).values())
    assert total >= report.requests
    # The shell times each request it counts, once.
    assert sum(series.count for _key, series in obs.metrics.histogram(
        "serve_request_seconds", "", ("route",)
    ).samples()) == total


def test_shed_outcomes_carry_retry_after(archive):
    api = SurveyAPI(
        archive,
        resilience=ResilienceConfig(
            max_concurrency=1, retry_after_seconds=0.5,
        ),
    )
    config = LoadConfig(
        concurrency=8, duration_seconds=0.4, warmup_seconds=0.0,
        mix=(("/v1/period/2019-06", 1.0),),
    )
    report = run_load(api_transport(api), config)
    assert set(report.status_counts) <= {"200", "503"}
    if report.shed:
        assert report.missing_retry_after == 0
