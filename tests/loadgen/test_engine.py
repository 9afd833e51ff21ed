"""The closed-loop engine: config validation, percentile math, report
distillation from a deterministic fake transport."""

import threading

import pytest

from repro.loadgen import (
    LoadConfig,
    Outcome,
    percentile,
    run_load,
)
from repro.loadgen.engine import server_app_ms


class TestLoadConfig:
    def test_defaults_are_valid(self):
        config = LoadConfig()
        assert config.concurrency == 8
        assert config.mix == (("/v1/healthz", 1.0),)

    @pytest.mark.parametrize("kwargs", [
        {"concurrency": 0},
        {"duration_seconds": 0},
        {"duration_seconds": -1.0},
        {"warmup_seconds": -0.1},
        {"mix": ()},
        {"mix": (("/v1/healthz", 0.0),)},
        {"mix": (("/v1/healthz", -2.0),)},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            LoadConfig(**kwargs)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_interpolates(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0.0) == 10.0
        assert percentile(values, 1.0) == 40.0
        assert percentile(values, 0.5) == pytest.approx(25.0)

    def test_p99_of_uniform_grid(self):
        values = [float(i) for i in range(101)]  # 0..100
        assert percentile(values, 0.99) == pytest.approx(99.0)


class TestRunLoad:
    CONFIG = LoadConfig(
        concurrency=4, duration_seconds=0.3, warmup_seconds=0.0,
    )

    def test_distills_statuses_errors_and_shed(self):
        outcomes = [
            Outcome(200),
            Outcome(503, retry_after="1"),
            Outcome(503),                 # missing Retry-After
            Outcome(404),
            Outcome(0, error="boom"),
        ]
        cursor = [0]
        lock = threading.Lock()

        def transport(_target):
            with lock:
                outcome = outcomes[cursor[0] % len(outcomes)]
                cursor[0] += 1
            return outcome

        report = run_load(transport, self.CONFIG)
        assert report.requests > len(outcomes)
        assert report.status_counts["200"] > 0
        assert report.status_counts["error"] > 0
        cycles = report.status_counts["200"]
        # Outcomes cycle, so every category scales together (each
        # thread walks the shared cursor).
        assert report.shed == pytest.approx(2 * cycles, abs=2 * 5)
        assert report.errors == report.status_counts["error"] \
            + report.status_counts["404"]
        assert 0 < report.error_rate < 1
        assert 0 < report.shed_rate < 1
        assert report.missing_retry_after >= 1
        assert report.rps == pytest.approx(
            report.requests / report.duration_seconds
        )
        assert report.p50_ms <= report.p95_ms <= report.p99_ms \
            <= report.max_ms

    def test_transport_exception_becomes_error_outcome(self):
        def transport(_target):
            raise RuntimeError("wire fell out")

        report = run_load(transport, self.CONFIG)
        assert report.requests > 0
        assert report.errors == report.requests
        assert report.error_rate == 1.0
        assert set(report.status_counts) == {"error"}

    def test_mix_weights_steer_target_choice(self):
        counts = {"a": 0, "b": 0}
        lock = threading.Lock()

        def transport(target):
            with lock:
                counts[target.strip("/")] += 1
            return Outcome(200)

        config = LoadConfig(
            concurrency=2, duration_seconds=0.3, warmup_seconds=0.0,
            mix=(("/a", 9.0), ("/b", 1.0)), seed=42,
        )
        run_load(transport, config)
        assert counts["a"] > counts["b"] * 3

    def test_warmup_samples_are_excluded(self):
        seen = [0]
        lock = threading.Lock()

        def transport(_target):
            with lock:
                seen[0] += 1
            return Outcome(200)

        config = LoadConfig(
            concurrency=2, duration_seconds=0.2, warmup_seconds=0.2,
        )
        report = run_load(transport, config)
        assert 0 < report.requests < seen[0]
        assert report.warmup_seconds == 0.2

    def test_to_dict_and_summary_are_complete(self):
        report = run_load(lambda _t: Outcome(200), self.CONFIG)
        payload = report.to_dict()
        for field in (
            "requests", "duration_seconds", "rps", "p50_ms", "p95_ms",
            "p99_ms", "mean_ms", "max_ms", "errors", "shed",
            "error_rate", "shed_rate", "missing_retry_after",
            "concurrency", "warmup_seconds", "status_counts",
        ):
            assert field in payload
        assert payload["concurrency"] == 4
        lines = report.summary_lines()
        assert any("req/s" in line for line in lines)
        assert any("p99" in line for line in lines)


class TestServerTiming:
    @pytest.mark.parametrize("header, expected", [
        ("app;dur=0.125", 0.125),
        ("db;dur=3, app;desc=\"x\";dur=2.5", 2.5),
        ("app", None),
        ("app;dur=bad", None),
        ("db;dur=1", None),
        (None, None),
    ])
    def test_parses_app_duration(self, header, expected):
        assert server_app_ms(header) == expected

    def test_report_takes_percentile_of_reported_app_times(self):
        times = iter([1.0, 3.0, 2.0] * 10_000)

        def transport(_target):
            return Outcome(200, app_ms=next(times))

        report = run_load(transport, LoadConfig(
            concurrency=1, duration_seconds=0.05, warmup_seconds=0.0,
        ))
        assert 1.0 <= report.app_p50_ms <= 3.0
        assert report.to_dict()["app_p50_ms"] == report.app_p50_ms

    def test_absent_header_reports_none(self):
        report = run_load(lambda _t: Outcome(200), LoadConfig(
            concurrency=1, duration_seconds=0.05, warmup_seconds=0.0,
        ))
        assert report.app_p50_ms is None
        assert report.to_dict()["app_p50_ms"] is None
