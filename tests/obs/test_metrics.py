"""Tests for the metrics registry."""

import pytest

from repro.obs.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero(self):
        counter = Counter("hits_total", "hits")
        assert counter.value() == 0

    def test_increments(self):
        counter = Counter("hits_total", "hits")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5

    def test_rejects_negative(self):
        counter = Counter("hits_total", "hits")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_label_sets_are_independent_series(self):
        counter = Counter("items_total", "items", ("stage",))
        counter.inc(3, stage="load")
        counter.inc(5, stage="filter")
        assert counter.value(stage="load") == 3
        assert counter.value(stage="filter") == 5

    def test_rejects_wrong_labels(self):
        counter = Counter("items_total", "items", ("stage",))
        with pytest.raises(ValueError):
            counter.inc(1)
        with pytest.raises(ValueError):
            counter.inc(1, stage="load", reason="extra")

    def test_bound_counter_shares_storage(self):
        counter = Counter("items_total", "items", ("stage",))
        bound = counter.labels(stage="load")
        bound.inc()
        bound.inc(2)
        assert counter.value(stage="load") == 3

    def test_bound_counter_materializes_zero_series(self):
        counter = Counter("items_total", "items", ("stage",))
        counter.labels(stage="load")
        assert list(counter.samples()) == [((("stage", "load"),), 0)]


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("depth", "queue depth")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value() == 7

    def test_set_is_idempotent(self):
        gauge = Gauge("dropped", "dropped", ("reason",))
        gauge.set(4, reason="stale-record")
        gauge.set(4, reason="stale-record")
        assert gauge.value(reason="stale-record") == 4


class TestHistogram:
    def test_observations_land_in_first_fitting_bucket(self):
        histogram = Histogram(
            "latency", "latency", buckets=(0.1, 1.0, 10.0)
        )
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(100.0)  # beyond last bound -> +Inf slot
        series = dict(histogram.samples())[()]
        assert series.bucket_counts == [1, 1, 0, 1]
        assert series.count == 3
        assert series.total == pytest.approx(100.55)
        assert series.minimum == pytest.approx(0.05)
        assert series.maximum == pytest.approx(100.0)

    def test_boundary_value_is_inclusive(self):
        histogram = Histogram("latency", "", buckets=(1.0, 2.0))
        histogram.observe(1.0)
        series = dict(histogram.samples())[()]
        assert series.bucket_counts == [1, 0, 0]

    def test_count_and_sum_of_missing_series(self):
        histogram = Histogram("latency", "", ("stage",))
        assert histogram.count(stage="load") == 0
        assert histogram.sum(stage="load") == 0.0

    def test_rejects_empty_buckets(self):
        with pytest.raises(ValueError):
            Histogram("latency", "", buckets=())


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("hits_total", "hits", ("stage",))
        second = registry.counter("hits_total", "hits", ("stage",))
        assert first is second

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("hits_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("hits_total")

    def test_label_schema_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", "", ("stage",))
        with pytest.raises(ValueError, match="label schema"):
            registry.counter("hits_total", "", ("stage", "reason"))

    def test_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("items_total", "items", ("stage",)).inc(
            7, stage="load"
        )
        registry.gauge("dropped", "drops", ("reason",)).set(
            3, reason="stale-record"
        )
        histogram = registry.histogram("latency", "lat", ("stage",))
        histogram.observe(0.002, stage="load")
        histogram.observe(2.5, stage="load")

        rebuilt = MetricsRegistry.from_dict(registry.to_dict())
        assert rebuilt.to_dict() == registry.to_dict()
        assert rebuilt.get("items_total").value(stage="load") == 7
        assert rebuilt.get("latency").count(stage="load") == 2
        assert rebuilt.get("latency").sum(stage="load") == (
            pytest.approx(2.502)
        )

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown instrument"):
            MetricsRegistry.from_dict(
                {"x": {"type": "summary", "samples": []}}
            )


class TestPrometheusExport:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("items_total", "items", ("stage",)).inc(
            5, stage="load"
        )
        registry.gauge("depth", "queue depth").set(2.5)
        text = registry.to_prometheus()
        assert "# TYPE items_total counter" in text
        assert '# HELP items_total items' in text
        assert 'items_total{stage="load"} 5' in text
        assert "# TYPE depth gauge" in text
        assert "depth 2.5" in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "latency", "", buckets=(0.1, 1.0)
        )
        histogram.observe(0.05)
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        text = registry.to_prometheus()
        assert 'latency_bucket{le="0.1"} 2' in text
        assert 'latency_bucket{le="1"} 3' in text
        assert 'latency_bucket{le="+Inf"} 4' in text
        assert "latency_count 4" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", "", ("reason",)).inc(
            1, reason='say "hi"\n'
        )
        text = registry.to_prometheus()
        assert r'reason="say \"hi\"\n"' in text

    def test_empty_registry_exports_empty_string(self):
        assert MetricsRegistry().to_prometheus() == ""

    def test_default_buckets_cover_survey_scale(self):
        assert DEFAULT_BUCKETS[0] <= 0.001
        assert DEFAULT_BUCKETS[-1] >= 300.0


class TestSummaryLines:
    def test_histogram_summary_shows_mean(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency", "", ("stage",))
        histogram.observe(1.0, stage="load")
        histogram.observe(3.0, stage="load")
        lines = registry.summary_lines()
        assert any(
            "count=2" in line and "mean=2" in line for line in lines
        )

    def test_quantiles_stay_within_the_samples(self):
        """Seven samples inside the one 10-30 s bucket: interpolating
        there would read p50~20, above every sample."""
        registry = MetricsRegistry()
        histogram = registry.histogram("period_seconds")
        samples = [12.88, 13.02, 13.15, 13.3, 13.47, 13.61, 13.89]
        for value in samples:
            histogram.observe(value)
        restored = MetricsRegistry.from_dict(registry.to_dict())
        [line] = restored.summary_lines()
        fields = dict(
            part.replace("~", "=").split("=")
            for part in line.split(": ", 1)[1].split()
        )
        for name in ("p50", "p99"):
            assert min(samples) <= float(fields[name]) <= max(samples)
        assert float(fields["p99"]) == max(samples)
