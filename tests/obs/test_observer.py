"""Tests for the Observability facade, NOOP path and report."""

import io

import pytest

from repro.obs import (
    DURATION,
    ITEMS_IN,
    ITEMS_OUT,
    NOOP,
    Observability,
    PerObserver,
    QUALITY_DROPPED,
    QUALITY_INGESTED,
    StructuredLogger,
    build_report,
    get_observer,
    load_report,
    observed,
    render_report,
    set_observer,
    write_report,
)
from repro.quality import DataQualityReport, DropReason


class TestActiveObserver:
    def test_default_is_noop(self):
        assert get_observer() is NOOP
        assert not NOOP.enabled

    def test_observed_installs_and_restores(self):
        with observed() as obs:
            assert get_observer() is obs
            assert obs.enabled
        assert get_observer() is NOOP

    def test_observed_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with observed():
                raise RuntimeError("x")
        assert get_observer() is NOOP

    def test_set_observer_none_means_noop(self):
        set_observer(Observability())
        set_observer(None)
        assert get_observer() is NOOP


class TestObservability:
    def test_stage_span_feeds_duration_histogram(self):
        obs = Observability()
        with obs.stage_span("load", path="x") as span:
            span.set_attr("records", 3)
        histogram = obs.metrics.get(DURATION)
        assert histogram.count(stage="load") == 1
        assert obs.tracer.roots[0].attrs["records"] == 3

    def test_stage_span_records_duration_even_on_error(self):
        obs = Observability()
        with pytest.raises(RuntimeError):
            with obs.stage_span("load"):
                raise RuntimeError("x")
        assert obs.metrics.get(DURATION).count(stage="load") == 1
        assert obs.tracer.roots[0].error == "RuntimeError"

    def test_items_in_out(self):
        obs = Observability()
        obs.items_in("core-filtering", 250)
        obs.items_out("core-filtering", 240)
        assert obs.metrics.get(ITEMS_IN).value(
            stage="core-filtering"
        ) == 250
        assert obs.metrics.get(ITEMS_OUT).value(
            stage="core-filtering"
        ) == 240

    def test_record_quality_mirrors_ledger_idempotently(self):
        obs = Observability()
        quality = DataQualityReport()
        quality.ingest("io-load-traceroutes", 10)
        quality.drop(
            "io-load-traceroutes", DropReason.CORRUPT_LINE, n=2
        )
        obs.record_quality(quality)
        obs.record_quality(quality)  # gauges: no double counting
        assert obs.metrics.get(QUALITY_INGESTED).value(
            stage="io-load-traceroutes"
        ) == 10
        assert obs.metrics.get(QUALITY_DROPPED).value(
            stage="io-load-traceroutes", reason="corrupt-line"
        ) == 2

    def test_logger_default_is_silent(self):
        obs = Observability()
        obs.logger.info("event")  # no sink, no crash

    def test_custom_logger_receives_events(self):
        sink = io.StringIO()
        obs = Observability(
            logger=StructuredLogger(sink=sink, clock=lambda: 0.0)
        )
        obs.logger.bind(stage="s").info("go")
        assert '"event": "go"' in sink.getvalue()


class TestNoopObservability:
    def test_spans_are_noops_but_propagate(self):
        with NOOP.stage_span("load") as span:
            span.set_attr("ignored", 1)
        with pytest.raises(RuntimeError):
            with NOOP.span("x"):
                raise RuntimeError("boom")

    def test_instruments_absorb_everything(self):
        counter = NOOP.counter("x_total", "", ("stage",))
        counter.inc(5, stage="load")
        counter.labels(stage="load").inc()
        NOOP.gauge("g").set(1)
        NOOP.histogram("h").observe(0.5)
        NOOP.items_in("s", 10)
        NOOP.items_out("s", 10)
        NOOP.record_quality(DataQualityReport())


class TestReport:
    def _observer_with_data(self):
        obs = Observability()
        with obs.stage_span("load"):
            pass
        obs.items_in("io-load", 5)
        return obs

    def test_build_report_shape(self):
        report = build_report(self._observer_with_data())
        assert set(report) == {"schema", "metrics", "trace"}
        assert report["schema"] == 1
        assert ITEMS_IN in report["metrics"]
        assert report["trace"][0]["name"] == "load"

    def test_write_and_load_round_trip(self, tmp_path):
        obs = self._observer_with_data()
        path = write_report(obs, tmp_path / "metrics.json")
        data = load_report(path)
        assert data == build_report(obs)

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 99}')
        with pytest.raises(ValueError, match="schema"):
            load_report(path)

    def test_render_report_sections(self):
        text = render_report(build_report(self._observer_with_data()))
        assert "== trace ==" in text
        assert "== metrics ==" in text
        assert "load" in text

    def test_render_empty_report(self):
        text = render_report({"schema": 1})
        assert "(no spans recorded)" in text
        assert "(no metrics recorded)" in text


class TestPerObserver:
    def test_resolves_once_per_observer(self):
        built = []

        def factory(obs):
            built.append(obs)
            return obs.counter("hits_total", "hits")

        per = PerObserver(factory)
        first, second = Observability(), Observability()
        assert per.get(first) is per.get(first)
        per.get(first).inc()
        assert first.metrics.counter("hits_total").value() == 1
        assert per.get(second) is not per.get(first)
        assert built == [first, second, first]

    def test_noop_observer_gets_noop_instruments(self):
        per = PerObserver(lambda obs: obs.histogram("t_seconds"))
        per.get(NOOP).observe(1.0)  # no registry, no error
