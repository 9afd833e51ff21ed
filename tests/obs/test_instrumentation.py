"""The pipeline actually reports through an installed observer."""

import datetime as dt

import numpy as np

from repro.atlas import ProbeMeta
from repro.core import LastMileDataset, ProbeBinSeries, classify_dataset
from repro.obs import DURATION, ITEMS_IN, ITEMS_OUT, observed
from repro.timebase import MeasurementPeriod, TimeGrid

PERIOD = MeasurementPeriod("2019-09", dt.datetime(2019, 9, 1), 15)


def small_dataset(num_asns=5, probes_per_asn=4, seed=0):
    grid = TimeGrid(PERIOD)
    rng = np.random.default_rng(seed)
    dataset = LastMileDataset(grid=grid)
    t = np.arange(grid.num_bins) / grid.bins_per_day
    prb_id = 1
    for asn in range(100, 100 + num_asns):
        for _ in range(probes_per_asn):
            medians = (
                rng.uniform(1.0, 3.0)
                + rng.normal(0, 0.05, grid.num_bins)
                + 1.5 * (1 + np.sin(2 * np.pi * t))
            )
            dataset.add(
                ProbeBinSeries(
                    prb_id=prb_id,
                    median_rtt_ms=medians,
                    traceroute_counts=np.full(grid.num_bins, 24),
                ),
                meta=ProbeMeta(
                    prb_id=prb_id, asn=asn, is_anchor=False,
                    public_address="20.0.0.1",
                ),
            )
            prb_id += 1
    return dataset


def assert_stage_counters_and_spans(kernels):
    # One span shape for both backends: one classify span per AS
    # (its aggregate child is the gather), and marker extraction
    # hoisted into one spectral sibling per chunk — a single one
    # here, since five small ASes fit one chunk.
    dataset = small_dataset()
    with observed() as obs:
        result = classify_dataset(
            dataset, PERIOD, kernels=kernels
        )
    assert result.monitored_count == 5

    items_in = obs.metrics.get(ITEMS_IN)
    items_out = obs.metrics.get(ITEMS_OUT)
    # filter saw every probe, survey classified every AS group.
    assert items_in.value(stage="core-filtering") == 20
    assert items_in.value(stage="core-survey") == 5
    assert items_out.value(stage="core-survey") == 5
    assert items_in.value(stage="core-aggregate") == 20
    assert items_in.value(stage="core-spectral") == 5

    duration = obs.metrics.get(DURATION)
    for stage in (
        "classify-dataset", "filter", "aggregate", "spectral",
    ):
        assert duration.count(stage=stage) >= 1, stage

    roots = obs.tracer.roots
    assert [r.name for r in roots] == ["classify-dataset"]
    assert roots[0].attrs["kernel"] == kernels
    child_names = [c.name for c in roots[0].children]
    assert "filter" in child_names
    assert child_names.count("classify") == 5
    assert child_names.count("population-signals") == 1
    assert child_names.count("spectral") == 1
    for span in roots[0].children:
        if span.name == "classify":
            assert [c.name for c in span.children] == [
                "aggregate"
            ]
    spectral_span = next(
        c for c in roots[0].children if c.name == "spectral"
    )
    assert spectral_span.attrs["signals"] == 5
    assert spectral_span.attrs["kernel"] == kernels
    populations_span = next(
        c for c in roots[0].children if c.name == "population-signals"
    )
    assert populations_span.attrs == {
        "kernel": kernels, "populations": 5,
    }


class TestClassifyDatasetInstrumentation:
    def test_stage_counters_and_spans(self):
        assert_stage_counters_and_spans("reference")

    def test_batched_backend_span_shape(self):
        # The vector backend batches the per-AS work yet must leave
        # the same counters and span tree as the reference backend.
        assert_stage_counters_and_spans("vector")

    def test_quality_ledger_mirrored_as_gauges(self):
        dataset = small_dataset()
        with observed() as obs:
            classify_dataset(dataset, PERIOD)
        gauge = obs.metrics.get("quality_ingested_total")
        assert gauge is not None
        assert gauge.value(stage="core-filtering") == 20

    def test_severity_counter_recorded(self):
        dataset = small_dataset()
        with observed() as obs:
            result = classify_dataset(dataset, PERIOD)
        counter = obs.metrics.get("survey_as_classified_total")
        total = sum(value for _key, value in counter.samples())
        assert total == result.monitored_count

    def test_noop_observer_leaves_results_identical(self):
        dataset = small_dataset()
        baseline = classify_dataset(dataset, PERIOD)
        with observed():
            observed_result = classify_dataset(dataset, PERIOD)
        assert (
            {a: r.severity for a, r in baseline.reports.items()}
            == {a: r.severity
                for a, r in observed_result.reports.items()}
        )
