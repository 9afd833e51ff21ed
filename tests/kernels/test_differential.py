"""Differential equivalence of the reference and vector kernels.

The backend contract (``repro.core.kernels``): both backends produce
*numerically identical* survey output — bit-for-bit under
``survey_to_dict`` — on every input.  This harness proves it over
seeded worlds, fault-injected datasets, and degenerate inputs
(all-NaN bins, single-probe ASes, empty periods), in process and
through the sharded executor.  This file also runs in the CI
chaos leg under ``-W error::RuntimeWarning``: the vector kernels must
stay warning-silent on degenerate data, like the reference loops.
"""

import datetime as dt
import json

import numpy as np
import pytest

from repro.atlas import ProbeMeta
from repro.core import (
    LastMileDataset,
    ProbeBinSeries,
    aggregate_population,
    classify_dataset,
    estimate_probe_series,
)
from repro.faults import BinLoss, FaultLog, NaNBursts, PoisonAS
from repro.io import survey_to_dict
from repro.quality import DataQualityReport
from repro.scenarios import generate_specs, run_survey_period
from repro.timebase import MeasurementPeriod, TimeGrid

PERIOD = MeasurementPeriod("2019-09", dt.datetime(2019, 9, 2), 4)
GRID = TimeGrid(PERIOD)


def canonical_bytes(result):
    """The serialized survey as bytes — the equality the suite asserts."""
    return json.dumps(
        survey_to_dict(result), sort_keys=True
    ).encode("ascii")


@pytest.fixture(scope="module")
def specs():
    return generate_specs(num_ases=10, num_countries=6, seed=5)


def synthetic_dataset(num_ases=8, probes_per_asn=4, seed=0):
    rng = np.random.default_rng(seed)
    dataset = LastMileDataset(grid=GRID)
    t = np.arange(GRID.num_bins) / GRID.bins_per_day
    prb_id = 1
    for asn in range(100, 100 + num_ases):
        amplitude = rng.uniform(0.0, 2.5)
        for _ in range(probes_per_asn):
            medians = (
                rng.uniform(1.0, 3.0)
                + rng.normal(0, 0.05, GRID.num_bins)
                + amplitude * (1 + np.sin(2 * np.pi * t))
            )
            dataset.add(
                ProbeBinSeries(
                    prb_id=prb_id,
                    median_rtt_ms=medians,
                    traceroute_counts=np.full(GRID.num_bins, 24),
                ),
                meta=ProbeMeta(
                    prb_id=prb_id, asn=asn, is_anchor=False,
                    public_address="20.0.0.1",
                ),
            )
            prb_id += 1
    return dataset


def degenerate_dataset():
    """Every degenerate corner in one dataset: an AS of all-NaN
    probes, a single-probe AS, a constant (flat) AS, an AS with one
    dead probe, and a probe whose counts never reach the sanity
    threshold."""
    dataset = LastMileDataset(grid=GRID)
    bins = GRID.num_bins
    t = np.arange(bins) / GRID.bins_per_day

    def add(prb_id, asn, medians, counts):
        dataset.add(
            ProbeBinSeries(
                prb_id=prb_id, median_rtt_ms=medians,
                traceroute_counts=counts,
            ),
            meta=ProbeMeta(
                prb_id=prb_id, asn=asn, is_anchor=False,
                public_address="20.0.0.1",
            ),
        )

    full = np.full(bins, 24)
    # AS 200: every probe all-NaN (dead population -> degenerate).
    for prb_id in (1, 2, 3):
        add(prb_id, 200, np.full(bins, np.nan), full)
    # AS 201: single probe with a clean daily signal.
    add(4, 201, 2.0 + 1.5 * (1 + np.sin(2 * np.pi * t)), full)
    # AS 202: perfectly constant signal (flat -> classified None).
    for prb_id in (5, 6, 7):
        add(prb_id, 202, np.full(bins, 3.25), full)
    # AS 203: one healthy probe, one all-NaN, one below the
    # traceroute sanity threshold everywhere.
    add(8, 203, 1.0 + np.sin(2 * np.pi * t), full)
    add(9, 203, np.full(bins, np.nan), full)
    add(10, 203, np.full(bins, 2.0), np.full(bins, 2))
    # AS 204: NaN mixed *within* bins-with-samples is impossible at
    # this layer, but half-NaN series exercise the nanmedian path.
    for prb_id in (11, 12, 13):
        medians = 2.0 + 0.5 * np.sin(2 * np.pi * t)
        medians[prb_id::3] = np.nan
        add(prb_id, 204, medians, full)
    return dataset


def classify_both(dataset, **kwargs):
    reference = classify_dataset(
        dataset, PERIOD, kernels="reference", **kwargs
    )
    vector = classify_dataset(
        dataset, PERIOD, kernels="vector", **kwargs
    )
    return reference, vector


class TestSeededWorldEquivalence:
    def test_serial_survey_identical(self, specs):
        reference, _ = run_survey_period(
            specs, PERIOD, seed=7, kernels="reference"
        )
        vector, _ = run_survey_period(
            specs, PERIOD, seed=7, kernels="vector"
        )
        assert canonical_bytes(vector) == canonical_bytes(reference)
        assert len(reference.reports) == 10

    def test_sharded_vector_matches_serial_reference(self, specs):
        reference, _ = run_survey_period(
            specs, PERIOD, seed=7, kernels="reference"
        )
        vector, _ = run_survey_period(
            specs, PERIOD, seed=7, workers=3, kernels="vector"
        )
        assert canonical_bytes(vector) == canonical_bytes(reference)

    def test_default_backend_matches_reference(self, specs):
        """With no explicit argument the survey runs the default
        (vector) backend and still matches the reference."""
        reference, _ = run_survey_period(
            specs, PERIOD, seed=7, kernels="reference"
        )
        default, _ = run_survey_period(specs, PERIOD, seed=7)
        assert canonical_bytes(default) == canonical_bytes(reference)


class TestFaultedEquivalence:
    FAULTS = staticmethod(lambda: [
        BinLoss(rate=0.05),
        NaNBursts(probe_rate=0.3),
        PoisonAS(count=1),
    ])

    def test_faulted_survey_identical(self, specs):
        ref_log, vec_log = FaultLog(), FaultLog()
        reference, _ = run_survey_period(
            specs, PERIOD, seed=7, kernels="reference",
            dataset_faults=self.FAULTS(), fault_seed=3,
            fault_log=ref_log,
        )
        vector, _ = run_survey_period(
            specs, PERIOD, seed=7, kernels="vector",
            dataset_faults=self.FAULTS(), fault_seed=3,
            fault_log=vec_log,
        )
        assert canonical_bytes(vector) == canonical_bytes(reference)
        assert vec_log.counts == ref_log.counts
        assert reference.failures, "PoisonAS should fail one AS"
        assert set(vector.failures) == set(reference.failures)

    def test_faulted_sharded_vector_identical(self, specs):
        reference, _ = run_survey_period(
            specs, PERIOD, seed=7, kernels="reference",
            dataset_faults=self.FAULTS(), fault_seed=3,
        )
        vector, _ = run_survey_period(
            specs, PERIOD, seed=7, workers=4, kernels="vector",
            dataset_faults=self.FAULTS(), fault_seed=3,
        )
        assert canonical_bytes(vector) == canonical_bytes(reference)


class TestDegenerateEquivalence:
    def test_degenerate_dataset_identical(self):
        reference, vector = classify_both(degenerate_dataset())
        assert canonical_bytes(vector) == canonical_bytes(reference)
        # The flat and dead ASes really exercised the degenerate path.
        assert reference.reports[202].severity.value == "none"
        assert reference.reports[200].severity.value == "none"

    def test_single_probe_asn_identical(self):
        reference, vector = classify_both(
            degenerate_dataset(), min_probes=1
        )
        assert canonical_bytes(vector) == canonical_bytes(reference)
        assert 201 in reference.reports

    def test_empty_period_identical(self):
        """A dataset with no probes at all: both backends return an
        empty survey, not an error."""
        empty = LastMileDataset(grid=GRID)
        reference, vector = classify_both(empty)
        assert canonical_bytes(vector) == canonical_bytes(reference)
        assert reference.reports == {}
        assert reference.failures == {}

    def test_quality_ledgers_identical(self):
        ref_quality = DataQualityReport()
        vec_quality = DataQualityReport()
        classify_dataset(
            degenerate_dataset(), PERIOD, kernels="reference",
            quality=ref_quality,
        )
        classify_dataset(
            degenerate_dataset(), PERIOD, kernels="vector",
            quality=vec_quality,
        )
        assert vec_quality.to_dict() == ref_quality.to_dict()

    def test_kept_signals_identical(self):
        reference, vector = classify_both(
            synthetic_dataset(seed=4), keep_signals=True
        )
        assert set(vector.signals) == set(reference.signals)
        for asn, signal in reference.signals.items():
            assert np.array_equal(
                vector.signals[asn].delay_ms, signal.delay_ms,
                equal_nan=True,
            )
            assert np.array_equal(
                vector.signals[asn].contributing, signal.contributing
            )


class TestStageLevelEquivalence:
    def test_aggregate_identical_on_degenerates(self):
        dataset = degenerate_dataset()
        for probe_ids in ([1, 2, 3], [4], [8, 9, 10], [11, 12, 13]):
            a = aggregate_population(
                dataset, probe_ids, kernels="reference"
            )
            b = aggregate_population(
                dataset, probe_ids, kernels="vector"
            )
            assert np.array_equal(
                a.delay_ms, b.delay_ms, equal_nan=True
            )
            assert np.array_equal(a.contributing, b.contributing)

    def test_estimation_identical_on_dirty_traceroutes(self):
        from tests.core.test_lastmile import (
            hop,
            traceroute,
            typical_traceroute,
        )

        grid = TimeGrid(
            MeasurementPeriod("d", dt.datetime(2019, 9, 2), 1)
        )
        results = [
            typical_traceroute(
                timestamp=i * 200.0, public_rtt=3.0 + (i % 7)
            )
            for i in range(120)
        ]
        # NaN timestamp, out-of-period clock, all-NaN public hop.
        results.append(typical_traceroute(timestamp=float("nan")))
        results.append(typical_traceroute(timestamp=-50.0))
        results.append(traceroute([
            hop(1, "192.168.1.1", [0.5] * 3),
            hop(2, "60.0.0.1", [float("nan")] * 3),
        ], timestamp=400.0))

        ref_quality = DataQualityReport()
        vec_quality = DataQualityReport()
        a = estimate_probe_series(
            results, grid, kernels="reference", quality=ref_quality
        )
        b = estimate_probe_series(
            results, grid, kernels="vector", quality=vec_quality
        )
        assert np.array_equal(
            a.median_rtt_ms, b.median_rtt_ms, equal_nan=True
        )
        assert np.array_equal(
            a.traceroute_counts, b.traceroute_counts
        )
        assert vec_quality.to_dict() == ref_quality.to_dict()
