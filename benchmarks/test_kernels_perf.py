"""E13 — kernel backend benchmarks (not a paper figure).

Times the reference loops against the vectorized kernels on each
kernel operation at survey scale (200 probes x 7 days), through the
same contract calls the pipeline makes, and writes the results as
machine-readable ``BENCH_kernels.json`` at the repo root::

    [{"stage": ..., "backend": ..., "wall_ms": ..., "speedup": ...}]

``speedup`` on a vector row is reference-wall / vector-wall for the
same stage (reference rows carry 1.0).  The binning+median stage must
clear the 3x bar that justified the vector backend.
"""

import datetime as dt
import time

import numpy as np
import pytest

from conftest import BENCH_KERNELS_JSON, record_kernel_bench, write_report
from repro.core import LastMileDataset, ProbeBinSeries, classify_dataset
from repro.core.kernels.flat import bin_medians
from repro.core.kernels.reference import REFERENCE
from repro.core.kernels.vector import VECTOR
from repro.io import survey_to_dict
from repro.timebase import MeasurementPeriod, TimeGrid

NUM_PROBES = 200
PERIOD = MeasurementPeriod("perf-kernels", dt.datetime(2019, 9, 2), 7)
GRID = TimeGrid(PERIOD)
TRACEROUTES_PER_BIN = 3
SAMPLES_PER_TRACEROUTE = 9


def best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def scanned_samples():
    """Flat ``(probe * num_bins + bin, sample)`` arrays plus the
    (probe x bin) traceroute counts — the exact input the estimator
    hands ``bin_medians`` after the shared scan, at 200 probes x
    7 days x 3 traceroutes/bin x 9 samples."""
    rng = np.random.default_rng(0)
    per_probe = NUM_PROBES * GRID.num_bins * TRACEROUTES_PER_BIN
    keys = np.repeat(
        np.arange(NUM_PROBES * GRID.num_bins, dtype=np.int64),
        TRACEROUTES_PER_BIN * SAMPLES_PER_TRACEROUTE,
    )
    values = rng.normal(3.0, 0.5, per_probe * SAMPLES_PER_TRACEROUTE)
    counts = np.full(
        (NUM_PROBES, GRID.num_bins), TRACEROUTES_PER_BIN, dtype=np.int64
    )
    return keys, values, counts


@pytest.fixture(scope="module")
def binned_dataset():
    """A 200-probe binned dataset with realistic NaN gaps."""
    rng = np.random.default_rng(1)
    dataset = LastMileDataset(grid=GRID)
    t = np.arange(GRID.num_bins) / GRID.bins_per_day
    for prb_id in range(NUM_PROBES):
        medians = (
            rng.uniform(1.0, 3.0)
            + rng.normal(0, 0.05, GRID.num_bins)
            + rng.uniform(0.0, 2.0) * (1 + np.sin(2 * np.pi * t))
        )
        counts = np.full(GRID.num_bins, 24)
        gap = rng.integers(0, GRID.num_bins - 8)
        counts[gap:gap + 8] = 0
        dataset.add(ProbeBinSeries(
            prb_id=prb_id,
            median_rtt_ms=np.where(counts > 0, medians, np.nan),
            traceroute_counts=counts,
        ))
    return dataset


def test_perf_bin_medians_3x(scanned_samples):
    """Binning + grouped median, the pipeline's hottest loop: the
    vector backend's ``group_medians`` (one grouped-median sort over
    the whole dataset) must be at least 3x faster than the reference
    backend's per-bin ``numpy.median`` calls, both behind the same
    ``bin_medians`` mask."""
    keys, values, counts = scanned_samples

    def run(kernels):
        return bin_medians(keys, values, counts, 3, kernels)

    # Equivalence first, so the timings compare equal outputs.
    ref_medians, ref_estimated = run(REFERENCE)
    vec_medians, vec_estimated = run(VECTOR)
    assert np.array_equal(vec_medians, ref_medians, equal_nan=True)
    assert np.array_equal(vec_estimated, ref_estimated)

    reference_s = best_of(lambda: run(REFERENCE), repeats=3)
    vector_s = best_of(lambda: run(VECTOR))
    speedup = record_kernel_bench("bin-medians", reference_s, vector_s)
    write_report(
        "kernels_bin_medians",
        f"{NUM_PROBES} probes x {PERIOD.days} days "
        f"({GRID.num_bins} bins, {TRACEROUTES_PER_BIN} traceroutes/"
        f"bin x {SAMPLES_PER_TRACEROUTE} samples)\n"
        f"reference: {reference_s * 1e3:.1f} ms\n"
        f"vector:    {vector_s * 1e3:.1f} ms\n"
        f"speedup:   {speedup:.2f}x",
    )
    assert speedup >= 3.0, (
        f"vector binning+median speedup {speedup:.2f}x below the "
        "3x bar"
    )


def test_perf_markers_batch(binned_dataset):
    """Welch marker extraction: one batched call vs per-signal FFTs."""
    rng = np.random.default_rng(2)
    t = np.arange(GRID.num_bins) / GRID.bins_per_day
    signals = [
        rng.uniform(0.2, 2.5) * (1 + np.sin(2 * np.pi * t))
        + rng.normal(0, 0.05, GRID.num_bins)
        for _ in range(100)
    ]

    assert (
        VECTOR.markers_batch(signals, GRID.bin_seconds)
        == REFERENCE.markers_batch(signals, GRID.bin_seconds)
    )

    reference_s = best_of(
        lambda: REFERENCE.markers_batch(signals, GRID.bin_seconds)
    )
    vector_s = best_of(
        lambda: VECTOR.markers_batch(signals, GRID.bin_seconds)
    )
    speedup = record_kernel_bench("markers-batch", reference_s, vector_s)
    write_report(
        "kernels_markers_batch",
        f"{len(signals)} signals x {GRID.num_bins} bins\n"
        f"reference: {reference_s * 1e3:.2f} ms\n"
        f"vector:    {vector_s * 1e3:.2f} ms\n"
        f"speedup:   {speedup:.2f}x",
    )
    assert speedup > 0


def test_perf_classify_dataset_end_to_end():
    """Whole classify_dataset wall-clock, both backends."""
    rng = np.random.default_rng(3)
    from repro.atlas import ProbeMeta

    dataset = LastMileDataset(grid=GRID)
    t = np.arange(GRID.num_bins) / GRID.bins_per_day
    prb_id = 1
    for asn in range(100, 150):
        amplitude = rng.uniform(0.0, 2.5)
        for _ in range(4):
            medians = (
                rng.uniform(1.0, 3.0)
                + rng.normal(0, 0.05, GRID.num_bins)
                + amplitude * (1 + np.sin(2 * np.pi * t))
            )
            dataset.add(
                ProbeBinSeries(
                    prb_id=prb_id, median_rtt_ms=medians,
                    traceroute_counts=np.full(GRID.num_bins, 24),
                ),
                meta=ProbeMeta(
                    prb_id=prb_id, asn=asn, is_anchor=False,
                    public_address="20.0.0.1",
                ),
            )
            prb_id += 1

    reference = classify_dataset(dataset, PERIOD, kernels="reference")
    vector = classify_dataset(dataset, PERIOD, kernels="vector")
    assert survey_to_dict(vector) == survey_to_dict(reference)

    reference_s = best_of(lambda: classify_dataset(
        dataset, PERIOD, kernels="reference"
    ), repeats=3)
    vector_s = best_of(lambda: classify_dataset(
        dataset, PERIOD, kernels="vector"
    ), repeats=3)
    speedup = record_kernel_bench(
        "classify-dataset", reference_s, vector_s
    )
    write_report(
        "kernels_classify_dataset",
        f"50 ASes x 4 probes x {PERIOD.days} days\n"
        f"reference: {reference_s * 1e3:.1f} ms\n"
        f"vector:    {vector_s * 1e3:.1f} ms\n"
        f"speedup:   {speedup:.2f}x\n"
        f"wrote {BENCH_KERNELS_JSON}",
    )
    assert BENCH_KERNELS_JSON.exists()
    # Both backends share the orchestration; the vector kernels
    # replace one nanmedian and one Welch run per AS with one cube
    # sort and one batched Welch call per chunk, and must stay 4x
    # faster end to end.
    assert speedup >= 4.0, (
        f"classify-dataset flat pass regressed to {speedup:.2f}x "
        "(bar: 4x)"
    )
