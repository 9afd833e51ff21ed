"""E14 — anomaly-pipeline benchmarks (not a paper figure).

No end-to-end benchmark workload runs ``repro anomaly``, so its speed
is checked here.  Times the per-link differential-median stage — the
anomaly detector's hottest loop — on both kernel backends at survey
scale (400 links x 7 days x 3 traceroutes/bin x 9 differential
samples), and the whole detector on a simulated campaign.  Each bench
writes its report under ``benchmarks/reports/``.

The vector backend reuses the last-mile grouped-median kernel on
link-shaped rows, and must clear the same 3x bar that justified it.
"""

import datetime as dt
import time

import numpy as np
import pytest

from conftest import write_report
from repro.anomaly import (
    LinkObservations,
    detect_anomalies,
    link_bin_medians,
    link_id,
)
from repro.core.kernels.reference import REFERENCE
from repro.core.kernels.vector import VECTOR
from repro.timebase import MeasurementPeriod, TimeGrid

NUM_LINKS = 400
PERIOD = MeasurementPeriod("perf-anomaly", dt.datetime(2019, 9, 2), 7)
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
def observations():
    """Survey-scale per-link differential samples, pre-scanned."""
    rng = np.random.default_rng(0)
    drawn = {}
    for i in range(NUM_LINKS):
        key = (f"10.{i // 250}.{i % 250}.1", f"10.{i // 250}.{i % 250}.2")
        base = rng.uniform(0.5, 4.0)
        drawn[key] = [
            rng.normal(
                base, 0.4,
                TRACEROUTES_PER_BIN * SAMPLES_PER_TRACEROUTE,
            )
            for _bin in range(GRID.num_bins)
        ]
    links = sorted(drawn, key=lambda key: link_id(*key))
    per_link = TRACEROUTES_PER_BIN * SAMPLES_PER_TRACEROUTE
    return LinkObservations(
        grid=GRID,
        processed=NUM_LINKS * GRID.num_bins * TRACEROUTES_PER_BIN,
        links=links,
        counts=np.full(
            (NUM_LINKS, GRID.num_bins), TRACEROUTES_PER_BIN,
            dtype=np.int64,
        ),
        keys=np.repeat(
            np.arange(NUM_LINKS * GRID.num_bins, dtype=np.int64),
            per_link,
        ),
        values=np.concatenate([
            samples for key in links for samples in drawn[key]
        ]),
        next_hops={},
    )


def test_perf_link_medians_3x(observations):
    """Grouped differential medians over every (link, bin) cell: the
    single-lexsort vector pass must beat the per-link reference loop
    by at least 3x — the bar that justified routing the anomaly
    pipeline through the shared kernels."""
    ref_ids, ref_medians, ref_counts = link_bin_medians(
        observations, kernels=REFERENCE
    )
    vec_ids, vec_medians, vec_counts = link_bin_medians(
        observations, kernels=VECTOR
    )
    # Equivalence first, so the timings compare equal outputs.
    assert ref_ids == vec_ids
    assert np.array_equal(ref_medians, vec_medians, equal_nan=True)
    assert np.array_equal(ref_counts, vec_counts)

    reference_s = best_of(
        lambda: link_bin_medians(observations, kernels=REFERENCE)
    )
    vector_s = best_of(
        lambda: link_bin_medians(observations, kernels=VECTOR)
    )
    speedup = reference_s / vector_s if vector_s > 0 else float("inf")
    write_report(
        "anomaly_link_medians",
        f"{NUM_LINKS} links x {PERIOD.days} days "
        f"({GRID.num_bins} bins, {TRACEROUTES_PER_BIN} traceroutes/"
        f"bin x {SAMPLES_PER_TRACEROUTE} samples)\n"
        f"reference: {reference_s * 1e3:.1f} ms\n"
        f"vector:    {vector_s * 1e3:.1f} ms\n"
        f"speedup:   {speedup:.2f}x",
    )
    assert speedup >= 3.0, (
        f"vector link-median speedup {speedup:.2f}x below the 3x bar"
    )


def test_perf_detect_end_to_end():
    """Whole-detector wall clock on a simulated world — no bar, just
    the number the report records."""
    from repro.atlas import AtlasPlatform
    from repro.netbase import AccessTechnology, ASInfo, ASRole
    from repro.topology import ProvisioningPolicy, World

    world = World(seed=11)
    isp = world.add_isp(
        ASInfo(
            64500, "SimNet", "JP", ASRole.EYEBALL,
            access_technologies=[AccessTechnology.FTTH_PPPOE_LEGACY],
        ),
        provisioning=ProvisioningPolicy(
            peak_utilization={
                AccessTechnology.FTTH_PPPOE_LEGACY: 0.7
            },
            device_spread=0.01,
            load_jitter_std=0.008,
        ),
    )
    world.add_default_targets()
    world.finalize()
    platform = AtlasPlatform(world)
    deployed = platform.deploy_probes_on_isp(isp, 4)
    period = MeasurementPeriod("perf-detect", dt.datetime(2019, 9, 2), 3)
    dataset = platform.run_period(period, deployed)
    grid = TimeGrid(period, 1800)

    start = time.perf_counter()
    report = detect_anomalies(
        dataset.results, grid, period_name="perf-detect"
    )
    wall_s = time.perf_counter() - start
    assert report.payload["links_total"] > 0
    write_report(
        "anomaly_detect",
        f"{report.payload['links_total']} links, 4 probes x 3 days\n"
        f"detect wall: {wall_s * 1e3:.0f} ms",
    )
