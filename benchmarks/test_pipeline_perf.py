"""E11 — pipeline micro-benchmarks (not a paper figure).

Times the individual stages a deployment of this pipeline would run
continuously: Atlas JSON parsing, boundary detection, last-mile
estimation, longest-prefix matching, Welch classification, and the
binned simulator fast path.
"""

import datetime as dt

import numpy as np
import pytest

from conftest import write_report
from repro.atlas import AtlasPlatform, ProbeVersion, TracerouteResult
from repro.bgp import RoutingTable
from repro.core import (
    classify_signal,
    estimate_probe_series,
    lastmile_samples,
)
from repro.netbase import AccessTechnology, ASInfo, ASRole, IPAddress, Prefix
from repro.timebase import MeasurementPeriod, TimeGrid
from repro.topology import ProvisioningPolicy, World

DAY = MeasurementPeriod("perf-day", dt.datetime(2019, 9, 2), 1)


@pytest.fixture(scope="module")
def one_probe_day():
    """One probe's full-fidelity traceroutes for a day."""
    world = World(seed=3)
    isp = world.add_isp(
        ASInfo(
            64500, "ISP", "JP", ASRole.EYEBALL,
            access_technologies=[AccessTechnology.FTTH_PPPOE_LEGACY],
        ),
        provisioning=ProvisioningPolicy(
            peak_utilization={AccessTechnology.FTTH_PPPOE_LEGACY: 0.95}
        ),
    )
    world.add_default_targets()
    world.finalize()
    platform = AtlasPlatform(world)
    platform.config.outage_rate_per_day = 0.0
    probes = platform.deploy_probes_on_isp(
        isp, 1, version=ProbeVersion.V3
    )
    dataset = platform.run_period(DAY, probes)
    return platform, probes, dataset.for_probe(probes[0].probe_id)


def test_perf_json_roundtrip(benchmark, one_probe_day):
    """Parse throughput of Atlas-schema JSON (dict form)."""
    _platform, _probes, results = one_probe_day
    payload = [r.to_json() for r in results]

    def parse_all():
        return [TracerouteResult.from_json(d) for d in payload]

    parsed = benchmark(parse_all)
    assert len(parsed) == len(results)


def test_perf_lastmile_samples(benchmark, one_probe_day):
    """Boundary detection + pairwise subtraction per traceroute."""
    _platform, _probes, results = one_probe_day

    def extract_all():
        return sum(len(lastmile_samples(r)) for r in results)

    total = benchmark(extract_all)
    assert total > 5 * len(results)


def test_perf_estimation(benchmark, one_probe_day):
    """Full §2.1 per-probe estimation over a day of traceroutes."""
    _platform, probes, results = one_probe_day
    grid = TimeGrid(DAY)

    series = benchmark(
        lambda: estimate_probe_series(results, grid)
    )
    assert series.valid_mask().sum() > 40


def test_perf_estimation_backends(one_probe_day):
    """The estimator's flat scan vs the per-traceroute loop it
    replaced, recorded into the BENCH_kernels.json perf trajectory
    alongside the kernel benches.  The reference row runs that loop —
    kept as the scan oracle in ``tests/kernels/test_flat_pass.py``,
    with the per-traceroute sampler of ``tests/core/lastmile_oracle.py``
    — plus the reference kernel's per-bin medians; the vector row is
    ``estimate_probe_series`` as the pipeline runs it."""
    import time

    from conftest import record_kernel_bench
    from repro.core.kernels.flat import bin_medians
    from repro.core.kernels.reference import REFERENCE
    from tests.core.lastmile_oracle import lastmile_samples
    from tests.kernels.test_flat_pass import _scan_results

    _platform, _probes, results = one_probe_day
    grid = TimeGrid(DAY)

    def per_traceroute_reference():
        counts = np.zeros(grid.num_bins, dtype=np.int64)
        _, _, bins, lists = _scan_results(
            results, grid, None, lastmile_samples, None, counts
        )
        keys = np.repeat(np.asarray(bins, dtype=np.int64),
                         [len(samples) for samples in lists])
        values = np.fromiter(
            (value for samples in lists for value in samples),
            dtype=np.float64, count=len(keys),
        )
        medians, _ = bin_medians(keys, values, counts, 3, REFERENCE)
        return medians, counts

    reference, reference_counts = per_traceroute_reference()
    vector = estimate_probe_series(results, grid)
    assert np.array_equal(
        reference, vector.median_rtt_ms, equal_nan=True
    )
    assert np.array_equal(reference_counts, vector.traceroute_counts)

    def best_of(fn, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    reference_s = best_of(per_traceroute_reference)
    vector_s = best_of(lambda: estimate_probe_series(results, grid))
    speedup = record_kernel_bench(
        "estimate-probe-series", reference_s, vector_s
    )
    write_report(
        "kernels_estimate_probe_series",
        f"1 probe x {DAY.days} day ({len(results)} traceroutes)\n"
        f"reference: {reference_s * 1e3:.2f} ms\n"
        f"vector:    {vector_s * 1e3:.2f} ms\n"
        f"speedup:   {speedup:.2f}x",
    )
    # The flat scan (memoized hop classification + one vectorized
    # pairwise-subtraction pass) must actually beat the per-hop
    # reference loop, not tie it.
    assert speedup > 2.0, (
        f"estimate-probe-series flat scan regressed to "
        f"{speedup:.2f}x (bar: 2x)"
    )


def test_perf_lpm(benchmark):
    """Longest-prefix-match rate on a realistic-size RIB."""
    rng = np.random.default_rng(0)
    table = RoutingTable()
    for i in range(20_000):
        addr = int(rng.integers(0, 2**32))
        length = int(rng.integers(8, 25))
        prefix = Prefix.containing(IPAddress(4, addr), length)
        table.announce_prefix(prefix, 64500 + i % 1000)
    queries = rng.integers(0, 2**32, size=5_000)

    def lookup_all():
        return sum(
            1 for q in queries if table.resolve_asn(int(q), 4) is not None
        )

    hits = benchmark(lookup_all)
    assert 0 < hits <= len(queries)


def test_perf_welch_classification(benchmark):
    """Classification of one 15-day aggregated signal."""
    rng = np.random.default_rng(1)
    t = np.arange(720) / 48.0
    signal = 1.2 * (1 + np.sin(2 * np.pi * t)) + rng.normal(0, 0.1, 720)

    result = benchmark(lambda: classify_signal(signal, 1800))
    assert result.severity.is_reported


def test_perf_binned_fast_path(benchmark, one_probe_day):
    """The binned simulator fast path, per probe-day."""
    platform, probes, _results = one_probe_day

    dataset = benchmark.pedantic(
        lambda: platform.run_period_binned(DAY, probes),
        rounds=5, iterations=1,
    )
    assert len(dataset) == 1
    write_report(
        "pipeline_perf",
        "micro-benchmarks recorded by pytest-benchmark; see the "
        "--benchmark-only table in bench_output.txt",
    )


@pytest.fixture(scope="module")
def survey_dataset():
    """A ~20-AS binned dataset for the observability overhead guard."""
    from repro.atlas import ProbeMeta
    from repro.core import LastMileDataset, ProbeBinSeries

    period = MeasurementPeriod("perf-obs", dt.datetime(2019, 9, 1), 15)
    grid = TimeGrid(period)
    rng = np.random.default_rng(0)
    dataset = LastMileDataset(grid=grid)
    t = np.arange(grid.num_bins) / grid.bins_per_day
    prb_id = 1
    for asn in range(100, 120):
        for _ in range(4):
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
    return period, dataset


def test_perf_observability_overhead(survey_dataset):
    """Full tracing + metrics must stay within 10 % of the no-op path.

    Spans and counters sit at stage/AS granularity — never inside
    per-record loops — so a fully observed classification run should
    be nearly indistinguishable from the default NOOP-observer run.
    Min-of-N timing keeps the guard robust to scheduler noise; a small
    absolute allowance covers the sub-millisecond fixed cost of
    building the registry and span tree.
    """
    import time

    from repro.core import classify_dataset
    from repro.obs import observed

    period, dataset = survey_dataset

    def run_once():
        return classify_dataset(dataset, period)

    def best_of(fn, repeats=7):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    run_once()  # warm caches before timing either path

    baseline = best_of(run_once)

    def run_observed():
        with observed():
            return classify_dataset(dataset, period)

    instrumented = best_of(run_observed)

    overhead = instrumented / baseline - 1.0
    write_report(
        "observability_overhead",
        f"no-op observer best: {baseline * 1e3:.2f} ms\n"
        f"full observer best:  {instrumented * 1e3:.2f} ms\n"
        f"relative overhead:   {overhead * 100:+.2f} %",
    )
    assert instrumented <= baseline * 1.10 + 0.002, (
        f"observability overhead {overhead * 100:+.1f}% exceeds the "
        "10% budget"
    )


# -- parallel executor & cache (E12) ---------------------------------------


def _survey_inputs(num_ases=32, days=7):
    from repro.scenarios import generate_specs

    specs = generate_specs(num_ases=num_ases, num_countries=12, seed=11)
    period = MeasurementPeriod(
        "perf-parallel", dt.datetime(2019, 9, 2), days
    )
    return specs, period


def test_perf_parallel_speedup():
    """Pooled in-process and sharded wall-clock against one simulate
    thread.

    An in-process survey simulates its probes on one thread per CPU,
    so it is no longer a one-core baseline.  The baseline is the
    survey's work done through public calls on one thread: build the
    world, ``run_period_binned(..., threads=1)``, ``classify_dataset``.
    Both the in-process survey and ``workers=4`` must beat it ≥2×, a
    bar that only engages on machines with ≥4 usable cores — on
    smaller runners (CI containers are often 1–2 vCPUs) no such
    speedup is physically possible, so the measurements are still
    recorded but the bar is skipped.
    """
    import time

    from repro.atlas.platform import usable_cpus
    from repro.core import classify_dataset
    from repro.io import survey_to_dict
    from repro.scenarios import build_survey_world, run_survey_period

    specs, period = _survey_inputs()

    def one_thread_survey():
        world, platform = build_survey_world(
            specs, seed=7, period_name=period.name,
        )
        dataset = platform.run_period_binned(period, threads=1)
        return classify_dataset(
            dataset, period, min_probes=3, table=world.table,
        )

    def timed(run):
        start = time.perf_counter()
        result = run()
        return result, time.perf_counter() - start

    one_thread, one_thread_s = timed(one_thread_survey)
    pooled, pooled_s = timed(
        lambda: run_survey_period(specs, period, seed=7)[0]
    )
    sharded, sharded_s = timed(
        lambda: run_survey_period(specs, period, seed=7, workers=4)[0]
    )

    pooled_speedup = one_thread_s / pooled_s
    sharded_speedup = one_thread_s / sharded_s
    cores = usable_cpus()
    write_report(
        "parallel_speedup",
        f"world survey, {len(specs)} ASes x {period.days} days, "
        f"{cores} cores\n"
        f"one simulate thread:             {one_thread_s:.2f} s\n"
        f"in process, pooled simulate:     {pooled_s:.2f} s "
        f"({pooled_speedup:.2f}x)\n"
        f"workers=4:                       {sharded_s:.2f} s "
        f"({sharded_speedup:.2f}x)",
    )
    expected = survey_to_dict(one_thread)
    assert survey_to_dict(pooled) == expected
    assert survey_to_dict(sharded) == expected
    if cores < 4:
        pytest.skip(
            f"{cores} core(s): 4-way speedup not measurable "
            f"(recorded pooled {pooled_speedup:.2f}x, "
            f"workers=4 {sharded_speedup:.2f}x)"
        )
    assert pooled_speedup >= 2.0, (
        f"in-process speedup {pooled_speedup:.2f}x below the 2x bar"
    )
    assert sharded_speedup >= 2.0, (
        f"workers=4 speedup {sharded_speedup:.2f}x below the 2x bar"
    )


def test_perf_cache_warm_rerun(tmp_path):
    """Warm-cache re-run cost, and single-AS invalidation.

    A warm re-run serves every AS from the cache; touching one AS's
    spec must invalidate exactly that AS's entry.
    """
    import copy
    import time

    from repro.io import survey_to_dict
    from repro.parallel import ResultCache
    from repro.scenarios import run_survey_period

    specs, period = _survey_inputs()
    cache = ResultCache(tmp_path / "cache")

    start = time.perf_counter()
    cold, _ = run_survey_period(specs, period, seed=7, cache=cache)
    cold_s = time.perf_counter() - start
    assert cache.stats.hits == 0
    assert cache.stats.writes == len(cold.reports)

    start = time.perf_counter()
    warm, _ = run_survey_period(specs, period, seed=7, cache=cache)
    warm_s = time.perf_counter() - start
    assert cache.stats.hits == len(warm.reports)
    assert survey_to_dict(warm) == survey_to_dict(cold)

    modified = copy.deepcopy(specs)
    modified[3].peak_utilization = min(
        0.993, modified[3].peak_utilization + 0.01
    )
    before = cache.stats.as_dict()
    run_survey_period(modified, period, seed=7, cache=cache)
    delta_misses = cache.stats.misses - before["misses"]
    delta_hits = cache.stats.hits - before["hits"]

    write_report(
        "cache_warm_rerun",
        f"world survey, {len(specs)} ASes x {period.days} days\n"
        f"cold run:  {cold_s:.2f} s ({cache.stats.writes} entries "
        "written)\n"
        f"warm run:  {warm_s:.2f} s "
        f"({len(warm.reports)} hits, speedup "
        f"{cold_s / warm_s if warm_s > 0 else float('inf'):.1f}x)\n"
        f"one AS modified: {delta_misses} recomputed, "
        f"{delta_hits} served warm",
    )
    assert warm_s < cold_s
    assert delta_misses == 1, (
        f"one modified AS must recompute exactly 1 entry, "
        f"got {delta_misses}"
    )
    assert delta_hits == len(specs) - 1
