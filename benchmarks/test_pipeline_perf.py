"""E11 — pipeline benchmarks for what no end-to-end workload runs.

``benchmarks/e2e`` times every layer its workloads run (survey,
classify, stream, serve), so the speed of those layers is checked
there.  What stays here is what none of them runs, each fed
paper-scale input:

* Atlas JSON parsing, boundary detection and longest-prefix matching
  (pytest-benchmark timings, no bar);
* the §2.1 estimator over raw traceroutes, against the
  per-traceroute loop it replaced (>= 2x over one probe's 15 days);
* the cost of a fully observed ``classify_dataset`` against the no-op
  observer (<= 10 % on a 646-AS, 3,329-probe, 15-day period);
* the content-addressed cache's warm re-run of a 646-AS survey.

Each bar writes its report under ``benchmarks/reports/``.
"""

import datetime as dt
import statistics
import time

import numpy as np
import pytest

from conftest import write_report
from repro.atlas import AtlasPlatform, ProbeVersion, TracerouteResult
from repro.bgp import RoutingTable
from repro.core import estimate_probe_series, lastmile_samples
from repro.netbase import AccessTechnology, ASInfo, ASRole, IPAddress, Prefix
from repro.timebase import MeasurementPeriod, TimeGrid
from repro.topology import ProvisioningPolicy, World

DAY = MeasurementPeriod("perf-day", dt.datetime(2019, 9, 2), 1)
#: A survey period's length (the paper's periods span 15 days).
PERIOD = MeasurementPeriod("perf-period", dt.datetime(2019, 9, 1), 15)


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def best_of(fn, repeats=5):
    return min(timed(fn) for _ in range(repeats))


def _simulate_one_probe(period):
    """One probe's full-fidelity traceroutes over ``period``."""
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
    dataset = platform.run_period(period, probes)
    return platform, probes, dataset.for_probe(probes[0].probe_id)


@pytest.fixture(scope="module")
def one_probe_day():
    """One probe's full-fidelity traceroutes for a day."""
    return _simulate_one_probe(DAY)


@pytest.fixture(scope="module")
def one_probe_period():
    """One probe's full-fidelity traceroutes for a survey period."""
    return _simulate_one_probe(PERIOD)[2]


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


def test_perf_estimation_backends(one_probe_period):
    """The estimator's flat scan vs the per-traceroute loop it
    replaced, over one probe's survey period.  The reference runs
    that loop — kept as the scan oracle in
    ``tests/kernels/test_flat_pass.py``, with the per-traceroute
    sampler of ``tests/core/lastmile_oracle.py`` — plus the reference
    kernel's per-bin medians; the vector side is
    ``estimate_probe_series`` as the pipeline runs it."""
    from repro.core.kernels.flat import bin_medians
    from repro.core.kernels.reference import REFERENCE
    from tests.core.lastmile_oracle import lastmile_samples
    from tests.kernels.test_flat_pass import _scan_results

    results = one_probe_period
    grid = TimeGrid(PERIOD)

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

    reference_s = best_of(per_traceroute_reference)
    vector_s = best_of(lambda: estimate_probe_series(results, grid))
    speedup = reference_s / vector_s
    write_report(
        "kernels_estimate_probe_series",
        f"1 probe x {PERIOD.days} days ({len(results)} traceroutes)\n"
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


#: The paper's survey layout: 646 ASes in 98 countries.  Seed 101
#: draws 3,329 probes, the size of the e2e ``classify`` fleet.
PAPER_ASES, PAPER_COUNTRIES, PAPER_SEED = 646, 98, 101


@pytest.fixture(scope="module")
def paper_specs():
    from repro.scenarios import generate_specs

    return generate_specs(
        num_ases=PAPER_ASES, num_countries=PAPER_COUNTRIES,
        seed=PAPER_SEED,
    )


@pytest.fixture(scope="module")
def survey_dataset(paper_specs):
    """A binned period of the paper's shape: every AS of the paper
    layout with its drawn probe count, 15 days of daily-cycle medians
    per probe."""
    from repro.atlas import ProbeMeta
    from repro.core import LastMileDataset, ProbeBinSeries

    grid = TimeGrid(PERIOD)
    rng = np.random.default_rng(0)
    dataset = LastMileDataset(grid=grid)
    t = np.arange(grid.num_bins) / grid.bins_per_day
    prb_id = 1
    for spec in paper_specs:
        amplitude = rng.uniform(0.0, 2.5)
        for _ in range(spec.probe_count):
            medians = (
                rng.uniform(1.0, 3.0)
                + rng.normal(0, 0.05, grid.num_bins)
                + amplitude * (1 + np.sin(2 * np.pi * t))
            )
            dataset.add(
                ProbeBinSeries(
                    prb_id=prb_id,
                    median_rtt_ms=medians,
                    traceroute_counts=np.full(grid.num_bins, 24),
                ),
                meta=ProbeMeta(
                    prb_id=prb_id, asn=spec.asn, is_anchor=False,
                    public_address="20.0.0.1",
                ),
            )
            prb_id += 1
    return dataset


def test_perf_observability_overhead(survey_dataset):
    """Full tracing + metrics must stay within 10 % of the no-op path.

    Spans and counters sit at stage/AS granularity — never inside
    per-record loops — so a fully observed classification run should
    be nearly indistinguishable from the default NOOP-observer run.
    The paths are timed in adjacent pairs, so a slow spell of the
    machine reaches both runs of a pair; each pair alternates which
    runs first, and the guard reads the median pair's ratio.
    """
    from repro.core import classify_dataset
    from repro.obs import observed

    dataset = survey_dataset

    def run_once():
        return classify_dataset(dataset, PERIOD)

    def run_observed():
        with observed():
            return classify_dataset(dataset, PERIOD)

    run_once()  # warm caches before timing either path
    baselines, observed_runs = [], []
    for pair in range(15):
        if pair % 2:
            observed_runs.append(timed(run_observed))
            baselines.append(timed(run_once))
        else:
            baselines.append(timed(run_once))
            observed_runs.append(timed(run_observed))

    ratios = [o / b for o, b in zip(observed_runs, baselines)]
    overhead = statistics.median(ratios) - 1.0
    low, _, high = statistics.quantiles(ratios, n=4)
    write_report(
        "observability_overhead",
        f"{len(dataset.probe_meta)} probes of {PAPER_ASES} ASes x "
        f"{PERIOD.days} days, {len(ratios)} alternating pairs\n"
        f"no-op observer best: {min(baselines) * 1e3:.2f} ms\n"
        f"full observer best:  {min(observed_runs) * 1e3:.2f} ms\n"
        f"relative overhead:   {overhead * 100:+.2f} % (median pair; "
        f"quartiles {(low - 1) * 100:+.2f} / {(high - 1) * 100:+.2f} %)",
    )
    assert overhead <= 0.10, (
        f"observability overhead {overhead * 100:+.1f}% exceeds the "
        "10% budget"
    )


# -- result cache (E12) -----------------------------------------------------


def test_perf_cache_warm_rerun(tmp_path, paper_specs):
    """Warm-cache re-run cost, and single-AS invalidation.

    A warm re-run of a 646-AS survey period serves every AS from the
    cache; touching one AS's spec must invalidate exactly that AS's
    entry.
    """
    import copy

    from repro.io import survey_to_dict
    from repro.parallel import ResultCache
    from repro.scenarios import run_survey_period

    specs, period = paper_specs, PERIOD
    cache = ResultCache(tmp_path / "cache")
    start = time.perf_counter()
    cold, _ = run_survey_period(specs, period, seed=7, cache=cache)
    cold_s = time.perf_counter() - start
    assert cache.stats.hits == 0
    cold_writes = cache.stats.writes
    assert cold_writes == len(cold.reports)

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
        f"cold run:  {cold_s:.2f} s ({cold_writes} entries written)\n"
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
