"""Thread-count invariance of the binned simulator.

``AtlasPlatform.run_period_binned`` simulates a period's probes on a
thread pool, each thread drawing into its own reused scratch buffers.
Every probe draws from its own stream, so the dataset must be the same
bytes whatever the pool size: here the default pool, an oversubscribed
one and the one-thread pool that shard workers use are compared
field by field, series order included.  It must also be the same
bytes whatever other probes run: the survey simulates only the ASes
it classifies.
"""

import datetime as dt
import sys

import numpy as np
import pytest

from repro.atlas import AtlasPlatform, ProbeVersion
from repro.atlas import platform as platform_module
from repro.netbase import AccessTechnology, ASInfo, ASRole
from repro.obs import Observability, observed
from repro.parallel.worker import SurveyShardTask, run_survey_shard
from repro.queueing import LinkModel
from repro.queueing.models import sample_mm1_waits
from repro.scenarios.worldsurvey import build_survey_world, generate_specs
from repro.timebase import MeasurementPeriod
from repro.topology import ProvisioningPolicy, World

PERIOD = MeasurementPeriod("threads", dt.datetime(2019, 9, 2), 4)


@pytest.fixture(scope="module")
def fleet():
    """A dual-stack fleet with every branch of the fast path in it."""
    world = World(seed=31)
    isp = world.add_isp(
        ASInfo(
            64520, "Fleet", "JP", ASRole.EYEBALL,
            access_technologies=[AccessTechnology.FTTH_PPPOE_LEGACY],
        ),
        provisioning=ProvisioningPolicy(
            peak_utilization={
                AccessTechnology.FTTH_PPPOE_LEGACY: 0.97,
                AccessTechnology.FTTH_IPOE_LEGACY: 0.6,
            },
        ),
        ipv6_technology=AccessTechnology.FTTH_IPOE_LEGACY,
    )
    world.add_default_targets()
    world.finalize()
    platform = AtlasPlatform(world)
    platform.config.outage_rate_per_day = 0.5
    platform.config.reconnect_rate_per_day = 1.0
    for version in (ProbeVersion.V1, ProbeVersion.V2, ProbeVersion.V3):
        platform.deploy_probes_on_isp(isp, 3, version=version)
    platform.deploy_anchor(isp)
    platform.deploy_anchor(isp)
    return platform


def assert_same_dataset(got, want):
    assert list(got.series) == list(want.series)
    assert list(got.probe_meta) == list(want.probe_meta)
    assert got.probe_meta == want.probe_meta
    for prb_id, series in want.series.items():
        other = got.series[prb_id]
        assert (
            other.median_rtt_ms.tobytes() == series.median_rtt_ms.tobytes()
        ), f"probe {prb_id} medians differ"
        assert (
            other.traceroute_counts.tobytes()
            == series.traceroute_counts.tobytes()
        ), f"probe {prb_id} counts differ"


class TestThreadInvariance:
    @pytest.mark.parametrize("af", [4, 6])
    def test_pool_sizes_agree(self, fleet, af):
        one = fleet.run_period_binned(PERIOD, af=af, threads=1)
        assert len(one) >= 9
        # The fleet really exercises every branch of the fast path.
        probes = fleet.probes
        assert any(p.is_anchor for p in probes)
        assert any(p.reconnects for p in probes)
        assert any(p.interference for p in probes)
        assert any(p.outages for p in probes)
        assert_same_dataset(fleet.run_period_binned(PERIOD, af=af), one)
        # More threads than cores, switching as often as possible.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            crowded = fleet.run_period_binned(PERIOD, af=af, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert_same_dataset(crowded, one)

    def test_reversed_probe_order(self, fleet):
        forward = fleet.run_period_binned(PERIOD, threads=1)
        backward = fleet.run_period_binned(
            PERIOD, probes=fleet.probes[::-1], threads=3
        )
        # The series come back in input order ...
        assert list(backward.series) == list(forward.series)[::-1]
        # ... with the same bytes per probe.
        for prb_id, series in forward.series.items():
            assert (
                backward.series[prb_id].median_rtt_ms.tobytes()
                == series.median_rtt_ms.tobytes()
            )

    def test_periods_in_turn(self, fleet):
        # Scratch is sized per call: a shorter period in between
        # leaves the longer one's bytes alone.
        short = MeasurementPeriod("threads-short", dt.datetime(2019, 9, 2), 1)
        first = fleet.run_period_binned(PERIOD, threads=2)
        fleet.run_period_binned(short, threads=2)
        assert_same_dataset(fleet.run_period_binned(PERIOD, threads=2), first)

    def test_shard_worker_simulates_on_one_thread(self):
        specs = generate_specs(4, 2, seed=101)
        world, platform = build_survey_world(
            specs, lockdown=False, seed=101, period_name=PERIOD.name,
        )
        groups = {}
        for probe in platform.probes:
            groups.setdefault(probe.asn, []).append(probe.probe_id)
        task = SurveyShardTask(
            index=0, specs=specs, period=PERIOD, lockdown=False,
            seed=101, groups=groups, capture_telemetry=True,
        )
        result = run_survey_shard(task)
        spans = [
            span
            for root in result.telemetry.spans
            for span in _walk(root)
            if span["name"] == "simulate"
        ]
        assert [span["attrs"]["threads"] for span in spans] == [1]
        pooled = platform.run_period_binned(PERIOD)
        alone = platform.run_period_binned(PERIOD, threads=1)
        assert_same_dataset(pooled, alone)

    def test_subset_matches_full_run(self):
        # A fresh world simulating only some probes (what the survey
        # does for the ASes it must classify) gives each of them the
        # bytes a full run gives it.
        specs = generate_specs(5, 2, seed=202)

        def fresh_platform():
            return build_survey_world(
                specs, lockdown=False, seed=202, period_name=PERIOD.name,
            )[1]

        full = fresh_platform().run_period_binned(PERIOD)
        platform = fresh_platform()
        subset = platform.probes[1::3]
        assert 0 < len(subset) < len(platform.probes)
        sliced = platform.run_period_binned(PERIOD, probes=subset)
        assert list(sliced.series) == [p.probe_id for p in subset]
        for prb_id, series in sliced.series.items():
            want = full.series[prb_id]
            assert (
                series.median_rtt_ms.tobytes()
                == want.median_rtt_ms.tobytes()
            ), f"probe {prb_id} medians differ"
            assert (
                series.traceroute_counts.tobytes()
                == want.traceroute_counts.tobytes()
            ), f"probe {prb_id} counts differ"
            assert sliced.probe_meta[prb_id] == full.probe_meta[prb_id]

    def test_survey_matches_one_thread_shards(self):
        # The in-process survey simulates on the thread pool; with
        # workers=2 each shard worker simulates on one thread.
        from repro.io import survey_to_dict
        from repro.scenarios import run_survey_period

        specs = generate_specs(5, 2, seed=202)
        default, _ = run_survey_period(specs, PERIOD, seed=202)
        sharded, _ = run_survey_period(specs, PERIOD, seed=202, workers=2)
        assert survey_to_dict(default) == survey_to_dict(sharded)

    def test_cached_survey_simulates_on_the_pool(self, tmp_path):
        # A --cache-dir run without --workers is the in-process body:
        # the cold run simulates its misses on the thread pool, and
        # the warm run serves every AS and simulates nothing.
        from repro.atlas.platform import usable_cpus
        from repro.parallel import ResultCache
        from repro.scenarios import run_survey_period

        specs = generate_specs(5, 2, seed=202)
        cache = ResultCache(tmp_path / "cache")
        cold_obs = Observability()
        with observed(cold_obs):
            cold, _ = run_survey_period(specs, PERIOD, seed=202, cache=cache)
        (simulate,) = cold_obs.tracer.find("simulate")
        assert simulate.attrs["threads"] == min(
            usable_cpus(), simulate.attrs["probes"]
        )
        assert not cold_obs.tracer.find("survey-shard")
        assert cache.stats.writes == len(cold.reports) > 0

        warm_obs = Observability()
        with observed(warm_obs):
            warm, _ = run_survey_period(specs, PERIOD, seed=202, cache=cache)
        assert cache.stats.hits == len(warm.reports) == len(cold.reports)
        assert not warm_obs.tracer.find("simulate")
        assert warm.reports == cold.reports


def _walk(span):
    yield span
    for child in span.get("children", []):
        yield from _walk(child)


class TestFailures:
    def test_probe_error_surfaces_without_dataset(self, fleet, monkeypatch):
        bad = fleet.probes[4].probe_id
        real = AtlasPlatform._binned_series

        def failing(self, probe, *args, **kwargs):
            if probe.probe_id == bad:
                raise RuntimeError(f"probe {bad} failed")
            return real(self, probe, *args, **kwargs)

        monkeypatch.setattr(AtlasPlatform, "_binned_series", failing)
        result = None
        with pytest.raises(RuntimeError, match=f"probe {bad} failed"):
            result = fleet.run_period_binned(PERIOD, threads=2)
        assert result is None

    def test_failed_span_opens_no_orphans(self, fleet, monkeypatch):
        def failing(self, probe, *args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(AtlasPlatform, "_binned_series", failing)
        observer = Observability()
        with observed(observer), pytest.raises(RuntimeError):
            fleet.run_period_binned(PERIOD, threads=2)
        assert [root.name for root in observer.tracer.roots] == ["simulate"]
        (root,) = observer.tracer.roots
        assert root.error == "RuntimeError"
        assert root.children == []

    def test_span_reports_threads(self, fleet):
        observer = Observability()
        with observed(observer):
            fleet.run_period_binned(PERIOD, threads=3)
            fleet.run_period_binned(PERIOD, probes=fleet.probes[:1])
        spans = observer.tracer.find("simulate")
        assert [span.attrs["threads"] for span in spans] == [3, 1]
        assert [root.name for root in observer.tracer.roots] == [
            "simulate", "simulate",
        ]

    def test_no_probes(self, fleet):
        dataset = fleet.run_period_binned(PERIOD, probes=[])
        assert len(dataset) == 0


class TestOutDraws:
    """The ``out=`` draw forms give the bytes of the allocating ones."""

    SHAPE = (48, 24, 3)

    def test_uniform(self):
        got = np.empty(self.SHAPE)
        np.random.default_rng(5).random(out=got)
        want = np.random.default_rng(5).random(self.SHAPE)
        assert got.tobytes() == want.tobytes()

    def test_exponential(self):
        got = np.empty(self.SHAPE)
        np.random.default_rng(6).standard_exponential(out=got)
        want = np.random.default_rng(6).exponential(1.0, size=self.SHAPE)
        assert got.tobytes() == want.tobytes()

    def test_normal(self):
        got = np.empty(self.SHAPE)
        np.random.default_rng(7).standard_normal(out=got)
        want = np.random.default_rng(7).normal(size=self.SHAPE)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rho", [0.93, [0.1, 0.5, 0.999, 1.2]])
    def test_mm1_waits_buffer(self, rho):
        rows = np.atleast_1d(rho).shape[0]
        buffer = np.full((rows, 36), np.nan)
        got = sample_mm1_waits(
            rho, 0.2, 36, np.random.default_rng(8), out=buffer
        )
        want = sample_mm1_waits(rho, 0.2, 36, np.random.default_rng(8))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert np.shares_memory(got, buffer)

    def test_mm1_waits_buffer_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            sample_mm1_waits(
                [0.5, 0.6], 0.2, 8, np.random.default_rng(0),
                out=np.empty((2, 9)),
            )

    def test_packet_delays_buffer(self):
        link = LinkModel(service_time_ms=0.3, max_delay_ms=2.0)
        rho = np.linspace(0.2, 0.99, 10)
        buffer = np.empty((10, 72))
        got = link.sample_packet_delays_ms(
            rho, 72, np.random.default_rng(9), out=buffer
        )
        want = link.sample_packet_delays_ms(
            rho, 72, np.random.default_rng(9)
        )
        assert got.tobytes() == want.tobytes()
        assert got.max() == 2.0
        assert np.shares_memory(got, buffer)


def test_scratch_reused_per_thread(fleet, monkeypatch):
    """Each pool thread draws into one buffer set of its own."""
    import threading

    real = AtlasPlatform._binned_series
    seen = {}

    def spy(self, probe, grid, per_bin, buffers, af=4):
        seen.setdefault(threading.get_ident(), set()).add(
            tuple(id(buffer) for buffer in buffers)
        )
        return real(self, probe, grid, per_bin, buffers, af=af)

    monkeypatch.setattr(AtlasPlatform, "_binned_series", spy)
    fleet.run_period_binned(PERIOD, threads=2)
    assert threading.get_ident() not in seen
    assert all(len(sets) == 1 for sets in seen.values())
    ids = [buffer for sets in seen.values() for buffer in next(iter(sets))]
    assert len(ids) == len(set(ids))
    queue, edge, priv, block = platform_module._scratch_buffers(10, 4)
    assert queue.shape == edge.shape == priv.shape == (10, 4, 3)
    assert block.shape == (10, 3, 3, 4)
