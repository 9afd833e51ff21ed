"""Tests for PPPoE reconnect churn and pipeline robustness to it."""

import datetime as dt

import numpy as np
import pytest

from repro.atlas import AtlasPlatform, Probe, ProbeVersion, sample_reconnects
from repro.core import (
    aggregate_population,
    classify_signal,
    estimate_dataset,
    probe_queuing_delay,
)
from repro.core.kernels.flat import walk_hops
from repro.netbase import AccessTechnology, ASInfo, ASRole
from repro.timebase import MeasurementPeriod, TimeGrid
from repro.topology import ProvisioningPolicy, World

PERIOD = MeasurementPeriod("reconnect", dt.datetime(2019, 9, 2), 3)


def build_platform(peak=0.5, reconnect_rate=1.0, seed=7):
    world = World(seed=seed)
    isp = world.add_isp(
        ASInfo(
            64500, "R", "JP", ASRole.EYEBALL,
            access_technologies=[AccessTechnology.FTTH_PPPOE_LEGACY],
        ),
        provisioning=ProvisioningPolicy(
            peak_utilization={AccessTechnology.FTTH_PPPOE_LEGACY: peak},
            device_spread=0.005,
            load_jitter_std=0.005,
        ),
    )
    world.add_default_targets()
    world.finalize()
    platform = AtlasPlatform(world)
    platform.config.outage_rate_per_day = 0.0
    platform.config.reconnect_rate_per_day = reconnect_rate
    probes = platform.deploy_probes_on_isp(
        isp, 3, version=ProbeVersion.V3
    )
    return world, platform, probes


class TestSessionModel:
    def test_session_at_progression(self, tmp_path):
        world, platform, probes = build_platform()
        probe = probes[0]
        assert probe.session_at(1e9) == (0, 0.0)  # no reconnects
        probe.reconnects = [(100.0, 0.5), (200.0, -0.3)]
        assert probe.session_at(0.0) == (0, 0.0)
        assert probe.session_at(50.0) == (0, 0.0)
        assert probe.session_at(np.nextafter(100.0, 0.0)) == (0, 0.0)
        # A reconnect is in effect from its own timestamp on.
        assert probe.session_at(100.0) == (1, 0.5)
        assert probe.session_at(150.0) == (1, 0.5)
        assert probe.session_at(200.0) == (2, -0.3)
        assert probe.session_at(250.0) == (2, -0.3)
        assert probe.session_at(1e9) == (2, -0.3)

    @pytest.mark.parametrize("reconnects", [
        [],
        [(100.0, 0.5)],
        [(100.0, 0.5), (200.0, -0.3)],
        [(0.0, 0.2), (100.0, 0.5), (100.0, -0.1), (300.0, 0.7)],
    ])
    def test_session_deltas_match_session_at(self, reconnects):
        world, platform, probes = build_platform()
        probe = probes[0]
        probe.reconnects = reconnects
        whens = [when for when, _ in reconnects]
        times = np.array(sorted(
            [-1.0, 0.0, 50.0, 1e9]               # before / after all
            + whens                               # exactly at a reconnect
            + [np.nextafter(w, -np.inf) for w in whens]
            + [np.nextafter(w, np.inf) for w in whens]
        ))
        scalar = [probe.session_at(t)[1] for t in times]
        np.testing.assert_array_equal(probe.session_deltas(times), scalar)

    def test_sampling_sorted_and_bounded(self):
        rng = np.random.default_rng(0)
        events = sample_reconnects(rng, 10 * 86400.0, rate_per_day=2.0)
        times = [t for t, _d in events]
        assert times == sorted(times)
        assert all(0 <= t <= 10 * 86400.0 for t in times)
        deltas = [d for _t, d in events]
        assert max(abs(d) for d in deltas) < 2.0

    def test_anchors_never_reconnect(self):
        world, platform, _probes = build_platform()
        isp = next(iter(world.isps.values()))
        anchor = platform.deploy_anchor(isp)
        platform._prepare_probe(anchor, PERIOD)
        assert anchor.reconnects == []


class TestEngineEffects:
    def test_edge_address_changes_across_sessions(self):
        world, platform, probes = build_platform()
        probe = probes[0]
        # Force one mid-period reconnect.
        half = PERIOD.duration_seconds / 2
        probe.reconnects = [(half, 0.4)]
        from repro.atlas.engine import TracerouteEngine

        engine = TracerouteEngine(world, TimeGrid(PERIOD))
        target = world.targets[0]
        before = engine.measure(probe, target, half - 3600, 5001)
        after = engine.measure(probe, target, half + 3600, 5001)
        [addr_before] = walk_hops([before]).far
        [addr_after] = walk_hops([after]).far
        assert addr_before != addr_after
        # Both aliases belong to the same device's alias set.
        aliases = {
            str(a) for a in probe.subscriber.device.edge_aliases
        }
        assert {addr_before, addr_after} <= aliases

    def test_rebase_shifts_lastmile_rtt(self):
        world, platform, probes = build_platform(peak=0.3)
        probe = probes[0]
        half = PERIOD.duration_seconds / 2
        probe.reconnects = [(half, 1.5)]  # big shift for visibility
        raw = platform.run_period(PERIOD, [probe])
        # _prepare_probe regenerated reconnects; reapply and rerun the
        # estimation around the forced split instead.
        probe.reconnects = [(half, 1.5)]
        from repro.atlas.engine import TracerouteEngine

        engine = TracerouteEngine(world, TimeGrid(PERIOD))
        target = world.targets[0]
        from repro.core.lastmile import lastmile_samples

        before = np.median(lastmile_samples(
            engine.measure(probe, target, half - 7200, 5001)
        ))
        after = np.median(lastmile_samples(
            engine.measure(probe, target, half + 7200, 5001)
        ))
        assert after - before == pytest.approx(1.5, abs=0.5)


class TestPipelineRobustness:
    def test_classification_unaffected_by_reconnect_churn(self):
        """Reconnect rebases (~0.3 ms) must not create false
        positives on a quiet AS nor mask congestion on a hot one."""
        for peak, expect_reported in ((0.5, False), (0.96, True)):
            _world, platform, probes = build_platform(
                peak=peak, reconnect_rate=2.0, seed=11
            )
            dataset = platform.run_period_binned(PERIOD, probes)
            signal = aggregate_population(dataset)
            result = classify_signal(signal.delay_ms, 1800)
            assert result.severity.is_reported == expect_reported

    def test_full_fidelity_boundary_detection_survives_churn(self):
        _world, platform, probes = build_platform(
            peak=0.5, reconnect_rate=3.0, seed=13
        )
        raw = platform.run_period(PERIOD, probes[:1])
        grid = TimeGrid(PERIOD)
        dataset = estimate_dataset(raw.results, grid)
        series = dataset.series[probes[0].probe_id]
        # Every bin still gets an estimate despite address churn.
        assert series.valid_mask().mean() > 0.95
        delay = probe_queuing_delay(series)
        assert np.nanmax(delay) < 2.0
