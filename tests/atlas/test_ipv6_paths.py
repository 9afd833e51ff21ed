"""Tests for IPv6 measurement paths (the paper's deferred future work)."""

import datetime as dt

import numpy as np
import pytest

from repro.atlas import AtlasPlatform, ProbeVersion
from repro.core import (
    aggregate_population,
    estimate_dataset,
    probe_queuing_delay,
)
from repro.netbase import AccessTechnology, ASInfo, ASRole, is_private, parse_address
from repro.timebase import MeasurementPeriod, TimeGrid
from repro.topology import ProvisioningPolicy, World

PERIOD = MeasurementPeriod("v6", dt.datetime(2019, 9, 2), 2)


@pytest.fixture(scope="module")
def legacy_world():
    """Legacy ISP: congested PPPoE for v4, roomy IPoE for v6."""
    world = World(seed=101)
    isp = world.add_isp(
        ASInfo(
            64501, "Legacy", "JP", ASRole.EYEBALL,
            access_technologies=[AccessTechnology.FTTH_PPPOE_LEGACY],
        ),
        provisioning=ProvisioningPolicy(
            peak_utilization={
                AccessTechnology.FTTH_PPPOE_LEGACY: 0.96,
                AccessTechnology.FTTH_IPOE_LEGACY: 0.55,
            },
            device_spread=0.005,
            load_jitter_std=0.005,
        ),
        ipv6_technology=AccessTechnology.FTTH_IPOE_LEGACY,
    )
    world.add_default_targets()
    world.finalize()
    platform = AtlasPlatform(world)
    platform.config.outage_rate_per_day = 0.0
    probes = platform.deploy_probes_on_isp(
        isp, 4, version=ProbeVersion.V3
    )
    return world, isp, platform, probes


class TestPathConstruction:
    def test_v6_path_structure(self, legacy_world):
        world, isp, _platform, probes = legacy_world
        subscriber = probes[0].subscriber
        target = world.targets[0]
        path = world.build_path(subscriber, target, af=6)

        assert path.af == 6
        # One private (ULA) hop, then the IPoE gateway's v6 address.
        privates = [h for h in path.hops if h.private]
        assert len(privates) == 1
        value, version = (privates[0].address.value,
                          privates[0].address.version)
        assert version == 6 and is_private(value, 6)
        edge = path.hops[1]
        assert edge.address == subscriber.device_v6.edge_address_v6
        assert edge.address.version == 6
        assert path.access_device is subscriber.device_v6
        # v6 rides IPoE, not the PPPoE BRAS.
        assert subscriber.device_v6 is not subscriber.device
        assert (subscriber.device_v6.technology
                == AccessTechnology.FTTH_IPOE_LEGACY)
        # Destination is the target's v6 face.
        assert path.hops[-1].address == target.address_v6

    def test_v4_path_unchanged(self, legacy_world):
        world, _isp, _platform, probes = legacy_world
        path = world.build_path(
            probes[0].subscriber, world.targets[0], af=4
        )
        assert path.af == 4
        assert path.access_device is probes[0].subscriber.device

    def test_bad_af_rejected(self, legacy_world):
        world, _isp, _platform, probes = legacy_world
        with pytest.raises(ValueError):
            world.build_path(
                probes[0].subscriber, world.targets[0], af=5
            )

    def test_v6less_subscriber_rejected(self):
        world = World(seed=102)
        isp = world.add_isp(
            ASInfo(
                64501, "NoV6", "JP", ASRole.EYEBALL,
                access_technologies=[AccessTechnology.FTTH_OWN],
            ),
            with_ipv6=False,
        )
        world.add_default_targets()
        world.finalize()
        subscriber = isp.attach_subscriber()
        with pytest.raises(ValueError):
            world.build_path(subscriber, world.targets[0], af=6)


class TestV6Measurements:
    def test_full_fidelity_v6_results(self, legacy_world):
        _world, _isp, platform, probes = legacy_world
        dataset = platform.run_period(PERIOD, probes[:1], af=6)
        results = dataset.for_probe(probes[0].probe_id)
        assert results
        first = results[0]
        assert first.af == 6
        assert ":" in first.dst_address
        assert first.msm_id >= 6001  # offset series
        # Boundary detection works on the v6 hops.
        from repro.core.kernels.flat import walk_hops

        [last_private] = walk_hops([first]).near
        assert last_private is not None

    def test_v6_delay_flat_while_v4_congested(self, legacy_world):
        """The future-work experiment in miniature: same probes, same
        period — PPPoE (v4) shows the evening queue, IPoE (v6) none."""
        _world, _isp, platform, probes = legacy_world
        v4 = platform.run_period_binned(PERIOD, probes, af=4)
        v6 = platform.run_period_binned(PERIOD, probes, af=6)
        signal_v4 = aggregate_population(v4)
        signal_v6 = aggregate_population(v6)
        assert signal_v4.max_delay_ms > 1.5
        assert signal_v6.max_delay_ms < 0.5

    def test_v4_only_probes_skipped_in_v6_run(self):
        world = World(seed=103)
        isp = world.add_isp(
            ASInfo(
                64501, "NoV6", "JP", ASRole.EYEBALL,
                access_technologies=[AccessTechnology.FTTH_OWN],
            ),
            with_ipv6=False,
        )
        world.add_default_targets()
        world.finalize()
        platform = AtlasPlatform(world)
        probes = platform.deploy_probes_on_isp(isp, 2)
        dataset = platform.run_period_binned(PERIOD, probes, af=6)
        assert len(dataset) == 0

    def test_full_vs_binned_v6_consistent(self, legacy_world):
        _world, _isp, platform, probes = legacy_world
        raw = platform.run_period(PERIOD, probes[:2], af=6)
        grid = TimeGrid(PERIOD)
        full = estimate_dataset(raw.results, grid)
        binned = platform.run_period_binned(PERIOD, probes[:2], af=6)
        for prb in full.probe_ids():
            qd_full = probe_queuing_delay(full.series[prb])
            qd_binned = probe_queuing_delay(binned.series[prb])
            # Both flat (IPoE): agree in absolute terms (independent
            # noise draws leave ~0.3 ms median-sampling error each).
            assert np.nanmax(np.abs(qd_full - qd_binned)) < 0.9
            assert np.nanmedian(np.abs(qd_full - qd_binned)) < 0.3
