"""End-to-end integration: full-fidelity traceroutes through the
complete paper methodology, including BGP probe resolution and the
Greater-Tokyo geographic filter.
"""

import datetime as dt

import numpy as np
import pytest

from repro.atlas import AtlasPlatform, ProbeVersion
from repro.core import (
    Severity,
    aggregate_population,
    classify_signal,
    estimate_dataset,
    probes_in_asn,
    probes_in_greater_tokyo,
    resolve_probe_asn,
)
from repro.netbase import AccessTechnology, ASInfo, ASRole
from repro.timebase import MeasurementPeriod, TimeGrid
from repro.topology import ProvisioningPolicy, World

PERIOD = MeasurementPeriod("e2e", dt.datetime(2019, 9, 2), 4)


@pytest.fixture(scope="module")
def pipeline_world():
    """Two ISPs (one congested, one clean), probes in mixed cities,
    plus an anchor; full-fidelity run through the batch pipeline."""
    world = World(seed=66)
    hot = world.add_isp(
        ASInfo(
            64501, "HotNet", "JP", ASRole.EYEBALL,
            access_technologies=[AccessTechnology.FTTH_PPPOE_LEGACY],
        ),
        provisioning=ProvisioningPolicy(
            peak_utilization={AccessTechnology.FTTH_PPPOE_LEGACY: 0.96},
            device_spread=0.005,
            load_jitter_std=0.005,
        ),
        edge_announced_probability=0.0,   # edge space stays dark
    )
    cool = world.add_isp(
        ASInfo(
            64502, "CoolNet", "JP", ASRole.EYEBALL,
            access_technologies=[AccessTechnology.FTTH_OWN],
        ),
        provisioning=ProvisioningPolicy(
            peak_utilization={AccessTechnology.FTTH_OWN: 0.5},
        ),
    )
    world.add_default_targets()
    world.finalize()

    platform = AtlasPlatform(world)
    platform.config.outage_rate_per_day = 0.0
    probes = []
    for city in ("Tokyo", "Tokyo", "Yokohama", "Osaka"):
        probes.append(platform.deploy_probe(
            hot.attach_subscriber(city=city),
            version=ProbeVersion.V3, city=city,
        ))
    for city in ("Tokyo", "Chiba", "Osaka", "Saitama"):
        probes.append(platform.deploy_probe(
            cool.attach_subscriber(city=city),
            version=ProbeVersion.V3, city=city,
        ))
    anchor = platform.deploy_anchor(hot, city="Tokyo")

    raw = platform.run_period(PERIOD, probes + [anchor])
    grid = TimeGrid(PERIOD)
    dataset = estimate_dataset(
        raw.results, grid, probe_meta=raw.probe_meta
    )
    return world, platform, dataset, raw


class TestResolution:
    def test_probe_addresses_resolve_via_lpm(self, pipeline_world):
        world, _platform, dataset, _raw = pipeline_world
        for meta in dataset.probe_meta.values():
            asn = resolve_probe_asn(meta, world.table)
            assert asn == meta.asn

    def test_unannounced_edge_does_not_break_attribution(
        self, pipeline_world
    ):
        """HotNet's edge block is unannounced (the paper's reason to
        LPM the probe's public address, not the first-hop address)."""
        world, _platform, dataset, raw = pipeline_world
        hot_probes = probes_in_asn(
            dataset.probe_meta, 64501, table=world.table
        )
        assert len(hot_probes) == 4
        # First public hop of a HotNet traceroute is NOT in the RIB.
        result = raw.for_probe(hot_probes[0])[0]
        from repro.core.kernels.flat import walk_hops
        from repro.netbase import parse_address

        [first_public] = walk_hops([result]).far
        value, version = parse_address(first_public)
        assert world.table.resolve_asn(value, version) is None


class TestSelectionFilters:
    def test_anchor_excluded(self, pipeline_world):
        world, _platform, dataset, _raw = pipeline_world
        ids = probes_in_asn(dataset.probe_meta, 64501, table=world.table)
        anchors = [
            prb for prb, meta in dataset.probe_meta.items()
            if meta.is_anchor
        ]
        assert anchors
        assert not set(anchors) & set(ids)

    def test_greater_tokyo_filter(self, pipeline_world):
        _world, _platform, dataset, _raw = pipeline_world
        tokyo = probes_in_greater_tokyo(dataset.probe_meta)
        cities = {
            dataset.probe_meta[prb].city for prb in tokyo
        }
        assert cities <= {"Tokyo", "Yokohama", "Chiba", "Saitama"}
        assert "Osaka" not in cities
        assert len(tokyo) == 6  # 3 hot + 3 cool in Greater Tokyo


class TestClassificationOutcome:
    def test_hot_reported_cool_not(self, pipeline_world):
        world, _platform, dataset, _raw = pipeline_world
        for asn, expected_reported in ((64501, True), (64502, False)):
            ids = probes_in_asn(
                dataset.probe_meta, asn, table=world.table
            )
            signal = aggregate_population(dataset, ids)
            result = classify_signal(
                signal.delay_ms, dataset.grid.bin_seconds
            )
            assert result.severity.is_reported == expected_reported

    def test_anchor_series_flat(self, pipeline_world):
        _world, _platform, dataset, _raw = pipeline_world
        from repro.core import probe_queuing_delay

        anchor_id = next(
            prb for prb, meta in dataset.probe_meta.items()
            if meta.is_anchor
        )
        delay = probe_queuing_delay(dataset.series[anchor_id])
        assert np.nanmax(delay) < 1.0


class TestSanityChecks:
    def test_every_probe_has_full_bins(self, pipeline_world):
        _world, _platform, dataset, _raw = pipeline_world
        for prb_id, series in dataset.series.items():
            assert series.valid_mask().mean() > 0.95

    def test_traceroute_counts_match_schedule(self, pipeline_world):
        _world, _platform, dataset, _raw = pipeline_world
        for series in dataset.series.values():
            assert np.median(series.traceroute_counts) == 24
