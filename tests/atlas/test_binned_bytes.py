"""Byte-differential pin for the binned simulator's fast path.

``_oracle_binned_series`` below is the straightforward body that
``AtlasPlatform._binned_series`` replaced: fresh arrays at every step,
a full-shape ``np.where`` for interference, broadcast pairwise diffs
and ``np.median``.  The fast path reorders none of the draws and none
of the floating-point operations, so every probe's medians and counts
must match the oracle byte for byte, not approximately.
"""

import datetime as dt

import numpy as np
import pytest

from repro.atlas import AtlasPlatform, ProbeVersion
from repro.atlas.measurements import BuiltinSchedule
from repro.atlas.platform import (
    _campaign_seed,
    _counts_with_outages,
    _interference_per_bin,
    _row_medians,
)
from repro.atlas.traceroute import REPLIES_PER_HOP
from repro.core.series import ProbeBinSeries
from repro.netbase import AccessTechnology, ASInfo, ASRole
from repro.queueing.models import _clip_rho
from repro.scenarios.worldsurvey import build_survey_world, generate_specs
from repro.timebase import (
    COVID_PERIOD,
    DELAY_BIN_SECONDS,
    MeasurementPeriod,
    TimeGrid,
)
from repro.topology import ProvisioningPolicy, World

PERIOD = MeasurementPeriod("bytes", dt.datetime(2019, 9, 2), 4)


# -- the oracle: the pre-optimization simulator, kept verbatim -------------


def _oracle_mm1_waits(rho, service_time, samples, rng):
    rho = _clip_rho(rho)
    scalar = rho.ndim == 0
    rho = np.atleast_1d(rho)
    scale = service_time / (1.0 - rho)
    busy = rng.random((rho.shape[0], samples)) < rho[:, None]
    waits = rng.exponential(1.0, size=(rho.shape[0], samples))
    result = busy * waits * scale[:, None]
    return result[0] if scalar else result


def _oracle_packet_delays_ms(link, rho, samples, rng):
    raw = _oracle_mm1_waits(rho, link.service_time_ms, samples, rng)
    scale = 0.5 * (1.0 + link.scv)
    return np.minimum(raw * scale, link.max_delay_ms)


def _oracle_session_at(probe, t):
    index, delta = 0, 0.0
    for when, new_delta in probe.reconnects:
        if t < when:
            break
        index += 1
        delta = new_delta
    return index, delta


def _oracle_binned_series(self, probe, grid, traceroutes_per_bin, af=4):
    rng = np.random.default_rng(_campaign_seed(
        self.world.seed, grid.period, af,
        tag=2, probe_id=probe.probe_id,
    ))
    subscriber = probe.subscriber
    device = (
        subscriber.device if af == 4 else subscriber.device_v6
    )
    shared = device.device
    link = shared.link
    rho = shared.utilization(grid, rng)
    num_bins = grid.num_bins
    k = traceroutes_per_bin

    if subscriber.lan is not None:
        lan_rtt = subscriber.lan.lan_rtt_ms
        lan_noise = subscriber.lan.reply_noise_ms
    else:
        lan_rtt, lan_noise = 0.0, 0.05
    isp = self.world.isps[subscriber.asn]
    spec = isp.specs[device.technology]
    access_noise = float(np.hypot(lan_noise, spec.reply_noise_ms))
    mult = probe.version.noise_multiplier
    base_edge = lan_rtt + subscriber.access_rtt_ms

    # Per-reply samples: (bins, traceroutes, 3 replies).
    shape = (num_bins, k, REPLIES_PER_HOP)
    queue = _oracle_packet_delays_ms(
        link, rho, k * REPLIES_PER_HOP, rng
    ).reshape(shape)
    edge = (
        base_edge
        + rng.normal(size=shape) * access_noise * mult
        + queue
    )
    if subscriber.lan is not None:
        priv = lan_rtt + rng.normal(size=shape) * lan_noise * mult
    else:
        # Anchors: no private hop; the pipeline falls back to the
        # first public hop RTT with an implicit zero baseline.
        priv = np.zeros(shape)

    # PPPoE session rebase: piecewise-constant base-RTT shift.
    if probe.reconnects:
        session_delta = np.array([
            _oracle_session_at(probe, center)[1]
            for center in grid.bin_centers()
        ])
        edge = edge + session_delta[:, None, None]

    interference = _interference_per_bin(probe, grid)
    busy_bins = interference > 0.0
    if busy_bins.any():
        extra_edge = rng.exponential(1.0, size=shape)
        extra_priv = rng.exponential(1.0, size=shape)
        scale = interference[:, None, None]
        edge = edge + np.where(busy_bins[:, None, None],
                               extra_edge * scale, 0.0)
        priv = priv + np.where(busy_bins[:, None, None],
                               extra_priv * scale, 0.0)

    # Pairwise subtraction: 3 edge x 3 private = 9 diffs/traceroute.
    diffs = (
        edge[:, :, :, None] - priv[:, :, None, :]
    ).reshape(num_bins, -1)
    medians = np.median(diffs, axis=1)

    counts = _counts_with_outages(probe, grid, k)
    medians = np.where(counts > 0, medians, np.nan)
    return ProbeBinSeries(
        prb_id=probe.probe_id,
        median_rtt_ms=medians,
        traceroute_counts=counts,
    )


# -- the comparison ----------------------------------------------------------


def assert_same_bytes(platform, period, af=4):
    """Run the real simulator, then replay every probe on the oracle."""
    dataset = platform.run_period_binned(period, af=af)
    grid = TimeGrid(period, DELAY_BIN_SECONDS)
    per_bin = platform.schedule.traceroutes_per_bin
    assert dataset.series
    for prb_id, series in dataset.series.items():
        probe = next(p for p in platform.probes if p.probe_id == prb_id)
        # run_period_binned left the probe prepared for this period.
        expected = _oracle_binned_series(
            platform, probe, grid, per_bin, af=af
        )
        assert (
            series.median_rtt_ms.tobytes()
            == expected.median_rtt_ms.tobytes()
        ), f"probe {prb_id} medians drifted"
        np.testing.assert_array_equal(
            series.traceroute_counts, expected.traceroute_counts
        )
    return dataset


@pytest.fixture(scope="module")
def mixed_platform():
    """Every probe flavor on one dual-stack ISP, with heavy churn."""
    world = World(seed=23)
    isp = world.add_isp(
        ASInfo(
            64510, "Mixed", "JP", ASRole.EYEBALL,
            access_technologies=[AccessTechnology.FTTH_PPPOE_LEGACY],
        ),
        provisioning=ProvisioningPolicy(
            peak_utilization={
                AccessTechnology.FTTH_PPPOE_LEGACY: 0.96,
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
        platform.deploy_probes_on_isp(isp, 2, version=version)
    platform.deploy_anchor(isp)
    return platform


class TestSimulatorBytes:
    def test_mixed_fleet_v4(self, mixed_platform):
        platform = mixed_platform
        dataset = assert_same_bytes(platform, PERIOD)
        # The fleet really exercises every branch of the fast path.
        probes = platform.probes
        assert {p.version for p in probes} == set(ProbeVersion)
        assert any(p.reconnects for p in probes)
        assert any(p.interference for p in probes)
        assert any(p.outages for p in probes)
        counts = np.concatenate([
            s.traceroute_counts for s in dataset.series.values()
        ])
        assert counts.min() < platform.schedule.traceroutes_per_bin

    def test_mixed_fleet_v6(self, mixed_platform):
        dataset = assert_same_bytes(mixed_platform, PERIOD, af=6)
        assert len(dataset.series) >= 6

    def test_odd_traceroutes_per_bin(self, mixed_platform):
        platform = mixed_platform
        schedule = platform.schedule
        # One 30-minute and two 15-minute built-ins: 5 per bin, so 45
        # diffs per bin and the odd-n median.
        platform.schedule = BuiltinSchedule(platform.world.targets[:3])
        try:
            assert platform.schedule.traceroutes_per_bin == 5
            assert_same_bytes(platform, PERIOD)
        finally:
            platform.schedule = schedule

    def test_lockdown_survey_world(self):
        specs = generate_specs(4, 2, seed=101)
        assert any(s.lockdown_daytime_boost > 0 for s in specs)
        world, platform = build_survey_world(
            specs, lockdown=True, seed=101, period_name=COVID_PERIOD.name
        )
        platform.deploy_anchor(world.isps[specs[0].asn])
        assert_same_bytes(platform, COVID_PERIOD)


class TestRowMedians:
    # Short rows may come back fully sorted from numpy's partition,
    # which would hide a wrong pivot; the long ones do not.
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 45, 216, 2000, 2001])
    def test_matches_np_median(self, n):
        rng = np.random.default_rng(n)
        rows = rng.normal(size=(50, n))
        expected = np.median(rows, axis=1)
        assert _row_medians(rows.copy()).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [8, 9, 2000, 2001])
    def test_ties(self, n):
        rng = np.random.default_rng(n)
        rows = rng.integers(0, 3, size=(40, n)).astype(np.float64)
        expected = np.median(rows, axis=1)
        assert _row_medians(rows.copy()).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [8, 9, 2000, 2001])
    def test_nan_rows(self, n):
        rng = np.random.default_rng(n)
        rows = rng.normal(size=(30, n))
        rows[3, 0] = np.nan           # one NaN, far below the middle
        rows[7, n // 2] = np.nan      # at the pivot
        rows[11, :] = np.nan          # all NaN
        rows[13, -3:] = np.nan        # a few at the top
        expected = np.median(rows, axis=1)
        got = _row_medians(rows.copy())
        assert np.isnan(got[[3, 7, 11, 13]]).all()
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [8, 9, 2000, 2001])
    def test_infinities(self, n):
        rng = np.random.default_rng(n)
        rows = rng.normal(size=(30, n))
        rows[2, :] = np.inf
        rows[4, :] = -np.inf
        rows[6, : n // 2] = -np.inf   # the middle pair may be -inf, x
        rows[8, : n // 2] = -np.inf   # ... or straddle +-inf
        rows[8, n // 2:] = np.inf
        rows[10, 0] = np.inf          # one inf, away from the middle
        with np.errstate(invalid="ignore"):
            expected = np.median(rows, axis=1)
            got = _row_medians(rows.copy())
        assert got.tobytes() == expected.tobytes()

    def test_partitions_in_place(self):
        rows = np.arange(10.0)[::-1].reshape(1, 10).copy()
        _row_medians(rows)
        assert rows[0, :5].max() <= rows[0, 5] <= rows[0, 6:].min()
