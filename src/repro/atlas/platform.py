"""The Atlas platform simulator: deployment and measurement campaigns.

Two fidelity modes share one statistical model (DESIGN.md §5):

* ``run_period`` (full) — every traceroute is generated hop by hop and
  returned as Atlas-shaped records.  The analysis pipeline exercises
  its complete parsing/identification path.
* ``run_period_binned`` (fast) — per-probe last-mile medians are drawn
  directly from the same per-reply RTT composition, skipping the
  per-hop object construction.  Used for the 646-AS world survey where
  full fidelity would need billions of reply objects.  Each probe draws
  from its own seeded stream into per-thread scratch buffers; the
  draws are combined in place, the pairwise diffs are laid out in
  whatever order is cheapest (a median ignores order), and each bin's
  median is a single in-place partition (``_row_medians``) rather
  than ``np.median``.  The probes of a period run on a thread pool
  (one thread per usable CPU); the output does not depend on it.

``tests/atlas/test_fidelity_equivalence.py`` asserts the two modes
agree on small worlds; ``tests/atlas/test_binned_bytes.py`` pins the
fast path byte for byte to its plain ``np.median`` formulation, and
``tests/atlas/test_binned_threads.py`` pins it across thread counts.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np
import numpy.random  # noqa: F401 -- loaded at import, not on first use

from ..core.series import LastMileDataset, ProbeBinSeries
from ..timebase import DELAY_BIN_SECONDS, MeasurementPeriod, TimeGrid
from ..topology import ISPNetwork, Subscriber, World
from .engine import EngineConfig, TracerouteEngine
from .measurements import BuiltinSchedule
from .probe import (
    Interval,
    Probe,
    ProbeVersion,
    sample_interference,
    sample_outages,
    sample_reconnects,
)
from .traceroute import MeasurementDataset, ProbeMeta, REPLIES_PER_HOP


@dataclass
class DeploymentConfig:
    """Probe fleet composition knobs."""

    #: Version mix of home probes (paper keeps v1/v2 for coverage).
    version_weights: Dict[ProbeVersion, float] = None
    outage_rate_per_day: float = 0.08
    #: PPPoE session re-establishments per probe per day: each lands
    #: on a (possibly) different BRAS card — new first-hop address and
    #: a small base-RTT shift.
    reconnect_rate_per_day: float = 0.2

    def __post_init__(self):
        if self.version_weights is None:
            self.version_weights = {
                ProbeVersion.V1: 0.15,
                ProbeVersion.V2: 0.20,
                ProbeVersion.V3: 0.65,
            }


class AtlasPlatform:
    """Deploys probes over a world and runs measurement campaigns."""

    FIRST_PROBE_ID = 10_000

    def __init__(
        self,
        world: World,
        config: Optional[DeploymentConfig] = None,
    ):
        self.world = world
        self.config = config or DeploymentConfig()
        self.probes: List[Probe] = []
        self._rng = world.child_rng()
        self._next_probe_id = self.FIRST_PROBE_ID
        self.schedule = BuiltinSchedule(world.targets)

    # -- deployment -----------------------------------------------------

    def _sample_version(self) -> ProbeVersion:
        versions = list(self.config.version_weights)
        weights = np.array(
            [self.config.version_weights[v] for v in versions]
        )
        index = self._rng.choice(len(versions), p=weights / weights.sum())
        return versions[index]

    def deploy_probe(
        self,
        subscriber: Subscriber,
        version: Optional[ProbeVersion] = None,
        city: str = "",
    ) -> Probe:
        """Install a probe on an existing subscriber line."""
        probe = Probe(
            probe_id=self._next_probe_id,
            subscriber=subscriber,
            version=version or self._sample_version(),
            city=city or subscriber.city,
        )
        self._next_probe_id += 1
        self.probes.append(probe)
        return probe

    def deploy_probes_on_isp(
        self,
        isp: ISPNetwork,
        count: int,
        city: str = "",
        version: Optional[ProbeVersion] = None,
    ) -> List[Probe]:
        """Provision ``count`` new subscribers each hosting a probe."""
        return [
            self.deploy_probe(
                isp.attach_subscriber(city=city), version=version, city=city
            )
            for _ in range(count)
        ]

    def deploy_anchor(self, isp: ISPNetwork, city: str = "") -> Probe:
        """Install an anchor on a fresh datacenter host."""
        return self.deploy_probe(
            isp.attach_datacenter_host(city=city),
            version=ProbeVersion.ANCHOR,
            city=city,
        )

    def probes_in_asn(self, asn: int) -> List[Probe]:
        """All deployed probes (incl. anchors) homed in an AS."""
        return [p for p in self.probes if p.asn == asn]

    def probe_meta(self, probe: Probe) -> ProbeMeta:
        """Probe metadata as the Atlas API exposes it."""
        return ProbeMeta(
            prb_id=probe.probe_id,
            asn=probe.asn,
            is_anchor=probe.is_anchor,
            public_address=str(probe.subscriber.wan_address),
            city=probe.city,
            version=probe.version.value,
        )

    # -- campaign setup --------------------------------------------------

    def _prepare_probe(
        self, probe: Probe, period: MeasurementPeriod
    ) -> None:
        """Regenerate per-period outages and interference, deterministically.

        Uses a stable CRC of the period name: Python's built-in string
        ``hash`` is randomized per process and would break run-to-run
        reproducibility.
        """
        import zlib

        period_tag = zlib.crc32(period.name.encode("utf-8")) & 0xFFFF
        seed = (self.world.seed, probe.probe_id, period_tag)
        rng = np.random.default_rng(seed)
        probe.outages = sample_outages(
            rng,
            period.duration_seconds,
            outage_rate_per_day=self.config.outage_rate_per_day,
        )
        probe.interference = sample_interference(
            rng, period.duration_seconds, probe.version
        )
        probe.reconnects = (
            sample_reconnects(
                rng, period.duration_seconds,
                rate_per_day=self.config.reconnect_rate_per_day,
            )
            if not probe.is_anchor else []
        )

    # -- full fidelity -----------------------------------------------------

    @staticmethod
    def _has_ipv6(probe: Probe) -> bool:
        subscriber = probe.subscriber
        return (
            subscriber.ipv6_prefix is not None
            and subscriber.device_v6 is not None
        )

    def run_period(
        self,
        period: MeasurementPeriod,
        probes: Optional[Sequence[Probe]] = None,
        engine_config: Optional[EngineConfig] = None,
        af: int = 4,
    ) -> MeasurementDataset:
        """Generate every built-in traceroute for a period (full mode).

        ``af=6`` runs the IPv6 built-ins (real Atlas runs both); probes
        without IPv6 connectivity are skipped, and measurement ids are
        offset by 1000 like Atlas's separate v6 measurement series.
        """
        probes = list(probes) if probes is not None else list(self.probes)
        if af == 6:
            probes = [p for p in probes if self._has_ipv6(p)]
        grid = TimeGrid(period, DELAY_BIN_SECONDS)
        engine = TracerouteEngine(
            self.world, grid,
            rng=np.random.default_rng(
                _campaign_seed(self.world.seed, period, af, tag=1)
            ),
            config=engine_config,
        )
        msm_offset = 0 if af == 4 else 1000
        dataset = MeasurementDataset()
        for probe in probes:
            self._prepare_probe(probe, period)
            dataset.probe_meta[probe.probe_id] = self.probe_meta(probe)
            for bin_start in grid.bin_starts():
                for t, measurement in self.schedule.events_for_bin(
                    probe.probe_id, bin_start, grid.bin_seconds
                ):
                    result = engine.measure(
                        probe, measurement.target, t,
                        measurement.msm_id + msm_offset, af=af,
                    )
                    if result is not None:
                        dataset.add(result)
        return dataset

    # -- binned fidelity ---------------------------------------------------

    def run_period_binned(
        self,
        period: MeasurementPeriod,
        probes: Optional[Sequence[Probe]] = None,
        af: int = 4,
        threads: Optional[int] = None,
    ) -> LastMileDataset:
        """Directly produce per-probe last-mile medians (fast mode).

        Statistically equivalent to running ``run_period`` and feeding
        the result through the last-mile estimation stage; reply loss
        and non-access hops are skipped because neither affects the
        bin median materially (loss < 2 % of replies, and the pipeline
        only consumes the last-private/first-public hop pair).
        ``af=6`` measures through each line's IPv6 device.

        Probes are simulated on a thread pool: one thread per CPU this
        process may run on (or at most ``threads``), never more than
        there are probes.  Each probe draws from its own stream and
        numpy releases the GIL inside the draws, the ufuncs and the
        partition, so the probes overlap while the series stay
        byte-identical for any thread count.  The calling thread adds
        the series in input order, and the pool is joined before this
        returns; if a probe raises, the error propagates and no
        dataset is returned.
        """
        # Imported here: only the simulator starts threads, and every
        # other command would pay for the module at start-up.
        from concurrent.futures import ThreadPoolExecutor

        from ..obs import get_observer

        probes = list(probes) if probes is not None else list(self.probes)
        if af == 6:
            probes = [p for p in probes if self._has_ipv6(p)]
        grid = TimeGrid(period, DELAY_BIN_SECONDS)
        per_bin = self.schedule.traceroutes_per_bin
        dataset = LastMileDataset(grid=grid)
        pool_size = max(1, min(
            threads if threads is not None else usable_cpus(),
            len(probes),
        ))
        # Fill every device's utilization cache here, so pool threads
        # only read it.  Any generator turns the jitter on; the jitter
        # itself comes from the device's own stream.
        jitter = np.random.default_rng(0)
        for probe in probes:
            _access_device(probe, af).device.utilization(grid, jitter)

        # Each pool thread allocates one scratch set when it starts and
        # reuses it for every probe it simulates.
        scratch = threading.local()

        def allocate_scratch() -> None:
            scratch.buffers = _scratch_buffers(grid.num_bins, per_bin)

        def simulate(probe: Probe) -> ProbeBinSeries:
            self._prepare_probe(probe, period)
            return self._binned_series(
                probe, grid, per_bin, scratch.buffers, af=af,
            )

        obs = get_observer()
        # The binned fast path synthesizes the last-mile medians
        # directly, but its time is the simulator's, not the §2.1
        # estimator's: it is traced as its own stage.  Pool tasks open
        # no spans: the tracer nests per thread, so a span opened in a
        # task would surface as an orphan root.
        with obs.stage_span(
            "simulate", probes=len(probes), period=period.name,
            threads=pool_size,
        ):
            pool = ThreadPoolExecutor(
                max_workers=pool_size, thread_name_prefix="simulate",
                initializer=allocate_scratch,
            )
            try:
                simulated = pool.map(simulate, probes)
                for probe, series in zip(probes, simulated):
                    dataset.add(series, meta=self.probe_meta(probe))
            finally:
                pool.shutdown(cancel_futures=True)
            obs.items_in("simulate", len(probes))
            obs.items_out("simulate", len(dataset.series))
        return dataset

    def _binned_series(
        self, probe: Probe, grid: TimeGrid, traceroutes_per_bin: int,
        buffers, af: int = 4,
    ) -> ProbeBinSeries:
        """Per-bin last-mile medians for one probe, fully vectorized.

        All draws come from the probe's own campaign stream, in a fixed
        shape and order, so a probe's series does not depend on which
        other probes run, in what order, or on which thread.  The draws
        land in ``buffers`` (see ``_scratch_buffers``), which the caller
        reuses across probes, and the arithmetic runs in place on them;
        the 9 pairwise diffs per traceroute are laid out
        ``(bins, 3, 3, k)`` because a median ignores order, filled one
        block of bins at a time, and each bin's median is one in-place
        partition (``_row_medians``).
        The result is byte-identical to ``np.median`` over the
        broadcast ``(bins, k, 3, 3)`` diffs.
        """
        rng = np.random.default_rng(_campaign_seed(
            self.world.seed, grid.period, af,
            tag=2, probe_id=probe.probe_id,
        ))
        subscriber = probe.subscriber
        device = _access_device(probe, af)
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
        queue, edge, priv, block = buffers
        link.sample_packet_delays_ms(
            rho, k * REPLIES_PER_HOP, rng,
            out=queue.reshape(num_bins, -1),
        )
        rng.standard_normal(out=edge)
        edge *= access_noise
        edge *= mult
        edge += base_edge
        edge += queue
        if subscriber.lan is not None:
            rng.standard_normal(out=priv)
            priv *= lan_noise
            priv *= mult
            priv += lan_rtt
        else:
            # Anchors: no private hop; the pipeline falls back to the
            # first public hop RTT with an implicit zero baseline.
            priv.fill(0.0)

        # PPPoE session rebase: piecewise-constant base-RTT shift.
        if probe.reconnects:
            edge += probe.session_deltas(grid.bin_centers())[:, None, None]

        interference = _interference_per_bin(probe, grid)
        busy_bins = interference > 0.0
        if busy_bins.any():
            # Both draws span every bin to keep the stream's layout.
            # ``queue`` is dead by now, so each lands there in turn;
            # only busy rows take the scaled extra.
            busy = busy_bins[:, None, None]
            scale = interference[:, None, None]
            for hop in (edge, priv):
                extra = rng.standard_exponential(out=queue)
                extra *= scale
                np.add(hop, extra, out=hop, where=busy)

        # Pairwise subtraction: 3 edge x 3 private = 9 diffs/traceroute,
        # one block of bins at a time (each row's median is its own).
        medians = np.empty(num_bins)
        block_bins = block.shape[0]
        for start in range(0, num_bins, block_bins):
            stop = min(start + block_bins, num_bins)
            diffs = block[: stop - start]
            for i in range(REPLIES_PER_HOP):
                for j in range(REPLIES_PER_HOP):
                    np.subtract(
                        edge[start:stop, :, i], priv[start:stop, :, j],
                        out=diffs[:, i, j, :],
                    )
            medians[start:stop] = _row_medians(
                diffs.reshape(stop - start, -1)
            )

        counts = _counts_with_outages(probe, grid, k)
        medians = np.where(counts > 0, medians, np.nan)
        return ProbeBinSeries(
            prb_id=probe.probe_id,
            median_rtt_ms=medians,
            traceroute_counts=counts,
        )


#: Bins per block of pairwise diffs: three days of 30-minute bins,
#: ~250 kB at k = 24 instead of ~1.2 MB for a 15-day period.
_DIFF_BLOCK_BINS = 144


def _scratch_buffers(num_bins: int, k: int):
    """One thread's simulator buffers for ``num_bins`` x ``k`` probes.

    Three ``(bins, k, 3)`` float64 sample buffers (queue, then each
    interference extra in turn; edge; private hop) and one diffs
    block, ~1.5 MB at 720 bins and k = 24.
    """
    shape = (num_bins, k, REPLIES_PER_HOP)
    block = (
        min(num_bins, _DIFF_BLOCK_BINS), REPLIES_PER_HOP, REPLIES_PER_HOP, k,
    )
    return np.empty(shape), np.empty(shape), np.empty(shape), np.empty(block)


def usable_cpus() -> int:
    """CPUs this process may run on.

    The affinity mask, not the machine's CPU count: under ``taskset``
    or a cpuset cgroup the process may use fewer.  The simulator's
    thread pool and ``--workers 0`` both size themselves by it.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _access_device(probe: Probe, af: int):
    """The access device a probe's ``af`` traffic goes through."""
    subscriber = probe.subscriber
    return subscriber.device if af == 4 else subscriber.device_v6


def _row_medians(rows: np.ndarray) -> np.ndarray:
    """``np.median(rows, axis=1)``, byte for byte, with one partition.

    ``np.median`` partitions a copy at the middle index(es) plus the
    last one (its NaN check).  Here ``rows`` is partitioned in place at
    ``h = n // 2`` only, so the caller's scratch array is reordered.
    For even ``n`` the lower middle value is the maximum of the left
    part, and the two are averaged as ``np.mean`` would, ``(lo + hi) /
    2``.  NaN sorts last, so a row holding NaN holds one at or right
    of ``h``; such rows return that NaN, as ``np.median`` does.
    """
    n = rows.shape[1]
    h = n // 2
    rows.partition(h, axis=1)
    if n % 2:
        medians = rows[:, h].copy()
    else:
        medians = rows[:, :h].max(axis=1)
        medians += rows[:, h]
        medians /= 2.0
    top = rows[:, h:].max(axis=1)
    nan_rows = np.isnan(top)
    medians[nan_rows] = top[nan_rows]
    return medians


def _campaign_seed(
    world_seed: int,
    period: MeasurementPeriod,
    af: int,
    tag: int,
    probe_id: int = 0,
):
    """Deterministic seed tuple for one measurement campaign.

    Keyed by content (world seed, period name, address family, probe)
    rather than by draw order, so repeated or reordered campaign runs
    reproduce bit-identical data.
    """
    import zlib

    return (
        world_seed,
        zlib.crc32(period.name.encode("utf-8")),
        af,
        tag,
        probe_id,
    )


def _interference_per_bin(probe: Probe, grid: TimeGrid) -> np.ndarray:
    """Mean interference scale (ms) per bin, overlap-weighted."""
    result = np.zeros(grid.num_bins)
    if not probe.interference:
        return result
    starts = grid.bin_starts()
    for interval, extra_ms in probe.interference:
        overlap = _overlap_fraction(starts, grid.bin_seconds, interval)
        result += extra_ms * overlap
    return result


def _counts_with_outages(
    probe: Probe, grid: TimeGrid, per_bin: int
) -> np.ndarray:
    """Traceroute counts per bin after subtracting outage overlap."""
    counts = np.full(grid.num_bins, per_bin, dtype=np.int64)
    if not probe.outages:
        return counts
    starts = grid.bin_starts()
    online = np.ones(grid.num_bins)
    for outage in probe.outages:
        online -= _overlap_fraction(starts, grid.bin_seconds, outage)
    online = np.clip(online, 0.0, 1.0)
    return np.round(counts * online).astype(np.int64)


def _overlap_fraction(
    bin_starts: np.ndarray, bin_seconds: int, interval: Interval
) -> np.ndarray:
    """Fraction of each bin covered by the interval."""
    bin_ends = bin_starts + bin_seconds
    overlap = np.minimum(bin_ends, interval.end) - np.maximum(
        bin_starts, interval.start
    )
    return np.clip(overlap, 0.0, bin_seconds) / bin_seconds
