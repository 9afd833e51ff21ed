"""The per-traceroute link scan the flat scan replaced.

Kept verbatim as the oracle of :func:`repro.anomaly.scan_links`:
gate each record, list its responding hops, and take every adjacent
pair's reply product and next-hop observation in Python lists, into
dict-of-dict observations.  ``tests/kernels/test_scan_oracles.py``
holds the scan's links, counts, samples, next-hop counts and ledger
to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.anomaly.links import STAGE, LinkKey, link_id
from repro.atlas.traceroute import TracerouteResult
from repro.core.lastmile import classify_hop_address
from repro.quality import DataQualityReport, DropReason
from repro.timebase import TimeGrid


def _sane(rtt: float) -> bool:
    return bool(np.isfinite(rtt)) and rtt >= 0.0


def _responding_hops(result: TracerouteResult):
    """Hops with a responding address, in path order."""
    hops = []
    for hop in result.hops:
        address = hop.responding_address
        if address is not None:
            hops.append((address, hop))
    return hops


def link_samples(
    result: TracerouteResult,
) -> List[Tuple[LinkKey, List[float]]]:
    """Differential RTT samples for every link of one traceroute.

    Pairwise subtraction of the near hop's sane replies from the far
    hop's sane replies (≤ 3 × 3 = 9 samples per link).  A link whose
    near or far side has only insane replies yields an empty sample
    list but is still *observed* (it appears with ``[]``), so it
    counts toward bin sanity exactly like a sample-less last-mile
    traceroute.
    """
    hops = _responding_hops(result)
    out: List[Tuple[LinkKey, List[float]]] = []
    for (near_addr, near_hop), (far_addr, far_hop) in zip(
        hops, hops[1:]
    ):
        if near_addr == far_addr:
            continue  # routing loop artifact, not a link
        near_rtts = [r for r in near_hop.rtts if _sane(r)]
        far_rtts = [r for r in far_hop.rtts if _sane(r)]
        samples = [
            far_rtt - near_rtt
            for far_rtt in far_rtts
            for near_rtt in near_rtts
        ]
        out.append(((near_addr, far_addr), samples))
    return out


def next_hop_pairs(result: TracerouteResult) -> List[Tuple[str, str, str]]:
    """(near, dst, far) forwarding observations of one traceroute.

    Forwarding patterns are keyed per *route* — (hop address,
    traceroute destination) — not per hop alone: a router legitimately
    forwards different destinations to different next hops, so only
    the per-destination pattern is expected to be stable and only its
    shift is an anomaly.  Private near addresses are excluded: RFC
    1918 space aliases across vantage points (every home gateway is
    192.168.1.1), so an aggregated "next hop pattern" for a private
    address mixes unrelated households and is noise, not routing.
    """
    hops = _responding_hops(result)
    dst = result.dst_address
    return [
        (near, dst, far)
        for (near, _h1), (far, _h2) in zip(hops, hops[1:])
        if near != far and classify_hop_address(near) == "public"
    ]


@dataclass
class LinkObservations:
    """Accumulated per-link, per-bin observations from one scan.

    ``samples[link][bin]`` is the flat differential-sample list,
    ``counts[link][bin]`` the number of traceroutes that observed the
    link in the bin (the sanity denominator), and
    ``next_hops[(near, dst)][bin][far]`` the forwarding observation
    counts per route.
    """

    grid: TimeGrid
    processed: int = 0
    samples: Dict[LinkKey, Dict[int, List[float]]] = field(
        default_factory=dict
    )
    counts: Dict[LinkKey, Dict[int, int]] = field(default_factory=dict)
    next_hops: Dict[Tuple[str, str], Dict[int, Dict[str, int]]] = field(
        default_factory=dict
    )

    def link_ids(self) -> List[str]:
        """Sorted canonical link ids — the deterministic row order."""
        return sorted(link_id(*key) for key in self.counts)

    def observe(self, result: TracerouteResult, bin_index: int) -> bool:
        """Record one in-period traceroute; True if any link matched."""
        matched = False
        for key, values in link_samples(result):
            matched = True
            bins = self.counts.setdefault(key, {})
            bins[bin_index] = bins.get(bin_index, 0) + 1
            if values:
                self.samples.setdefault(key, {}).setdefault(
                    bin_index, []
                ).extend(values)
        for near, dst, far in next_hop_pairs(result):
            counter = self.next_hops.setdefault(
                (near, dst), {}
            ).setdefault(bin_index, {})
            counter[far] = counter.get(far, 0) + 1
        return matched


def _scan_shard(
    results_by_probe: Dict[int, List[TracerouteResult]],
    grid: TimeGrid,
    quality: Optional[DataQualityReport],
) -> LinkObservations:
    obs = LinkObservations(grid=grid)
    duration = grid.num_bins * grid.bin_seconds
    for prb_id, results in results_by_probe.items():
        for result in results:
            obs.processed += 1
            if quality is not None:
                quality.ingest(STAGE)
            timestamp = result.timestamp
            if not np.isfinite(timestamp):
                if quality is not None:
                    quality.drop(
                        STAGE, DropReason.MALFORMED_RECORD,
                        detail=f"probe {result.prb_id}: timestamp "
                        f"{timestamp!r}",
                    )
                continue
            if timestamp < 0 or timestamp > duration:
                if quality is not None:
                    quality.drop(
                        STAGE, DropReason.OUT_OF_PERIOD,
                        detail=f"probe {result.prb_id}: timestamp "
                        f"{timestamp:.0f}s outside 0..{duration}s",
                    )
                continue
            bin_index = int(grid.bin_index(timestamp))
            if not obs.observe(result, bin_index):
                if quality is not None:
                    quality.degrade(
                        STAGE, DropReason.NO_BOUNDARY,
                        detail=f"probe {result.prb_id}: no adjacent "
                        "responding hop pair",
                    )
    return obs
