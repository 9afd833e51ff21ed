"""Per-link differential RTT extraction from traceroutes.

A *link* is an ordered pair of consecutive responding hop addresses
``(near, far)`` within one traceroute; hops whose replies all timed
out are skipped, exactly as in the source paper — the link spans the
silent middle.  Each traceroute contributes up to 9 differential
samples per link (pairwise ``far_rtt - near_rtt`` over the ≤3 sane
replies on each side).

The scan is the last-mile scan with its other selection:
:func:`repro.core.kernels.flat.gate` bins each record (NaN timestamps
are malformed, out-of-period clocks dropped), and
:func:`~repro.core.kernels.flat.walk_hops` with ``links=True`` takes
every adjacent responding pair where the last-mile estimate takes the
private→public boundary — the same sane filter and the same pairwise
subtraction.  A traceroute with no adjacent pair still counts toward
nothing but is flagged.  Every downstream aggregate (median, sorted
Wilson band, next-hop distribution) is invariant to sample order, so
the report does not depend on the order probes arrive in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..atlas.traceroute import TracerouteResult
from ..core.kernels.flat import book, gate, walk_hops
from ..quality import DataQualityReport
from ..timebase import TimeGrid

STAGE = "anomaly-links"

#: Link-id separator: hyphens appear in neither IPv4 dotted quads nor
#: IPv6 hextets, so ``near--far`` round-trips unambiguously and is
#: safe inside a URL path segment.
LINK_SEPARATOR = "--"

LinkKey = Tuple[str, str]


def link_id(near: str, far: str) -> str:
    """Canonical string id of a directed link."""
    return f"{near}{LINK_SEPARATOR}{far}"


def split_link_id(link: str) -> LinkKey:
    """Inverse of :func:`link_id`; raises ValueError on malformed ids."""
    parts = link.split(LINK_SEPARATOR)
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ValueError(f"malformed link id {link!r}")
    return (parts[0], parts[1])


@dataclass
class LinkObservations:
    """Accumulated per-link, per-bin observations from one scan.

    ``links`` holds the observed links in canonical id order; link
    ``links[i]`` is row ``i`` of ``counts`` (traceroutes that observed
    it, per bin: the sanity denominator) and owns every differential
    sample ``values[j]`` whose ``keys[j]`` is ``i * num_bins + bin`` —
    the flat layout :func:`~repro.core.kernels.flat.bin_medians`
    takes.  ``next_hops[(near, dst)][bin][far]`` counts the forwarding
    observations per route.
    """

    grid: TimeGrid
    links: List[LinkKey]
    counts: np.ndarray
    keys: np.ndarray
    values: np.ndarray
    next_hops: Dict[Tuple[str, str], Dict[int, Dict[str, int]]]
    processed: int = 0

    def link_ids(self) -> List[str]:
        """Canonical link ids, in row order (sorted)."""
        return [link_id(*key) for key in self.links]


def scan_links(
    results_by_probe: Dict[int, List[TracerouteResult]],
    grid: TimeGrid,
    quality: Optional[DataQualityReport] = None,
) -> LinkObservations:
    """Scan a whole dataset into :class:`LinkObservations`: gate,
    walk every adjacent pair, book, then lay the pairs out by link."""
    results = [
        result for probe_results in results_by_probe.values()
        for result in probe_results
    ]
    num_bins = grid.num_bins
    bins = gate(results, grid)
    gated = np.flatnonzero(bins >= 0)
    kept = [results[row] for row in gated.tolist()]
    pairs = walk_hops(kept, links=True)
    unmatched = np.zeros(len(results), dtype=bool)
    unmatched[gated] = np.bincount(pairs.rows, minlength=len(kept)) == 0
    book(
        quality, STAGE, results, bins, grid, unmatched,
        "no adjacent responding hop pair",
    )
    index: Dict[LinkKey, int] = {}
    pair_links = np.fromiter(
        (index.setdefault(key, len(index))
         for key in zip(pairs.near, pairs.far)),
        dtype=np.int64, count=len(pairs.far),
    )
    links = sorted(index, key=lambda k: link_id(*k))
    rank = np.zeros(len(links), dtype=np.int64)
    rank[[index[key] for key in links]] = np.arange(len(links))
    pair_rows = rank[pair_links]
    pair_bins = bins[gated][pairs.rows]
    counts = np.zeros((len(links), num_bins), dtype=np.int64)
    np.add.at(counts, (pair_rows, pair_bins), 1)
    next_hops: Dict[Tuple[str, str], Dict[int, Dict[str, int]]] = {}
    for i in np.flatnonzero(pairs.routed).tolist():
        route = (pairs.near[i], kept[pairs.rows[i]].dst_address)
        counter = next_hops.setdefault(route, {}).setdefault(
            int(pair_bins[i]), {}
        )
        counter[pairs.far[i]] = counter.get(pairs.far[i], 0) + 1
    return LinkObservations(
        grid=grid,
        processed=len(results),
        links=links,
        counts=counts,
        keys=np.repeat(
            pair_rows * num_bins + pair_bins, np.diff(pairs.offsets)
        ),
        values=pairs.samples,
        next_hops=next_hops,
    )
