"""The per-traceroute last-mile sampler the flat scan replaced.

Kept verbatim as the oracle of :func:`repro.core.kernels.flat.walk_hops`
(and so of :func:`repro.core.lastmile.lastmile_samples`, its
one-traceroute case): locate the private→public boundary hop by hop,
filter each side's replies through ``_sane``, and take the Python
list product.  ``tests/kernels/test_scan_oracles.py`` holds the scan
to it traceroute by traceroute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.atlas.traceroute import Hop, TracerouteResult
from repro.core.lastmile import classify_hop_address


@dataclass(frozen=True)
class BoundaryHops:
    """The last private and first public hops of one traceroute.

    ``last_private`` is None for vantage points with no private hop
    (datacenter hosts / anchors).
    """

    last_private: Optional[Hop]
    first_public: Hop


def find_boundary(result: TracerouteResult) -> Optional[BoundaryHops]:
    """Locate the private→public boundary of one traceroute.

    Scans hops in order: remembers the most recent private hop, stops
    at the first public hop.  Hops whose replies all timed out (or are
    anomalous) are skipped.  Returns None when no public hop ever
    responds (fully broken traceroute).
    """
    last_private: Optional[Hop] = None
    for hop in result.hops:
        address = hop.responding_address
        if address is None:
            continue
        kind = classify_hop_address(address)
        if kind == "private":
            last_private = hop
        elif kind == "public":
            return BoundaryHops(last_private=last_private, first_public=hop)
    return None


def lastmile_samples(result: TracerouteResult) -> List[float]:
    """Per-traceroute last-mile RTT samples (up to 9).

    Pairwise subtraction of the last private hop's RTTs from the first
    public hop's RTTs.  With no private hop the public hop's RTTs are
    used directly (anchor case).  Timeout replies simply yield fewer
    samples.

    Replies whose RTT is non-finite (NaN/inf from a corrupt record)
    or negative are discarded by the same sanity filter.  When *every*
    reply of the public hop — or, for non-anchors, of the private
    hop — is insane, the pairwise product is empty and the traceroute
    yields no samples at all, exactly like a traceroute whose boundary
    never responded; the scan then counts it toward bin sanity but
    flags it as degraded.
    """
    boundary = find_boundary(result)
    if boundary is None:
        return []
    public_rtts = [r for r in boundary.first_public.rtts if _sane(r)]
    if boundary.last_private is None:
        return list(public_rtts)
    private_rtts = [
        r for r in boundary.last_private.rtts if _sane(r)
    ]
    return [
        public_rtt - private_rtt
        for public_rtt in public_rtts
        for private_rtt in private_rtts
    ]


def _sane(rtt: float) -> bool:
    """Defense in depth against garbage RTTs that bypassed parsing."""
    return np.isfinite(rtt) and rtt >= 0.0
