"""Atlas probe and anchor models.

Probes are small hardware devices in volunteers' homes; anchors are
rack-mounted servers in datacenters.  The paper's methodology treats
them differently (anchors are excluded from last-mile analysis, §2)
and its Appendix B uses an anchor as an uncongested control.

Firmware generations matter too: the paper notes (citing Holterbach et
al.) that v1/v2 probes are less reliable; it keeps them for coverage in
the large survey but drops them for the Tokyo case study.  We model
that as extra measurement noise and occasional RTT inflation spikes.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..topology import Subscriber


class ProbeVersion(enum.Enum):
    """Hardware/firmware generation of an Atlas probe."""

    V1 = 1
    V2 = 2
    V3 = 3
    ANCHOR = 99

    @property
    def noise_multiplier(self) -> float:
        """Extra per-reply noise relative to a v3 probe."""
        return {1: 2.5, 2: 2.0, 3: 1.0, 99: 0.5}[self.value]

    @property
    def interference_rate_per_day(self) -> float:
        """Expected count of self-inflicted RTT-inflation episodes.

        v1/v2 probes inflate RTTs when their CPU is busy with
        concurrent measurements (Holterbach et al., IMC 2015).
        """
        return {1: 1.5, 2: 1.0, 3: 0.15, 99: 0.0}[self.value]


@dataclass(frozen=True)
class Interval:
    """Half-open time interval in seconds from period start."""

    start: float
    end: float

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError(f"interval ends before it starts: {self}")

    def contains(self, t: float) -> bool:
        """True if ``start <= t < end``."""
        return self.start <= t < self.end

    @property
    def duration(self) -> float:
        """Interval length in seconds."""
        return self.end - self.start


@dataclass
class Probe:
    """One deployed vantage point.

    ``outages`` and ``interference`` are regenerated per measurement
    period by the platform; they are empty on a freshly built probe.
    """

    probe_id: int
    subscriber: Subscriber
    version: ProbeVersion
    city: str = ""
    #: Windows where the probe is offline (power cut, moved, ...).
    outages: List[Interval] = field(default_factory=list)
    #: Windows where measurements are locally inflated: (interval,
    #: added milliseconds) pairs.
    interference: List[Tuple[Interval, float]] = field(default_factory=list)
    #: PPPoE session re-establishments: (time, new base-RTT delta ms)
    #: pairs, sorted by time.  Each reconnect lands the subscriber on a
    #: different BRAS line card: the first-public-hop address and the
    #: base access RTT both shift slightly.
    reconnects: List[Tuple[float, float]] = field(default_factory=list)

    def __post_init__(self):
        if self.probe_id < 0:
            raise ValueError(f"negative probe id {self.probe_id}")
        if self.is_anchor and not self.subscriber.is_datacenter:
            raise ValueError("anchor probes must sit on datacenter hosts")

    @property
    def is_anchor(self) -> bool:
        """True for anchors (excluded from last-mile analysis)."""
        return self.version is ProbeVersion.ANCHOR

    @property
    def asn(self) -> int:
        """AS hosting this probe."""
        return self.subscriber.asn

    def connected_at(self, t: float) -> bool:
        """True when the probe is online at time ``t``."""
        return not any(o.contains(t) for o in self.outages)

    def interference_at(self, t: float) -> float:
        """Milliseconds of self-inflicted inflation at time ``t``."""
        return sum(
            extra for interval, extra in self.interference
            if interval.contains(t)
        )

    def session_at(self, t: float) -> Tuple[int, float]:
        """(session index, base-RTT delta ms) active at time ``t``.

        Session 0 (delta 0) runs from the period start until the first
        reconnect; each reconnect starts the next session, so a
        reconnect at exactly ``t`` is already in effect.
        """
        index = bisect.bisect_right([when for when, _ in self.reconnects], t)
        return index, self.reconnects[index - 1][1] if index else 0.0

    def session_deltas(self, times: np.ndarray) -> np.ndarray:
        """Base-RTT delta (ms) active at each of ``times``.

        The vector form of ``session_at``: the same right-bisection
        over the sorted reconnect times, in one ``searchsorted``.
        """
        whens = np.array([when for when, _ in self.reconnects])
        deltas = np.array([0.0] + [delta for _, delta in self.reconnects])
        return deltas[np.searchsorted(whens, times, side="right")]


def sample_outages(
    rng: np.random.Generator,
    duration_seconds: float,
    outage_rate_per_day: float = 0.08,
    mean_outage_seconds: float = 6 * 3600.0,
) -> List[Interval]:
    """Draw random probe outages over a period.

    Poisson arrivals with exponential durations; a small rate keeps
    most probes online throughout, matching the high availability of
    the real platform.
    """
    days = duration_seconds / 86400.0
    count = rng.poisson(outage_rate_per_day * days)
    outages = []
    for _ in range(count):
        start = float(rng.uniform(0.0, duration_seconds))
        length = float(rng.exponential(mean_outage_seconds))
        outages.append(
            Interval(start, min(start + length, duration_seconds))
        )
    return sorted(outages, key=lambda o: o.start)


def sample_reconnects(
    rng: np.random.Generator,
    duration_seconds: float,
    rate_per_day: float = 0.2,
    rebase_std_ms: float = 0.3,
) -> List[Tuple[float, float]]:
    """Draw PPPoE reconnect events for one probe over a period.

    Home routers hold sessions for days; reconnects follow CPE reboots
    and carrier-side re-authentication.  Each lands on a slightly
    different base RTT (new line card / LAC hop), drawn ~N(0, 0.3 ms).
    """
    days = duration_seconds / 86400.0
    count = rng.poisson(rate_per_day * days)
    times = sorted(
        float(rng.uniform(0.0, duration_seconds)) for _ in range(count)
    )
    return [
        (when, float(rng.normal(0.0, rebase_std_ms)))
        for when in times
    ]


def sample_interference(
    rng: np.random.Generator,
    duration_seconds: float,
    version: ProbeVersion,
    mean_episode_seconds: float = 300.0,
) -> List[Tuple[Interval, float]]:
    """Draw measurement-interference episodes for one probe.

    Episodes are short (minutes) and inflate RTTs by tens of ms —
    exactly the artifact the paper's 30-minute median binning is
    designed to suppress.
    """
    days = duration_seconds / 86400.0
    count = rng.poisson(version.interference_rate_per_day * days)
    episodes = []
    for _ in range(count):
        start = float(rng.uniform(0.0, duration_seconds))
        length = float(rng.exponential(mean_episode_seconds))
        extra_ms = float(rng.uniform(5.0, 60.0))
        episodes.append(
            (Interval(start, min(start + length, duration_seconds)),
             extra_ms)
        )
    return sorted(episodes, key=lambda e: e[0].start)
