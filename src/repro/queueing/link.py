"""Link and shared-device models.

A :class:`LinkModel` turns a utilization series (from
:mod:`repro.traffic`) into queueing delay and loss series; a
:class:`SharedDevice` binds a link model to a population of attached
subscribers — the aggregation equipment (PPPoE BRAS, OLT, CMTS,
cellular scheduler) whose exhaustion is the paper's subject.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..timebase import TimeGrid
from ..traffic import DemandSeries, offered_load
from .models import mg1_wait, overload_loss, sample_mm1_waits


@dataclass(frozen=True)
class LinkModel:
    """Stationary queueing behaviour of one shared link/device.

    Parameters
    ----------
    service_time_ms:
        Effective per-packet service time at the bottleneck, in ms.
        Sets the delay scale: legacy BRAS line cards with long buffers
        use ~0.1–0.3 ms; a modern core link uses ~0.01 ms.
    scv:
        Squared coefficient of variation of service times (M/G/1 via
        Pollaczek–Khinchine); ~1.3 for mixed packet sizes.
    max_delay_ms:
        Buffer depth expressed as maximum queueing delay.  Past this,
        delay saturates and loss takes over.
    loss_onset:
        Utilization where packet loss starts to become material.
    """

    service_time_ms: float = 0.15
    scv: float = 1.3
    max_delay_ms: float = 100.0
    loss_onset: float = 0.90
    #: Saturation loss probability in sustained overload.
    loss_ceiling: float = 0.04

    def __post_init__(self):
        if self.service_time_ms <= 0:
            raise ValueError(f"bad service time {self.service_time_ms}")
        if self.max_delay_ms <= 0:
            raise ValueError(f"bad max delay {self.max_delay_ms}")
        if not 0.0 < self.loss_onset <= 1.0:
            raise ValueError(f"bad loss onset {self.loss_onset}")
        if not 0.0 < self.loss_ceiling < 1.0:
            raise ValueError(f"bad loss ceiling {self.loss_ceiling}")

    def mean_delay_ms(self, rho) -> np.ndarray:
        """Mean queueing delay (ms) at each utilization value."""
        wait = mg1_wait(rho, self.service_time_ms, self.scv)
        return np.minimum(wait, self.max_delay_ms)

    def loss_probability(self, rho) -> np.ndarray:
        """Packet-loss probability at each utilization value."""
        return overload_loss(
            rho, onset=self.loss_onset, ceiling=self.loss_ceiling
        )

    def sample_packet_delays_ms(
        self,
        rho,
        samples: int,
        rng: np.random.Generator,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-packet queueing delays (ms).

        Sampled from the M/M/1 waiting-time mixture rescaled so its
        mean matches the M/G/1 mean — keeps the sampled and analytic
        paths consistent (used to validate `binned` vs `full` fidelity).
        ``out`` is an optional buffer for the delays (see
        :func:`~repro.queueing.models.sample_mm1_waits`).
        """
        delays = sample_mm1_waits(
            rho, self.service_time_ms, samples, rng, out=out
        )
        delays *= 0.5 * (1.0 + self.scv)
        return np.minimum(delays, self.max_delay_ms, out=delays)


@dataclass
class SharedDevice:
    """A shared bottleneck device with its demand and provisioning.

    ``peak_utilization`` is the provisioning knob: how hot the device
    runs at the weekly demand peak.  The legacy-BRAS scenario sets it
    near 0.95–0.99; a healthy device sits near 0.4–0.6.
    """

    name: str
    link: LinkModel
    demand: DemandSeries
    peak_utilization: float
    jitter_std: float = 0.02
    #: Device owner (ASN) — the wholesale legacy network for BRAS
    #: devices, the ISP itself otherwise.  Informational.
    owner_asn: int = 0
    _cache: dict = field(default_factory=dict, repr=False)

    def _jitter_rng(self, grid: TimeGrid) -> np.random.Generator:
        """Deterministic per-(device, grid) jitter source.

        Derived from the device name and the period rather than any
        caller-supplied generator, so utilization series never depend
        on which probe or analysis touched the device first.
        """
        import zlib

        seed = (
            zlib.crc32(self.name.encode("utf-8")),
            zlib.crc32(grid.period.name.encode("utf-8")),
            grid.bin_seconds,
        )
        return np.random.default_rng(seed)

    def utilization(
        self, grid: TimeGrid, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Per-bin utilization over the grid (cached per grid).

        Passing any ``rng`` enables load jitter; the actual noise comes
        from a deterministic per-(device, period) stream regardless of
        the generator passed, keeping results call-order independent.
        Pass None for the jitter-free path.
        """
        key = (grid.period.name, grid.bin_seconds, rng is not None)
        if key not in self._cache:
            self._cache[key] = offered_load(
                self.demand,
                grid,
                peak_utilization=self.peak_utilization,
                jitter_std=self.jitter_std if rng is not None else 0.0,
                rng=self._jitter_rng(grid) if rng is not None else None,
            )
        return self._cache[key]

    def delay_series_ms(
        self, grid: TimeGrid, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Mean queueing delay (ms) per bin."""
        return self.link.mean_delay_ms(self.utilization(grid, rng))

    def loss_series(
        self, grid: TimeGrid, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Loss probability per bin."""
        return self.link.loss_probability(self.utilization(grid, rng))
