"""Closed-form queueing formulas.

The simulators do not run a packet-level event loop: a 15-day window
with thousands of subscribers would be intractable and is unnecessary
for reproducing the paper, whose signals are 30-minute medians.  At
that timescale a queue is well described by its *stationary* behaviour
under the current offered load, so we use standard closed-form results
(M/M/1, M/D/1, M/G/1 via Pollaczek–Khinchine) to map utilization to
mean waiting time, and sample per-packet delays from the corresponding
waiting-time distribution.

All functions are vectorized over numpy arrays of utilization values.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Utilizations are clipped here before the 1/(1-rho) terms so signals
#: saturate instead of diverging — mimicking the finite buffers that
#: turn extreme overload into loss rather than infinite delay.
MAX_STABLE_UTILIZATION = 0.999


def _clip_rho(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=np.float64)
    if np.any(rho < 0.0):
        raise ValueError("negative utilization")
    return np.clip(rho, 0.0, MAX_STABLE_UTILIZATION)


def mm1_wait(rho, service_time: float) -> np.ndarray:
    """Mean M/M/1 waiting time (time in queue, excluding service).

    ``W_q = rho / (1 - rho) * service_time``.
    """
    if service_time <= 0:
        raise ValueError(f"non-positive service time {service_time}")
    rho = _clip_rho(rho)
    return service_time * rho / (1.0 - rho)


def md1_wait(rho, service_time: float) -> np.ndarray:
    """Mean M/D/1 waiting time: half the M/M/1 value.

    Deterministic service (fixed-size packets on a constant-rate link)
    halves the queueing term.
    """
    return 0.5 * mm1_wait(rho, service_time)


def mg1_wait(rho, service_time: float, scv: float) -> np.ndarray:
    """Mean M/G/1 waiting time via Pollaczek–Khinchine.

    ``scv`` is the squared coefficient of variation of service times:
    0 gives M/D/1, 1 gives M/M/1, >1 models heavy-tailed mixes of
    small ACKs and full-size data packets (realistic access links are
    around 1.2–1.6).
    """
    if scv < 0:
        raise ValueError(f"negative squared CV {scv}")
    return 0.5 * (1.0 + scv) * mm1_wait(rho, service_time)


def mm1_wait_quantile(rho, service_time: float, q: float) -> np.ndarray:
    """Quantile of the M/M/1 waiting-time distribution.

    The M/M/1 wait is a mixture: with probability ``1 - rho`` the queue
    is empty (zero wait), otherwise the wait is exponential with mean
    ``service_time / (1 - rho)``.  The paper's pipeline computes bin
    *medians*, so the median of this mixture is what a perfectly clean
    measurement would recover.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} outside (0,1)")
    rho = _clip_rho(rho)
    scale = service_time / (1.0 - rho)
    # P(W <= w) = 1 - rho * exp(-w / scale); invert for q.
    with np.errstate(divide="ignore", invalid="ignore"):
        quantile = -scale * np.log((1.0 - q) / np.where(rho > 0, rho, 1.0))
    return np.where(q <= 1.0 - rho, 0.0, np.maximum(quantile, 0.0))


def sample_mm1_waits(
    rho,
    service_time: float,
    samples: int,
    rng: np.random.Generator,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Draw per-packet waits from the M/M/1 waiting-time mixture.

    ``rho`` may be a scalar (returns shape ``(samples,)``) or a vector
    of length B (returns shape ``(B, samples)``) — one row of packet
    waits per time bin.

    ``out``, a C-contiguous float64 array of shape ``(B, samples)``
    (``(1, samples)`` for a scalar ``rho``), receives the waits in
    place, so a caller can reuse one buffer across draws.  Without it
    one is allocated; either way the draws fill the buffer directly
    (``random(out=)``, ``standard_exponential(out=)``), which gives the
    same bytes as ``random(size)`` and ``exponential(1.0, size)``.
    """
    rho = _clip_rho(rho)
    scalar = rho.ndim == 0
    rho = np.atleast_1d(rho)
    shape = (rho.shape[0], samples)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, need {shape}")
    scale = service_time / (1.0 - rho)
    busy = rng.random(out=out) < rho[:, None]
    rng.standard_exponential(out=out)
    out *= busy
    out *= scale[:, None]
    return out[0] if scalar else out


def erlang_loss(rho, servers: int = 1) -> np.ndarray:
    """Erlang-B blocking probability for a small server group.

    Used for the PPPoE session-concentrator model, where the scarce
    resource is session/tunnel slots rather than bits per second.
    """
    if servers < 1:
        raise ValueError(f"need >= 1 server, got {servers}")
    rho = np.asarray(rho, dtype=np.float64)
    if np.any(rho < 0):
        raise ValueError("negative offered load")
    # Iterative Erlang-B recursion, vectorized over rho.
    offered = rho * servers
    b = np.ones_like(offered)
    for k in range(1, servers + 1):
        b = offered * b / (k + offered * b)
    return b


def overload_loss(
    rho,
    onset: float = 0.90,
    sharpness: float = 40.0,
    ceiling: float = 0.04,
) -> np.ndarray:
    """Packet-loss probability rising smoothly past an onset utilization.

    Below ``onset`` loss is essentially zero; above it loss climbs
    logistic-style, saturating at ``ceiling`` — a few percent, the
    sustained tail-drop loss of an overloaded access concentrator.
    This couples the delay and throughput sides of the reproduction:
    the same utilization series drives both queueing delay and the TCP
    loss term, which is what produces the paper's Fig. 7
    delay/throughput anticorrelation.
    """
    if not 0.0 < ceiling < 1.0:
        raise ValueError(f"ceiling {ceiling} outside (0,1)")
    rho = np.asarray(rho, dtype=np.float64)
    return ceiling / (1.0 + np.exp(-sharpness * (rho - onset) / onset))
