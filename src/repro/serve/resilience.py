"""Resilience middleware for the serving layer.

Under real traffic the API's failure modes are overload (more
concurrent requests than the archive's read path can absorb) and
partial corruption (one period's artifacts failing checksums while
the rest of the archive is fine).  This module gives
:class:`~repro.serve.app.SurveyAPI` the three standard defenses:

* :class:`ConcurrencyLimiter` — a bounded in-flight counter; a
  request that cannot get a slot is **shed** immediately with
  ``503 + Retry-After`` instead of queueing unboundedly, so overload
  degrades to fast refusals, never to hangs
  (``requests_shed_total`` counts every refusal) and the
  ``serve_in_flight`` gauge follows every acquire and release;
* :class:`Deadline` — a per-request time budget; handlers check it at
  loop checkpoints so one slow archive walk cannot hold a worker
  thread forever (:class:`DeadlineExceeded` also maps to 503);
* :class:`CircuitBreaker` — per-period failure tracking around
  archive reads; after ``threshold`` consecutive checksum/IO failures
  a period's circuit **opens** and its requests fail fast with 503
  while every other period keeps serving — the archive degrades one
  period at a time, never whole.  After ``cooldown`` seconds one
  probe request is let through (*half-open*); success closes the
  circuit, failure re-opens it.  Tripped periods are surfaced in
  ``/v1/healthz`` and as the ``breaker_state`` gauge
  (0 closed / 1 half-open / 2 open).

Everything is clock-injectable (``time.monotonic`` by default) so
tests drive the breaker through its whole state machine without
sleeping.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..obs import PerObserver, get_observer

#: ``breaker_state`` gauge values.
STATE_CLOSED = "closed"
STATE_HALF_OPEN = "half-open"
STATE_OPEN = "open"

_STATE_VALUE = {STATE_CLOSED: 0, STATE_HALF_OPEN: 1, STATE_OPEN: 2}


class OverloadedError(Exception):
    """No concurrency slot free — the request was shed."""

    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(
            f"server at concurrency limit ({limit}); retry later"
        )


class DeadlineExceeded(Exception):
    """The request's time budget ran out mid-handling."""

    def __init__(self, budget: float):
        self.budget = budget
        super().__init__(
            f"request exceeded its {budget:.3g}s deadline"
        )


class BreakerOpenError(Exception):
    """The period's circuit is open — failing fast, not reading."""

    def __init__(self, key: str, failures: int):
        self.key = key
        self.failures = failures
        super().__init__(
            f"circuit for period {key!r} is open after "
            f"{failures} consecutive read failures"
        )


@dataclass(frozen=True)
class ResilienceConfig:
    """Tunables for the serving resilience middleware."""

    max_concurrency: int = 64
    deadline_seconds: float = 10.0
    retry_after_seconds: float = 1.0
    breaker_threshold: int = 3
    breaker_cooldown_seconds: float = 30.0

    def __post_init__(self):
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")


class ConcurrencyLimiter:
    """Bounded admission: try-acquire or shed, never queue."""

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self.limit = limit
        self._lock = threading.Lock()
        self._in_flight = 0
        self.shed_total = 0
        self._gauge = PerObserver(lambda obs: obs.gauge(
            "serve_in_flight", "requests currently being handled",
        ))

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def acquire(self) -> None:
        """Take a slot or raise :class:`OverloadedError` (no wait)."""
        gauge = self._gauge.get(get_observer())
        with self._lock:
            if self._in_flight >= self.limit:
                self.shed_total += 1
                raise OverloadedError(self.limit)
            self._in_flight += 1
            gauge.set(self._in_flight)

    def release(self) -> None:
        # The gauge is set under the lock, so the last writer always
        # holds the current count and a drained server reads 0.
        gauge = self._gauge.get(get_observer())
        with self._lock:
            self._in_flight = max(0, self._in_flight - 1)
            gauge.set(self._in_flight)


class Deadline:
    """A request's time budget, checked cooperatively at checkpoints."""

    __slots__ = ("budget", "_expires", "_clock")

    def __init__(
        self,
        seconds: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.budget = seconds
        self._clock = clock
        self._expires = clock() + seconds

    def remaining(self) -> float:
        return self._expires - self._clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self) -> None:
        """Raise :class:`DeadlineExceeded` once the budget is spent."""
        if self.expired:
            raise DeadlineExceeded(self.budget)


class _Circuit:
    """One period's breaker state (guarded by the breaker's lock)."""

    __slots__ = ("state", "failures", "opened_at", "probing")

    def __init__(self):
        self.state = STATE_CLOSED
        self.failures = 0
        self.opened_at = 0.0
        self.probing = False


class CircuitBreaker:
    """Per-key circuit breaker over the archive read path.

    Keys are period names: corruption is a per-artifact property, so
    one rotten period must not take down lookups against the healthy
    rest of the archive.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.threshold = threshold
        self.cooldown = cooldown_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._circuits: Dict[str, _Circuit] = {}

    # -- gauge plumbing ------------------------------------------------

    def _publish(self, key: str, circuit: _Circuit) -> None:
        obs = get_observer()
        obs.gauge(
            "breaker_state",
            "archive-read circuit per period "
            "(0 closed, 1 half-open, 2 open)",
            ("period",),
        ).set(_STATE_VALUE[circuit.state], period=key)

    def _transition(self, key: str, circuit: _Circuit,
                    state: str) -> None:
        if circuit.state == state:
            return
        circuit.state = state
        get_observer().counter(
            "breaker_transitions_total",
            "circuit state changes", ("period", "state"),
        ).inc(period=key, state=state)
        self._publish(key, circuit)

    # -- the protocol --------------------------------------------------

    def check(self, key: str) -> None:
        """Admission test before an archive read of ``key``.

        Raises :class:`BreakerOpenError` while the circuit is open.
        Once the cooldown elapses, exactly one caller is admitted as
        the half-open probe; concurrent callers keep failing fast
        until that probe resolves.
        """
        with self._lock:
            circuit = self._circuits.get(key)
            if circuit is None or circuit.state == STATE_CLOSED:
                return
            if circuit.state == STATE_OPEN:
                elapsed = self._clock() - circuit.opened_at
                if elapsed < self.cooldown:
                    raise BreakerOpenError(key, circuit.failures)
                self._transition(key, circuit, STATE_HALF_OPEN)
                circuit.probing = True
                return
            # Half-open: only the probe in flight may pass.
            if circuit.probing:
                raise BreakerOpenError(key, circuit.failures)
            circuit.probing = True

    def record_success(self, key: str) -> None:
        with self._lock:
            circuit = self._circuits.get(key)
            if circuit is None:
                return
            circuit.failures = 0
            circuit.probing = False
            self._transition(key, circuit, STATE_CLOSED)

    def record_failure(self, key: str) -> None:
        with self._lock:
            circuit = self._circuits.setdefault(key, _Circuit())
            circuit.failures += 1
            circuit.probing = False
            if (
                circuit.state == STATE_HALF_OPEN
                or circuit.failures >= self.threshold
            ):
                circuit.opened_at = self._clock()
                self._transition(key, circuit, STATE_OPEN)
            else:
                self._publish(key, circuit)

    # -- introspection -------------------------------------------------

    def state(self, key: str) -> str:
        with self._lock:
            circuit = self._circuits.get(key)
            return circuit.state if circuit else STATE_CLOSED

    def tripped(self) -> Dict[str, str]:
        """Non-closed circuits: ``{period: state}`` (healthz surface)."""
        with self._lock:
            return {
                key: c.state
                for key, c in sorted(self._circuits.items())
                if c.state != STATE_CLOSED
            }

    def reset(self, key: Optional[str] = None) -> None:
        """Manually close one circuit (or all) — post-repair hook."""
        with self._lock:
            keys = [key] if key is not None else list(self._circuits)
            for name in keys:
                circuit = self._circuits.get(name)
                if circuit is not None:
                    circuit.failures = 0
                    circuit.probing = False
                    self._transition(name, circuit, STATE_CLOSED)
