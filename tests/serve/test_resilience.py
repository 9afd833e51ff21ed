"""Resilience middleware: shedding, breaker, deadlines."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import observed
from repro.serve import (
    BreakerOpenError,
    CircuitBreaker,
    ConcurrencyLimiter,
    Deadline,
    DeadlineExceeded,
    OverloadedError,
    ResilienceConfig,
    SurveyAPI,
    SurveyServer,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestConcurrencyLimiter:
    def test_sheds_past_limit(self):
        limiter = ConcurrencyLimiter(2)
        limiter.acquire()
        limiter.acquire()
        with pytest.raises(OverloadedError):
            limiter.acquire()
        assert limiter.shed_total == 1
        limiter.release()
        limiter.acquire()  # slot freed, admission resumes
        assert limiter.in_flight == 2

    def test_release_never_goes_negative(self):
        limiter = ConcurrencyLimiter(1)
        limiter.release()
        assert limiter.in_flight == 0

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            ConcurrencyLimiter(0)


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown_seconds=30,
                                 clock=clock)
        breaker.check("p")  # closed: admits
        breaker.record_failure("p")
        breaker.record_failure("p")
        assert breaker.state("p") == "closed"
        breaker.record_failure("p")
        assert breaker.state("p") == "open"
        with pytest.raises(BreakerOpenError):
            breaker.check("p")

    def test_per_key_isolation(self):
        breaker = CircuitBreaker(threshold=1, clock=FakeClock())
        breaker.record_failure("bad")
        assert breaker.state("bad") == "open"
        breaker.check("good")  # unaffected
        assert breaker.tripped() == {"bad": "open"}

    def test_half_open_probe_then_close(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_seconds=10,
                                 clock=clock)
        breaker.record_failure("p")
        with pytest.raises(BreakerOpenError):
            breaker.check("p")
        clock.advance(11)
        breaker.check("p")  # the half-open probe is admitted
        assert breaker.state("p") == "half-open"
        # Concurrent callers fail fast while the probe is out.
        with pytest.raises(BreakerOpenError):
            breaker.check("p")
        breaker.record_success("p")
        assert breaker.state("p") == "closed"
        assert breaker.tripped() == {}

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown_seconds=10,
                                 clock=clock)
        for _ in range(3):
            breaker.record_failure("p")
        clock.advance(11)
        breaker.check("p")
        breaker.record_failure("p")  # probe failed
        assert breaker.state("p") == "open"
        with pytest.raises(BreakerOpenError):
            breaker.check("p")  # cooldown restarted

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(threshold=2, clock=FakeClock())
        breaker.record_failure("p")
        breaker.record_success("p")
        breaker.record_failure("p")
        assert breaker.state("p") == "closed"

    def test_reset_closes(self):
        breaker = CircuitBreaker(threshold=1, clock=FakeClock())
        breaker.record_failure("p")
        breaker.reset("p")
        assert breaker.state("p") == "closed"


class TestDeadline:
    def test_expires_with_the_clock(self):
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock)
        deadline.check()
        assert deadline.remaining() == 5.0
        clock.advance(5.1)
        assert deadline.expired
        with pytest.raises(DeadlineExceeded):
            deadline.check()


class BlockingArchive:
    """Archive wrapper whose period reads block on an event."""

    def __init__(self, archive, gate):
        self._archive = archive
        self._gate = gate

    def __getattr__(self, name):
        return getattr(self._archive, name)

    def __len__(self):
        return len(self._archive)

    def __contains__(self, name):
        return name in self._archive

    def get_period(self, name):
        self._gate.wait(timeout=30)
        return self._archive.get_period(name)


class TestShedding:
    def test_burst_sheds_exactly_the_overflow(self, archive):
        """The acceptance burst: limit N, 4N requests → N served,
        3N shed with 503 + Retry-After, counter matches exactly."""
        limit = 4
        gate = threading.Event()
        api = SurveyAPI(
            BlockingArchive(archive, gate),
            resilience=ResilienceConfig(
                max_concurrency=limit, retry_after_seconds=2,
            ),
        )
        results = [None] * (4 * limit)

        def worker(i):
            results[i] = api.handle("/v1/period/2019-06")

        with observed() as obs:
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(len(results))
            ]
            # Fill every slot first, then send the overflow.
            for t in threads[:limit]:
                t.start()
            deadline = threading.Event()
            for _ in range(100):
                if api.limiter.in_flight == limit:
                    break
                deadline.wait(0.05)
            assert api.limiter.in_flight == limit
            for t in threads[limit:]:
                t.start()
            for t in threads[limit:]:
                t.join(timeout=30)
            gate.set()
            for t in threads[:limit]:
                t.join(timeout=30)

        statuses = sorted(r.status for r in results)
        assert statuses == [200] * limit + [503] * (3 * limit)
        for r in results:
            if r.status == 503:
                assert dict(r.headers)["Retry-After"] == "2"
                assert json.loads(r.body)["error"] == "Overloaded"
        shed = obs.metrics.counter("requests_shed_total", "")
        assert shed.value() == 3 * limit
        assert api.limiter.shed_total == 3 * limit
        assert api.limiter.in_flight == 0

    def test_http_burst_no_hangs(self, archive):
        """End-to-end overload through a real socket: every request
        answers 200 or 503, nothing hangs, counters reconcile."""
        limit = 4
        burst = 4 * limit
        gate = threading.Event()
        api = SurveyAPI(
            BlockingArchive(archive, gate),
            resilience=ResilienceConfig(max_concurrency=limit),
        )
        statuses = [None] * burst
        with SurveyServer(api) as server:
            def fetch(i):
                try:
                    with urllib.request.urlopen(
                        server.url + "/v1/period/2019-09", timeout=30
                    ) as reply:
                        statuses[i] = reply.status
                except urllib.error.HTTPError as exc:
                    statuses[i] = exc.code
                    assert exc.headers["Retry-After"] is not None

            threads = [
                threading.Thread(target=fetch, args=(i,))
                for i in range(burst)
            ]
            for t in threads:
                t.start()
            # Open the gate once the limiter saturated (or the whole
            # burst was already absorbed, on a slow machine).
            for _ in range(200):
                if api.limiter.in_flight >= limit or all(
                    s is not None for s in statuses
                ):
                    break
                threading.Event().wait(0.05)
            gate.set()
            for t in threads:
                t.join(timeout=30)

        assert all(s in (200, 503) for s in statuses), statuses
        assert statuses.count(200) >= 1
        served = statuses.count(200)
        assert api.limiter.shed_total == burst - served


class TestBreakerIntegration:
    def test_corrupt_period_trips_then_recovers(self, archive):
        from repro.store import SurveyArchive

        # Reopen cold: the ingesting instance holds payloads in
        # memory and would never touch the corrupted bytes.
        archive = SurveyArchive(archive.root)
        clock = FakeClock()
        api = SurveyAPI(
            archive,
            resilience=ResilienceConfig(
                breaker_threshold=2, breaker_cooldown_seconds=30,
            ),
            clock=clock,
        )
        period_file = archive.segment_path("2019-06")
        pristine = period_file.read_bytes()
        period_file.write_bytes(pristine[:-40] + b"x" * 40)

        # Repeated corrupt reads: 503s, then the circuit opens.
        first = api.handle("/v1/period/2019-06")
        assert first.status == 503
        assert json.loads(first.body)["error"] == "ArchiveCorruptionError"
        second = api.handle("/v1/period/2019-06")
        assert second.status == 503
        assert api.breaker.state("2019-06") == "open"
        tripped = api.handle("/v1/period/2019-06")
        assert tripped.status == 503
        assert json.loads(tripped.body)["error"] == "BreakerOpenError"
        assert dict(tripped.headers)["Retry-After"]

        # The healthy period keeps serving throughout.
        assert api.handle("/v1/period/2019-09").status == 200

        # Health reports the degradation, uncached.
        health = json.loads(api.handle("/v1/healthz").body)
        assert health["status"] == "degraded"
        assert health["degraded_periods"] == {"2019-06": "open"}

        # Cooldown passes, the artifact is restored (the first read
        # quarantined it), the probe succeeds: circuit closes.
        clock.advance(31)
        period_file.parent.mkdir(exist_ok=True)
        period_file.write_bytes(pristine)
        probe = api.handle("/v1/period/2019-06")
        assert probe.status == 200
        assert api.breaker.state("2019-06") == "closed"
        assert json.loads(api.handle("/v1/healthz").body)["status"] == "ok"

    def test_breaker_counters(self, archive):
        from repro.store import SurveyArchive

        archive = SurveyArchive(archive.root)
        with observed() as obs:
            api = SurveyAPI(
                archive,
                resilience=ResilienceConfig(breaker_threshold=1),
                clock=FakeClock(),
            )
            period_file = archive.segment_path("2019-06")
            period_file.write_bytes(b"garbage")
            api.handle("/v1/period/2019-06")
        gauge = obs.metrics.gauge("breaker_state", "", ("period",))
        assert gauge.value(period="2019-06") == 2  # open
        transitions = obs.metrics.counter(
            "breaker_transitions_total", "", ("period", "state")
        )
        assert transitions.value(period="2019-06", state="open") == 1


class AdvancingArchive:
    """Archive wrapper that burns fake time on every meta read."""

    def __init__(self, archive, clock, cost):
        self._archive = archive
        self._clock = clock
        self._cost = cost

    def __getattr__(self, name):
        return getattr(self._archive, name)

    def __len__(self):
        return len(self._archive)

    def period_meta(self, name):
        self._clock.advance(self._cost)
        return self._archive.period_meta(name)


class TestDeadlineIntegration:
    def test_slow_walk_maps_to_503(self, archive):
        clock = FakeClock()
        api = SurveyAPI(
            AdvancingArchive(archive, clock, cost=6.0),
            resilience=ResilienceConfig(deadline_seconds=5.0),
            clock=clock,
        )
        response = api.handle("/v1/periods")
        assert response.status == 503
        assert json.loads(response.body)["error"] == "DeadlineExceeded"


class TestLiveShedding:
    def test_against_live_server_shed_then_served(self, archive):
        """A request shed at the limit gets 503 + Retry-After; once the
        slot frees, the same request is served."""
        api = SurveyAPI(
            archive,
            resilience=ResilienceConfig(
                max_concurrency=1, retry_after_seconds=0,
            ),
        )
        gate = threading.Event()
        release = threading.Event()
        original = api.archive.get_period

        def slow_get_period(name):
            gate.set()
            release.wait(timeout=30)
            return original(name)

        api.archive.get_period = slow_get_period
        with SurveyServer(api) as server:
            occupant = threading.Thread(
                target=urllib.request.urlopen,
                args=(server.url + "/v1/period/2019-06",),
                kwargs={"timeout": 30},
            )
            occupant.start()
            assert gate.wait(timeout=30)

            url = server.url + "/v1/healthz"
            with pytest.raises(urllib.error.HTTPError) as shed:
                urllib.request.urlopen(url, timeout=30)
            assert shed.value.code == 503
            assert shed.value.headers["Retry-After"] == "0"

            release.set()
            occupant.join(timeout=30)
            with urllib.request.urlopen(url, timeout=30) as response:
                assert response.status == 200
