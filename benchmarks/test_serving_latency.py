"""E12 — survey-serving benchmark (not a paper figure).

Measures the operator-lookup path the serving subsystem exists for:
warm-cache ``/v1/as/<asn>`` point lookups against a longitudinal
archive of at least 100 ASes over at least 4 periods, reported as
p50/p99 latency and sustained requests/sec — once at the API layer
(no sockets) and once over real HTTP on an ephemeral port.

A second bench drives the same server past its concurrency limit and
records the shed rate and the p99 of the requests that *were* served
— the load-shedding contract's cost, tracked release over release in
``BENCH_serving.json`` next to the warm-path numbers.
"""

import datetime as dt
import http.client
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from conftest import record_serving_bench, write_report
from repro.core import Classification, Severity, SurveyResult
from repro.core.spectral import SpectralMarkers
from repro.core.survey import ASReport
from repro.serve import ResilienceConfig, SurveyAPI, SurveyServer
from repro.store import SurveyArchive
from repro.timebase import MeasurementPeriod

N_ASES = 120
PERIODS = ("2019-03", "2019-06", "2019-09", "2019-12")
SEVERITIES = (
    Severity.NONE, Severity.LOW, Severity.MILD, Severity.SEVERE,
)


def synthetic_survey(name: str, start: dt.datetime) -> SurveyResult:
    result = SurveyResult(
        period=MeasurementPeriod(name, start, 15)
    )
    for i in range(N_ASES):
        asn = 64500 + i
        severity = SEVERITIES[(i + start.month) % len(SEVERITIES)]
        amplitude = 1.5 * ((i + start.month) % len(SEVERITIES))
        markers = None
        if severity is not Severity.NONE:
            markers = SpectralMarkers(
                prominent_frequency_cph=1 / 24,
                prominent_amplitude_ms=amplitude,
                daily_amplitude_ms=amplitude,
            )
        result.reports[asn] = ASReport(
            asn=asn, probe_count=5 + i % 20,
            classification=Classification(severity, markers),
        )
    return result


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    root = tmp_path_factory.mktemp("serving-bench") / "arc"
    archive = SurveyArchive(root)
    for offset, name in enumerate(PERIODS):
        archive.ingest(synthetic_survey(
            name, dt.datetime(2019, 3 * (offset + 1), 1)
        ))
    assert len(archive.periods()) >= 4
    assert len(archive.asns(PERIODS[0])) >= 100
    return archive


def percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(
        len(ordered) - 1, int(round(fraction * (len(ordered) - 1)))
    )
    return ordered[index]


def test_serving_latency(archive):
    api = SurveyAPI(archive, cache_size=1024)
    targets = [
        f"/v1/as/{64500 + i % N_ASES}?period={PERIODS[i % 4]}"
        for i in range(N_ASES * 4)
    ]
    for target in targets:            # warm the LRU
        assert api.handle(target).status == 200

    # -- API layer (no sockets) ---------------------------------------
    samples = []
    rounds = 5
    started = time.perf_counter()
    for _ in range(rounds):
        for target in targets:
            t0 = time.perf_counter()
            response = api.handle(target)
            samples.append(time.perf_counter() - t0)
            assert response.status == 200
    api_elapsed = time.perf_counter() - started
    api_rps = len(samples) / api_elapsed
    api_p50 = percentile(samples, 0.50) * 1e6
    api_p99 = percentile(samples, 0.99) * 1e6
    assert api.cache.stats.hit_rate > 0.9

    # -- over HTTP on an ephemeral port -------------------------------
    # Keep-alive HTTP/1.1: one persistent connection, so the measured
    # path is the server's request/response work (mmap-backed archive
    # reads included), not per-request TCP handshakes.
    http_samples = []
    with SurveyServer(api) as server:
        parsed = urllib.parse.urlsplit(server.url)
        conn = http.client.HTTPConnection(
            parsed.hostname, parsed.port, timeout=10
        )
        conn.request("GET", targets[0])
        response = conn.getresponse()
        etag = response.headers["ETag"]
        response.read()
        assert response.status == 200
        started = time.perf_counter()
        for i in range(1200):
            t0 = time.perf_counter()
            conn.request("GET", targets[i % len(targets)])
            response = conn.getresponse()
            body = response.read()
            assert response.status == 200
            http_samples.append(time.perf_counter() - t0)
            assert body
        http_elapsed = time.perf_counter() - started
        # One conditional re-request: the 304 path stays cheap.
        conn.request(
            "GET", targets[0], headers={"If-None-Match": etag}
        )
        response = conn.getresponse()
        response.read()
        not_modified = response.status == 304
        conn.close()
    http_rps = len(http_samples) / http_elapsed
    http_p50 = percentile(http_samples, 0.50) * 1e6
    http_p99 = percentile(http_samples, 0.99) * 1e6

    lines = [
        "Warm-cache /v1/as/<asn> lookups "
        f"({len(archive.periods())} periods x {N_ASES} ASes, "
        "packed segments):",
        "",
        f"{'layer':<12}{'p50 (us)':>12}{'p99 (us)':>12}"
        f"{'req/s':>12}",
        f"{'api':<12}{api_p50:>12.1f}{api_p99:>12.1f}"
        f"{api_rps:>12.0f}",
        f"{'http':<12}{http_p50:>12.1f}{http_p99:>12.1f}"
        f"{http_rps:>12.0f}",
        "",
        f"LRU hit rate: {api.cache.stats.hit_rate:.3f}  "
        f"(hits {api.cache.stats.hits}, "
        f"misses {api.cache.stats.misses})",
        f"conditional re-request -> 304: {not_modified}",
    ]
    write_report("serving_latency", "\n".join(lines))
    record_serving_bench("warm_lookup", {
        "api_p50_us": round(api_p50, 1),
        "api_p99_us": round(api_p99, 1),
        "api_rps": round(api_rps),
        "http_p50_us": round(http_p50, 1),
        "http_p99_us": round(http_p99, 1),
        "http_rps": round(http_rps),
        "lru_hit_rate": round(api.cache.stats.hit_rate, 3),
    })

    assert not_modified
    assert api_rps > 1000          # warm dict hits, generous floor
    # The keep-alive socketserver shell read 5960-7396 req/s on a
    # shared 2-vCPU VM (the http.server shell 4888-5222 on the same
    # VM); the floor leaves ~20% under the slowest of those runs.
    assert http_rps > 4800


# -- overload: shed rate and served-request p99 under burst --------------

OVERLOAD_LIMIT = 4
OVERLOAD_THREADS = 24
REQUESTS_PER_THREAD = 8


class _DiskPaced:
    """Archive wrapper adding a fixed pause per period read.

    Emulates a cold archive whose reads touch disk, so concurrent
    requests genuinely overlap inside the handler and the limiter has
    something to shed; the pause is the bench's unit of service time.
    """

    PAUSE = 0.005

    def __init__(self, archive):
        self._archive = archive

    def __getattr__(self, name):
        return getattr(self._archive, name)

    def __len__(self):
        return len(self._archive)

    def __contains__(self, period):
        return period in self._archive

    def get_period(self, name):
        time.sleep(self.PAUSE)
        return self._archive.get_period(name)


def test_overload_shedding(archive):
    api = SurveyAPI(
        _DiskPaced(archive),
        cache_size=1,  # ~every request misses and pays the disk pause
        resilience=ResilienceConfig(
            max_concurrency=OVERLOAD_LIMIT,
            retry_after_seconds=0.05,
        ),
    )
    outcomes = []
    lock = threading.Lock()
    barrier = threading.Barrier(OVERLOAD_THREADS)

    def worker(seed):
        barrier.wait()
        for i in range(REQUESTS_PER_THREAD):
            period = PERIODS[(seed + i) % len(PERIODS)]
            url = f"{server.url}/v1/period/{period}"
            t0 = time.perf_counter()
            try:
                with urllib.request.urlopen(url, timeout=30) as rsp:
                    status = rsp.status
                    rsp.read()
            except urllib.error.HTTPError as error:
                status = error.code
            elapsed = time.perf_counter() - t0
            with lock:
                outcomes.append((status, elapsed))

    with SurveyServer(api) as server:
        threads = [
            threading.Thread(target=worker, args=(n,))
            for n in range(OVERLOAD_THREADS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        elapsed = time.perf_counter() - started
        assert not any(t.is_alive() for t in threads), "hung request"

    total = OVERLOAD_THREADS * REQUESTS_PER_THREAD
    assert len(outcomes) == total
    statuses = [status for status, _ in outcomes]
    assert set(statuses) <= {200, 503}, sorted(set(statuses))
    served = [lat for status, lat in outcomes if status == 200]
    shed = statuses.count(503)
    assert served, "burst starved every request"
    shed_rate = shed / total
    p50_ms = percentile(served, 0.50) * 1e3
    p99_ms = percentile(served, 0.99) * 1e3

    write_report("serving_overload", "\n".join([
        f"Burst of {OVERLOAD_THREADS} clients x "
        f"{REQUESTS_PER_THREAD} requests against a "
        f"{OVERLOAD_LIMIT}-slot limiter "
        f"({_DiskPaced.PAUSE * 1e3:.0f} ms simulated disk read):",
        "",
        f"served 200: {len(served)}   shed 503: {shed}   "
        f"shed rate: {shed_rate:.3f}",
        f"served p50: {p50_ms:.1f} ms   p99: {p99_ms:.1f} ms   "
        f"wall: {elapsed:.2f} s",
    ]))
    record_serving_bench("overload", {
        "limit": OVERLOAD_LIMIT,
        "threads": OVERLOAD_THREADS,
        "requests": total,
        "served_200": len(served),
        "shed_503": shed,
        "shed_rate": round(shed_rate, 3),
        "served_p50_ms": round(p50_ms, 3),
        "served_p99_ms": round(p99_ms, 3),
        "wall_seconds": round(elapsed, 3),
    })

    # The limiter sheds instead of queueing without bound: under a
    # 6x-limit burst some requests must be turned away, and the ones
    # served must finish in bounded time (pause x limit, with slack).
    assert shed > 0
    assert p99_ms < _DiskPaced.PAUSE * 1e3 * OVERLOAD_LIMIT * 100
