"""Tests for the LRU hot-object cache and its invalidation contract."""

import datetime as dt
import threading

import pytest

from repro.core import Severity
from repro.serve import LRUCache, SurveyAPI
from repro.store import SurveyArchive
from tests.store.conftest import make_ranking, make_survey


class TestBasics:
    def test_miss_then_hit(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_capacity_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh: b becomes coldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_put_refreshes_existing(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)      # refresh, no eviction
        assert len(cache) == 2
        assert cache.get("a") == 10

    def test_invalidate_and_clear(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0

    def test_keys_coldest_first(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        assert cache.keys() == ("b", "a")

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_hit_rate(self):
        cache = LRUCache(2)
        assert cache.stats.hit_rate == 0.0
        cache.put("a", 1)
        cache.get("a")
        cache.get("z")
        assert cache.stats.hit_rate == 0.5


class TestThreadSafety:
    def test_concurrent_eviction_correctness(self):
        """Hammer a tiny cache from many threads: every surviving
        entry still maps to its own value and capacity holds."""
        cache = LRUCache(4)
        barrier = threading.Barrier(8)

        def worker(seed):
            barrier.wait()
            for i in range(500):
                key = (seed * 31 + i) % 12
                cache.put(key, ("v", key))

        threads = [
            threading.Thread(target=worker, args=(n,))
            for n in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) == 4
        for key in cache.keys():
            assert cache.get(key) == ("v", key)

    def test_concurrent_hit_miss_accounting(self):
        """stats.hits + stats.misses equals exactly the number of
        get() calls, even under contention."""
        cache = LRUCache(8)
        for key in range(8):
            cache.put(key, key)
        gets_per_thread = 400
        barrier = threading.Barrier(6)

        def worker(seed):
            barrier.wait()
            for i in range(gets_per_thread):
                cache.get((seed + i) % 16)  # half hit, half miss

        threads = [
            threading.Thread(target=worker, args=(n,))
            for n in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = cache.stats.hits + cache.stats.misses
        assert total == 6 * gets_per_thread

    def test_concurrent_mixed_load(self):
        cache = LRUCache(16)
        errors = []

        def worker(seed):
            try:
                for i in range(200):
                    key = (seed + i) % 32
                    cache.put(key, key * 2)
                    value = cache.get(key)
                    if value is not None and value != key * 2:
                        errors.append((key, value))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(n,))
            for n in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 16


class TestNoStaleEntries:
    """Archive mutations must never leave the response cache stale."""

    def test_etag_changes_after_repair_and_reingest(self, archive):
        from repro.faults import FsFaultKey, flip_bit

        archive = SurveyArchive(archive.root)  # cold: reads hit disk
        api = SurveyAPI(archive)

        first = api.handle("/v1/period/2019-06")
        assert first.status == 200
        repeat = api.handle("/v1/period/2019-06")
        # Same rendered body/ETag = served from cache (each
        # response carries its own X-Request-Id, so identity
        # no longer holds).
        assert (repeat.body, repeat.etag) == (first.body, first.etag)

        # The period rots on disk; fsck --repair quarantines it.
        flip_bit(
            archive.segment_path("2019-06"), key=FsFaultKey(3)
        )
        report = archive.fsck(repair=True)
        assert report.repair_count >= 1

        # The generation moved, so the cache was dropped: the route
        # now reflects reality (404), not the stale 200.
        gone = api.handle("/v1/period/2019-06")
        assert gone.status == 404

        # Re-ingest the period with different content: the fresh
        # render must carry a different ETag than the original.
        archive.ingest(
            make_survey("2019-06", dt.datetime(2019, 6, 1), {
                100: Severity.LOW, 200: Severity.SEVERE,
            }),
            ranking=make_ranking(),
        )
        fresh = api.handle("/v1/period/2019-06")
        assert fresh.status == 200
        assert fresh.etag != first.etag
        assert fresh.body != first.body
        # And the fresh response is itself cached again.
        refreshed = api.handle("/v1/period/2019-06")
        assert (refreshed.body, refreshed.etag) == (fresh.body, fresh.etag)

    def test_quarantine_on_read_invalidates(self, archive):
        """A read-path quarantine (not fsck) also bumps the
        generation and drops cached responses."""
        archive = SurveyArchive(archive.root)
        api = SurveyAPI(archive)
        cached = api.handle("/v1/periods")
        repeat = api.handle("/v1/periods")
        # Same rendered body/ETag = served from cache (each
        # response carries its own X-Request-Id, so identity
        # no longer holds).
        assert (repeat.body, repeat.etag) == (cached.body, cached.etag)

        archive.segment_path("2019-09").write_bytes(b"rot")
        failed = api.handle("/v1/period/2019-09")
        assert failed.status == 503  # quarantined on read

        # The generation bump invalidated the whole cache.
        assert api.handle("/v1/periods") is not cached
