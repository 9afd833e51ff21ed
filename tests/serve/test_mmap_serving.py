"""Serving over mmap-backed segments: concurrency, staleness, tears.

A finalized period is a mapped segment; the serving layer's contract
over it: the bytes and ETags a live period's JSON record serves,
coherent responses while a re-ingest bumps the generation mid-flight,
and a torn segment answered with a 503 (quarantined, booked in
``store_corrupt_total``) while the healthy period keeps serving —
never a 500.
"""

import datetime as dt
import json
import threading

from repro.core import Severity
from repro.obs import Observability, observed
from repro.serve import SurveyAPI
from repro.store import SurveyArchive
from tests.store.conftest import make_ranking, make_survey

THREADS = 8
ROUNDS = 25

HOT_PATHS = (
    "/v1/as/100/history",
    "/v1/as/400/history",
    "/v1/as/100?period=2019-06",
    "/v1/period/2019-09/severity/severe",
    "/v1/period/2019-09/severity/none",
    "/v1/period/2019-06/severe",
    "/v1/period/2019-06",
)


def build_archive(root, ranking=None, live=False):
    """The conftest two-period archive, buildable at any path; with
    ``live`` both periods stay live records (payload and index in the
    manifest) instead of segments."""
    archive = SurveyArchive(root)
    ranking = ranking if ranking is not None else make_ranking()
    for result in (
        make_survey("2019-06", dt.datetime(2019, 6, 1), {
            100: Severity.SEVERE, 200: Severity.LOW,
            300: Severity.NONE,
        }),
        make_survey("2019-09", dt.datetime(2019, 9, 1), {
            100: Severity.MILD, 300: Severity.NONE,
            400: Severity.SEVERE,
        }),
    ):
        if live:
            archive.begin_live_period(result.period.name).commit_partial(
                result, ranking=ranking
            )
        else:
            archive.ingest(result, ranking=ranking)
    return archive


def tear(path):
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(raw)


def serve_all(api, paths=HOT_PATHS):
    return {
        path: (response.status, response.body, response.etag)
        for path, response in (
            (path, api.handle(path)) for path in paths
        )
    }


class TestConcurrentMmapReads:
    def test_eight_threads_byte_identical(self, tmp_path):
        with build_archive(tmp_path / "arc") as archive:
            api = SurveyAPI(archive, cache_size=8)
            expected = serve_all(api)
            assert all(
                status == 200 for status, _, _ in expected.values()
            )

            results = [[] for _ in range(THREADS)]
            errors = []
            barrier = threading.Barrier(THREADS)

            def reader(slot):
                try:
                    barrier.wait()
                    for _ in range(ROUNDS):
                        results[slot].append(serve_all(api))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=reader, args=(slot,))
                for slot in range(THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            for slot_results in results:
                assert len(slot_results) == ROUNDS
                for observed_pages in slot_results:
                    assert observed_pages == expected

    def test_generation_bump_mid_flight(self, tmp_path):
        ranking = make_ranking()
        with build_archive(tmp_path / "arc", ranking) as archive:
            api = SurveyAPI(archive, cache_size=8)
            path = "/v1/as/400/history"
            first = api.handle(path)
            before = (first.status, first.body, first.etag)

            seen = [[] for _ in range(THREADS)]
            errors = []
            barrier = threading.Barrier(THREADS + 1)
            ingested = threading.Event()

            def reader(slot):
                try:
                    barrier.wait()
                    while not ingested.is_set():
                        response = api.handle(path)
                        seen[slot].append((
                            response.status, response.body,
                            response.etag,
                        ))
                    # Tail reads start strictly after the commit:
                    # stale bytes here would be a coherence bug.
                    for _ in range(3):
                        response = api.handle(path)
                        seen[slot].append((
                            response.status, response.body,
                            response.etag,
                        ))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=reader, args=(slot,))
                for slot in range(THREADS)
            ]
            for thread in threads:
                thread.start()
            barrier.wait()
            # Re-ingest mid-flight: a third period lands and the
            # archive generation bumps while readers are in the maps.
            archive.ingest(
                make_survey("2019-12", dt.datetime(2019, 12, 1), {
                    100: Severity.LOW, 400: Severity.MILD,
                }),
                ranking=ranking,
            )
            after_response = api.handle(path)
            ingested.set()
            for thread in threads:
                thread.join()
            assert not errors

            after = (
                after_response.status, after_response.body,
                after_response.etag,
            )
            # The new period is visible and the ETag rolled.
            assert after[0] == 200
            assert before[1] != after[1]
            assert before[2] != after[2]
            periods = [
                entry["period"]
                for entry in json.loads(after[1])["history"]
            ]
            assert "2019-12" in periods
            # Every observation is one of the two committed renders —
            # never a torn mixture, never stale bytes after the bump.
            for slot_observations in seen:
                for observation in slot_observations:
                    assert observation in (before, after)
                assert slot_observations[-1] == after

    def test_mmap_and_json_modes_serve_identical_bytes(self, tmp_path):
        """Mapped segments serve what the same periods' live JSON
        records (payload + ``_build_index`` index) serve."""
        build_archive(tmp_path / "mapped").close()
        with SurveyArchive(tmp_path / "mapped") as archive:
            mapped = serve_all(SurveyAPI(archive, cache_size=8))
            assert archive.stats.segment_lookups > 0
        with build_archive(tmp_path / "plain", live=True) as archive:
            assert archive.period_meta("2019-06")["repr"] == "live"
            plain = serve_all(SurveyAPI(archive, cache_size=8))
        assert mapped == plain


class TestTornSegmentServing:
    def test_torn_segment_is_503_not_500(self, tmp_path):
        build_archive(tmp_path / "pristine").close()
        with SurveyArchive(tmp_path / "pristine") as archive:
            expected = serve_all(SurveyAPI(archive, cache_size=8))

        root = tmp_path / "arc"
        build_archive(root).close()
        seg = root / "segments" / "2019-06.seg"
        tear(seg)

        with observed(Observability()) as obs:
            with SurveyArchive(root) as archive:
                api = SurveyAPI(archive, cache_size=8)
                torn = api.handle("/v1/period/2019-06")
                served = serve_all(api, [
                    path for path in HOT_PATHS if "2019-06" not in path
                    and "history" not in path
                ])
        assert torn.status == 503
        assert json.loads(torn.body)["error"] == "ArchiveCorruptionError"
        assert not seg.exists()
        # The healthy period serves exactly what it served before.
        assert served == {
            path: expected[path] for path in served
        }
        assert served and all(
            status == 200 for status, _, _ in served.values()
        )
        assert obs.metrics.counter(
            "store_corrupt_total", ""
        ).value() >= 1

    def test_history_serves_the_readable_periods(self, tmp_path):
        """One torn period of two: every AS history still answers 200,
        the torn period's entry marked unreadable and the healthy
        period's entry as it was, on the first read (which
        quarantines) and on every read after; the torn period's own
        route stays a 503."""
        with build_archive(tmp_path / "pristine") as archive:
            expected = json.loads(
                SurveyAPI(archive).handle("/v1/as/100/history").body
            )["history"]

        root = tmp_path / "arc"
        build_archive(root).close()
        tear(root / "segments" / "2019-06.seg")
        with SurveyArchive(root) as archive:
            api = SurveyAPI(archive, cache_size=8)
            for _ in range(2):
                response = api.handle("/v1/as/100/history")
                assert response.status == 200
                torn, healthy = json.loads(response.body)["history"]
                assert torn == {
                    "period": "2019-06", "monitored": False,
                    "severity": None, "unreadable": True,
                }
                assert healthy == expected[1]
            assert api.handle("/v1/period/2019-06").status == 503
            # AS200 is in the torn period only: no answer, not a 404.
            assert api.handle("/v1/as/200/history").status == 503

    def test_torn_segment_under_concurrency(self, tmp_path):
        root = tmp_path / "arc"
        build_archive(root).close()
        for name in ("2019-06", "2019-09"):
            tear(root / "segments" / f"{name}.seg")

        with observed(Observability()) as obs:
            with SurveyArchive(root) as archive:
                api = SurveyAPI(archive, cache_size=8)
                statuses = []
                errors = []
                barrier = threading.Barrier(THREADS)

                def reader():
                    try:
                        barrier.wait()
                        for _ in range(ROUNDS):
                            for path in HOT_PATHS:
                                statuses.append(
                                    api.handle(path).status
                                )
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)

                threads = [
                    threading.Thread(target=reader)
                    for _ in range(THREADS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        assert not errors
        # Both periods are torn: every read is a 503 (corruption,
        # then the open circuit), never a 500.
        assert statuses and set(statuses) == {503}
        assert obs.metrics.counter(
            "store_corrupt_total", ""
        ).value() >= 1
