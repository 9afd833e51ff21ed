"""Determinism audit: same seed, same bytes — run to run, path to path.

The survey's reproducibility story rests on every random draw being
seeded from run parameters, never from process state (wall clock,
hash randomization, pool scheduling, dict iteration over fresh
objects).  These tests run the same survey twice in the same process
and across executor configurations and require identical serialized
output — any ordering or seed leak shows up as a byte diff.
"""

import datetime as dt
import json

import pytest

from repro.io import survey_to_dict
from repro.parallel import (
    ResultCache,
    partition_asns,
    resolve_workers,
    shard_groups,
)
from repro.scenarios import generate_specs, run_survey, run_survey_period
from repro.timebase import MeasurementPeriod

PERIODS = [
    MeasurementPeriod("2019-09", dt.datetime(2019, 9, 2), 3),
    MeasurementPeriod("2020-04", dt.datetime(2020, 4, 1), 3),
]


def suite_bytes(suite):
    return json.dumps(
        {
            name: survey_to_dict(result)
            for name, result in suite.results.items()
        },
        sort_keys=True,
    ).encode("ascii")


@pytest.fixture(scope="module")
def specs():
    return generate_specs(num_ases=8, num_countries=5, seed=13)


class TestRunToRunDeterminism:
    def test_full_survey_twice_identical(self, specs):
        """The complete multi-period survey (lockdown period included)
        is a pure function of (specs, periods, seed)."""
        first, _ = run_survey(specs, PERIODS, seed=7)
        second, _ = run_survey(specs, PERIODS, seed=7)
        assert suite_bytes(first) == suite_bytes(second)

    def test_parallel_survey_twice_identical(self, specs):
        """Pool scheduling (shard completion order) never reaches the
        output: two sharded runs serialize identically."""
        first, _ = run_survey(specs, PERIODS, seed=7, workers=3)
        second, _ = run_survey(specs, PERIODS, seed=7, workers=3)
        assert suite_bytes(first) == suite_bytes(second)

    def test_worker_count_never_reaches_output(self, specs):
        """Different shard counts partition differently but must merge
        to the same bytes, as must one worker per usable CPU."""
        period = PERIODS[0]
        two, _ = run_survey_period(specs, period, seed=7, workers=2)
        five, _ = run_survey_period(specs, period, seed=7, workers=5)
        every_cpu, _ = run_survey_period(specs, period, seed=7, workers=0)
        expected = json.dumps(survey_to_dict(two), sort_keys=True)
        assert json.dumps(survey_to_dict(five), sort_keys=True) == expected
        assert json.dumps(
            survey_to_dict(every_cpu), sort_keys=True
        ) == expected

    def test_seed_reaches_output(self, specs):
        """The complement: a different seed must actually change the
        data (otherwise the determinism tests prove nothing)."""
        period = PERIODS[0]
        a, _ = run_survey_period(specs, period, seed=7, workers=2)
        b, _ = run_survey_period(specs, period, seed=8, workers=2)
        assert survey_to_dict(a) != survey_to_dict(b)

    def test_warm_cache_serves_same_bytes(self, specs, tmp_path):
        """Cache temperature is invisible in the output."""
        period = PERIODS[0]
        cache = ResultCache(tmp_path / "cache")
        cold, _ = run_survey_period(
            specs, period, seed=7, workers=2, cache=cache
        )
        warm, _ = run_survey_period(
            specs, period, seed=7, workers=2, cache=cache
        )
        assert cache.stats.hits == len(warm.reports)
        assert json.dumps(
            survey_to_dict(cold), sort_keys=True
        ) == json.dumps(survey_to_dict(warm), sort_keys=True)


class TestShardingDeterminism:
    def test_partition_is_pure_and_covering(self):
        asns = [500, 100, 300, 200, 400]
        first = partition_asns(asns, 3)
        second = partition_asns(list(reversed(asns)), 3)
        assert first == second  # input order never matters
        assert sorted(asn for shard in first for asn in shard) == sorted(
            asns
        )
        assert first[0] == [100, 400]  # round-robin over sorted ASNs

    def test_shard_groups_preserve_probe_lists(self):
        groups = {200: [4, 5, 6], 100: [1, 2, 3], 300: [7, 8, 9]}
        shards = shard_groups(groups, 2)
        merged = {}
        for shard in shards:
            merged.update(shard)
        assert merged == groups
        assert all(shard for shard in shards)  # no empty shards


class TestWorkerCount:
    def test_zero_means_cpus_this_process_may_use(self, monkeypatch):
        """``--workers 0`` counts the affinity mask, as the simulator's
        thread pool does: a process pinned to one CPU gets one worker,
        however many the machine has.  Starts no process."""
        monkeypatch.setattr(
            "os.sched_getaffinity", lambda pid: {0}, raising=False,
        )
        assert resolve_workers(0) == 1
        # Unset, or one: in process.
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1
