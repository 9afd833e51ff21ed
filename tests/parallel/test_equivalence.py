"""Serial/parallel equivalence: the executor's core contract.

For any worker count — including the in-process ``workers=1``
fallback — and with or without injected faults, the sharded executor
must produce ``survey_to_dict`` output byte-identical to the legacy
serial path: classifications, amplitudes, failures, and quality-ledger
counts included.  A shard crash must degrade to per-AS failures for
that shard's ASes only, never kill the run.
"""

import datetime as dt
import functools
import json
import os

import pytest

from repro.faults import BinLoss, FaultLog, NaNBursts, PoisonAS
from repro.io import survey_to_dict
from repro.parallel import WORKERS_ENV
from repro.parallel import executor as executor_mod
from repro.parallel.worker import run_survey_shard
from repro.quality import DropReason
from repro.scenarios import generate_specs, run_survey_period
from repro.timebase import MeasurementPeriod

PERIOD = MeasurementPeriod("2019-09", dt.datetime(2019, 9, 2), 4)


def canonical_bytes(result):
    """The serialized survey as bytes — the equality the suite asserts."""
    return json.dumps(
        survey_to_dict(result), sort_keys=True
    ).encode("ascii")


def run_serial(specs, period, **kwargs):
    """The legacy serial path, immune to the CI ``REPRO_WORKERS`` leg."""
    saved = os.environ.pop(WORKERS_ENV, None)
    try:
        return run_survey_period(specs, period, **kwargs)
    finally:
        if saved is not None:
            os.environ[WORKERS_ENV] = saved


@pytest.fixture(scope="module")
def specs():
    return generate_specs(num_ases=10, num_countries=6, seed=5)


@pytest.fixture(scope="module")
def serial_baseline(specs):
    result, _world = run_serial(specs, PERIOD, seed=7)
    return canonical_bytes(result)


class TestWorldSurveyEquivalence:
    def test_workers_one_matches_serial(self, specs, serial_baseline):
        """The deterministic in-process fallback is bit-faithful."""
        result, _ = run_survey_period(specs, PERIOD, seed=7, workers=1)
        assert canonical_bytes(result) == serial_baseline

    def test_pool_matches_serial(self, specs, serial_baseline):
        """A real process pool (more shards than ASes are balanced
        into) reproduces the serial bytes."""
        result, _ = run_survey_period(specs, PERIOD, seed=7, workers=4)
        assert canonical_bytes(result) == serial_baseline

    def test_quality_ledger_counts_match(self, specs, serial_baseline):
        """The quality section rides inside the canonical bytes, but
        assert it explicitly — ledger drift is the likeliest silent
        divergence."""
        result, _ = run_survey_period(specs, PERIOD, seed=7, workers=3)
        parallel = survey_to_dict(result)
        serial = json.loads(serial_baseline)
        assert parallel["quality"] == serial["quality"]
        assert parallel["failures"] == serial["failures"]


class TestFaultedEquivalence:
    FAULTS = staticmethod(lambda: [
        BinLoss(rate=0.05),
        NaNBursts(probe_rate=0.3),
        PoisonAS(count=1),
    ])

    def test_faulted_pool_matches_faulted_serial(self, specs):
        """Content-keyed injection makes chaos runs shard-invariant:
        same corrupted bins, same poisoned AS, same failures."""
        serial_log, parallel_log = FaultLog(), FaultLog()
        serial, _ = run_serial(
            specs, PERIOD, seed=7,
            dataset_faults=self.FAULTS(), fault_seed=3,
            fault_log=serial_log,
        )
        parallel, _ = run_survey_period(
            specs, PERIOD, seed=7, workers=4,
            dataset_faults=self.FAULTS(), fault_seed=3,
            fault_log=parallel_log,
        )
        assert canonical_bytes(parallel) == canonical_bytes(serial)
        assert parallel_log.counts == serial_log.counts
        for injector in ("bin-loss", "nan-bursts", "poison-as"):
            assert sorted(
                parallel_log.keys(injector), key=repr
            ) == sorted(serial_log.keys(injector), key=repr)

    def test_poisoned_as_fails_identically(self, specs):
        """The injected per-AS failure lands on the same AS with the
        same error under both executors."""
        faults = [PoisonAS(count=1)]
        serial, _ = run_serial(
            specs, PERIOD, seed=7, dataset_faults=faults, fault_seed=3,
        )
        parallel, _ = run_survey_period(
            specs, PERIOD, seed=7, workers=3,
            dataset_faults=faults, fault_seed=3,
        )
        assert serial.failures, "PoisonAS should fail at least one AS"
        assert set(parallel.failures) == set(serial.failures)
        for asn, failure in serial.failures.items():
            assert parallel.failures[asn].error == failure.error


def _crash_shard(doomed, task):
    """Module-level (hence picklable) shard runner that dies on one
    shard index."""
    if task.index == doomed:
        raise RuntimeError("simulated worker crash")
    return run_survey_shard(task)


def _as_failure_drops(result):
    return sum(
        stage.dropped.get(DropReason.AS_FAILURE, 0)
        for stage in result.quality.stages.values()
    )


class TestShardFailureIsolation:
    def test_crashed_shard_degrades_to_per_as_failures(
        self, monkeypatch, specs, serial_baseline
    ):
        """One shard blowing up must not kill the others: its ASes
        come back as ShardExecutionError failures, the rest classify
        normally, and the ledger records the drops."""
        monkeypatch.setattr(
            executor_mod, "run_survey_shard",
            functools.partial(_crash_shard, 1),
        )
        result, _ = run_survey_period(specs, PERIOD, seed=7, workers=2)

        asns = sorted(map(int, json.loads(serial_baseline)["reports"]))
        doomed = set(asns[1::2])  # round-robin shard 1
        assert doomed
        assert set(result.failures) == doomed
        assert set(result.reports) == set(asns) - doomed
        for failure in result.failures.values():
            assert failure.error == "ShardExecutionError"
            assert "simulated worker crash" in failure.message
        assert _as_failure_drops(result) == len(doomed)

    def test_inprocess_guard_isolates_too(self, monkeypatch, specs):
        """The workers=1 fallback uses the same guard: its one shard
        (index 0) crashing turns every AS into a failure instead of
        raising, and a runner that spares shard 0 changes nothing."""
        monkeypatch.setattr(
            executor_mod, "run_survey_shard",
            functools.partial(_crash_shard, 1),
        )
        spared, _ = run_survey_period(specs, PERIOD, seed=7, workers=1)
        assert not spared.failures

        monkeypatch.setattr(
            executor_mod, "run_survey_shard",
            functools.partial(_crash_shard, 0),
        )
        crashed, _ = run_survey_period(specs, PERIOD, seed=7, workers=1)
        assert not crashed.reports
        assert set(crashed.failures) == set(spared.reports)
        for failure in crashed.failures.values():
            assert failure.error == "ShardExecutionError"
        assert _as_failure_drops(crashed) == len(spared.reports)
