"""One survey body, any worker count: the executor's core contract.

:func:`repro.scenarios.run_survey_period` filters first and simulates
only the ASes it must classify, in process or on a pool of shard
workers.  Either way, with or without injected faults, its
``survey_to_dict`` output must be byte-identical to the reference:
every probe simulated, the whole dataset faulted, then
:func:`repro.core.classify_dataset` — classifications, amplitudes,
failures, and quality-ledger counts included.  A shard crash must
degrade to per-AS failures for that shard's ASes only, never kill the
run.
"""

import datetime as dt
import functools
import json

import pytest

from repro.atlas import AtlasPlatform
from repro.core import classify_dataset
from repro.faults import BinLoss, FaultLog, NaNBursts, PoisonAS
from repro.faults.dataset import inject_dataset
from repro.io import survey_to_dict
from repro.parallel import executor as executor_mod
from repro.parallel.worker import run_survey_shard
from repro.quality import DropReason
from repro.scenarios import (
    build_survey_world,
    generate_specs,
    run_survey_period,
)
from repro.timebase import MeasurementPeriod

PERIOD = MeasurementPeriod("2019-09", dt.datetime(2019, 9, 2), 4)


def canonical_bytes(result):
    """The serialized survey as bytes — the equality the suite asserts."""
    return json.dumps(
        survey_to_dict(result), sort_keys=True
    ).encode("ascii")


def run_serial(specs, period, seed=7, dataset_faults=None, fault_seed=0,
               fault_log=None):
    """The reference: simulate every probe, fault the whole dataset,
    classify it with :func:`classify_dataset`."""
    world, platform = build_survey_world(
        specs, lockdown=period.name == "2020-04", seed=seed,
        period_name=period.name,
    )
    dataset = platform.run_period_binned(period)
    if dataset_faults:
        inject_dataset(
            dataset, dataset_faults, seed=fault_seed, log=fault_log,
        )
    result = classify_dataset(
        dataset, period, min_probes=3, table=world.table,
    )
    return result, world


@pytest.fixture(scope="module")
def specs():
    return generate_specs(num_ases=10, num_countries=6, seed=5)


@pytest.fixture(scope="module")
def serial_baseline(specs):
    result, _world = run_serial(specs, PERIOD, seed=7)
    return canonical_bytes(result)


class TestWorldSurveyEquivalence:
    def test_workers_one_matches_serial(self, specs, serial_baseline):
        """The in-process body (``workers`` None or 1) is
        bit-faithful."""
        for workers in (None, 1):
            result, _ = run_survey_period(
                specs, PERIOD, seed=7, workers=workers,
            )
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
        self.assert_faulted_matches(specs, workers=4)

    def test_faulted_in_process_matches_faulted_serial(self, specs):
        """Faults pinned against the whole population strike a slice
        of it exactly as they strike the whole dataset."""
        self.assert_faulted_matches(specs, workers=None)

    def assert_faulted_matches(self, specs, workers):
        serial_log, survey_log = FaultLog(), FaultLog()
        serial, _ = run_serial(
            specs, PERIOD, seed=7,
            dataset_faults=self.FAULTS(), fault_seed=3,
            fault_log=serial_log,
        )
        survey, _ = run_survey_period(
            specs, PERIOD, seed=7, workers=workers,
            dataset_faults=self.FAULTS(), fault_seed=3,
            fault_log=survey_log,
        )
        assert canonical_bytes(survey) == canonical_bytes(serial)
        assert survey_log.counts == serial_log.counts
        for injector in ("bin-loss", "nan-bursts", "poison-as"):
            assert sorted(
                survey_log.keys(injector), key=repr
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

    def test_no_pool_falls_back_in_process(
        self, monkeypatch, specs, serial_baseline
    ):
        """A platform that cannot start a process pool runs the same
        slice in process, to the same bytes."""
        def no_pool(*args, **kwargs):
            raise OSError("no process pool here")

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", no_pool)
        result, _ = run_survey_period(specs, PERIOD, seed=7, workers=2)
        assert canonical_bytes(result) == serial_baseline

    def test_in_process_simulator_error_propagates(
        self, monkeypatch, specs
    ):
        """In process there is no shard to isolate: a simulator error
        raises, as a probe error in
        :meth:`AtlasPlatform.run_period_binned` always does."""
        def failing(self, probe, *args, **kwargs):
            raise RuntimeError("simulated probe failure")

        monkeypatch.setattr(AtlasPlatform, "_binned_series", failing)
        with pytest.raises(RuntimeError, match="simulated probe failure"):
            run_survey_period(specs, PERIOD, seed=7, workers=1)
