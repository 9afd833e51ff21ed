"""Sharded world-survey execution with content-addressed caching.

The world survey is embarrassingly parallel across ASes *provided*
every random draw is content-keyed rather than sequence-dependent —
which the measurement platform (campaign seeds), the scenario wobble,
and the fault injectors all guarantee.  This package exploits that:

* :mod:`repro.parallel.sharding`  — round-robin AS partitioning and
  the worker-count rule (:func:`resolve_workers`);
* :mod:`repro.parallel.worker`    — per-shard compute (pure functions
  of a picklable task, telemetry captured or silenced per task);
* :mod:`repro.parallel.executor`  — parent-side orchestration: filter,
  fault pinning, cache lookup, pool dispatch, sorted merge, obs
  re-emission;
* :mod:`repro.parallel.cache`     — per-AS results keyed by a digest
  of everything that can change them.

The one entry point is :func:`run_survey_period_parallel`, which
:func:`repro.scenarios.run_survey_period` calls when given ``workers``
or a ``cache`` (``repro survey --workers N --cache-dir DIR``).
Classifying a dataset already in memory
(:func:`repro.core.classify_dataset`) always runs in process.

The contract, enforced by ``tests/parallel/``: for any worker count
and any cache temperature, ``survey_to_dict`` output is byte-identical
to the serial path — classifications, failures, and quality-ledger
counts included.

Every name loads its submodule on first use: a serial survey needs
only :func:`resolve_workers`, so it pays for neither the executor,
the pools nor :mod:`multiprocessing`.
"""

from .._lazy import lazy_exports

__all__ = [
    "PIPELINE_SALT",
    "WORKERS_ENV",
    "CacheStats",
    "ResultCache",
    "fingerprint_digest",
    "survey_as_fingerprint",
    "resolve_workers",
    "run_survey_period_parallel",
    "partition_asns",
    "shard_groups",
    "ASOutcome",
    "ShardResult",
    "SurveyShardTask",
    "run_survey_shard",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "cache": (
        "CacheStats", "PIPELINE_SALT", "ResultCache", "fingerprint_digest",
        "survey_as_fingerprint",
    ),
    "executor": ("run_survey_period_parallel",),
    "sharding": (
        "WORKERS_ENV", "partition_asns", "resolve_workers", "shard_groups",
    ),
    "worker": (
        "ASOutcome", "ShardResult", "SurveyShardTask", "run_survey_shard",
    ),
})
