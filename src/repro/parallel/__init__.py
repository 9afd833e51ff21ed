"""The survey's process pool and its content-addressed result cache.

One body computes a survey period,
:func:`repro.scenarios.run_survey_period`: build the world, filter the
population, serve cache hits, run
:func:`~repro.scenarios.worldsurvey.survey_slice` over the pending
ASes, merge in sorted-ASN order.  This package holds what that body
uses beyond the simulator's thread pool:

* :mod:`repro.parallel.sharding`  — round-robin AS partitioning and
  the worker-count rule (:func:`resolve_workers`);
* :mod:`repro.parallel.worker`    — one shard in a pool process: the
  world rebuilt, the slice run on one simulate thread, telemetry
  captured or silenced per task;
* :mod:`repro.parallel.executor`  — the pool itself
  (``repro survey --workers N``, N >= 2): dispatch, crash isolation,
  ``survey-shard`` spans and metrics;
* :mod:`repro.parallel.cache`     — per-AS results keyed by a digest
  of everything that can change them (``repro survey --cache-dir``).

The contract, enforced by ``tests/parallel/``: for any worker count
and any cache temperature, ``survey_to_dict`` output is byte-identical
— classifications, failures, and quality-ledger counts included.

Every name loads its submodule on first use: an in-process survey
needs only :func:`resolve_workers`, so it pays for neither the pool
nor :mod:`multiprocessing`.
"""

from .._lazy import lazy_exports

__all__ = [
    "PIPELINE_SALT",
    "CacheStats",
    "ResultCache",
    "fingerprint_digest",
    "survey_as_fingerprint",
    "resolve_workers",
    "partition_asns",
    "shard_groups",
    "ShardResult",
    "SurveyShardTask",
    "run_survey_shard",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "cache": (
        "CacheStats", "PIPELINE_SALT", "ResultCache", "fingerprint_digest",
        "survey_as_fingerprint",
    ),
    "sharding": ("partition_asns", "resolve_workers", "shard_groups"),
    "worker": ("ShardResult", "SurveyShardTask", "run_survey_shard"),
})
