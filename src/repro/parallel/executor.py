"""The sharded survey executor: partition, dispatch, merge.

The parent process owns everything order-dependent and shared:

1. it builds the world/platform once (cheap) and runs the probe filter
   with the run's quality ledger, exactly as the serial path does;
2. it pins fault-injector targets against the full population, looks
   up the result cache (single reader/writer — workers never touch
   disk), and round-robins the remaining ASes into shards;
3. workers compute pure per-AS outcomes (see
   :mod:`repro.parallel.worker`);
4. the parent merges outcomes in sorted-ASN order into one
   :class:`~repro.core.survey.SurveyResult`, folds per-AS quality
   ledgers into the run ledger, stores fresh entries in the cache, and
   re-emits shard timings as ``survey-shard`` spans and
   ``survey_shard_*`` / ``survey_cache_*`` metrics.

Failure isolation is preserved at both granularities: a per-AS error
is an :class:`~repro.core.survey.ASFailure` computed inside the worker
(same retry policy as the serial loop), and a *shard* blowing up
(worker OOM, pool breakage) is converted into per-AS
``ShardExecutionError`` failures for its ASes — the pool keeps
draining the other shards either way.

``workers`` resolution: an explicit int wins; ``None`` consults the
``REPRO_WORKERS`` environment variable (the CI matrix job's knob) and
falls back to the legacy serial path when that is unset too; ``0``
means one worker per CPU.  ``workers=1`` runs the full shard/merge
machinery in-process — the deterministic fallback for platforms
without working process pools, and the reference point the
equivalence suite compares against.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.classify import ClassificationThresholds, DEFAULT_THRESHOLDS
from ..core.filtering import asns_with_min_probes
from ..core.kernels import resolve_kernels
from ..core.series import LastMileDataset
from ..core.survey import (
    ASFailure,
    SurveyResult,
    _record_survey_metrics,
)
from ..obs import get_observer
from ..quality import DataQualityReport, DropReason
from ..timebase import DELAY_BIN_SECONDS, MeasurementPeriod
from .cache import (
    ResultCache,
    dataset_as_fingerprint,
    survey_as_fingerprint,
)
from .sharding import resolve_workers, shard_groups
from .transport import (
    pack_dataset,
    shm_enabled,
    unpack_signals,
)
from .worker import (
    ASOutcome,
    DatasetShardTask,
    ShardResult,
    SurveyShardTask,
    run_dataset_shard,
    run_survey_shard,
    slice_dataset,
)

STAGE = "core-survey"

def run_survey_period_parallel(
    specs: Sequence,
    period: MeasurementPeriod,
    workers: int = 1,
    lockdown: Optional[bool] = None,
    seed: int = 7,
    min_probes: int = 3,
    thresholds: ClassificationThresholds = DEFAULT_THRESHOLDS,
    max_attempts: int = 2,
    dataset_faults: Optional[Sequence] = None,
    fault_seed: int = 0,
    fault_log=None,
    cache=None,
    kernels=None,
) -> Tuple[SurveyResult, object]:
    """Sharded equivalent of :func:`repro.scenarios.run_survey_period`.

    Returns the same ``(SurveyResult, World)`` pair, bit-identical
    under :func:`repro.io.survey_to_dict` for any worker count.
    ``cache`` is a :class:`ResultCache` or a directory path; caching
    is bypassed on fault-injection runs (the corrupted dataset must
    never populate — or be served from — the clean cache).

    ``kernels`` is resolved here (None means the default backend) and
    its *name* travels inside each shard task, so worker processes use
    the parent's backend.  Cache keys
    deliberately do not include the backend: outputs are identical by
    contract, so hits may be served across backends.
    """
    from ..scenarios.worldsurvey import build_survey_world

    workers = resolve_workers(workers) or 1
    kern = resolve_kernels(kernels)
    if lockdown is None:
        lockdown = period.name == "2020-04"
    obs = get_observer()
    log = obs.logger.bind(stage=STAGE, period=period.name)
    cache = ResultCache.ensure(cache)

    with obs.stage_span(
        "survey-period", period=period.name, ases=len(specs),
        workers=workers, kernel=kern.name,
    ) as outer:
        with obs.stage_span("load", period=period.name):
            world, platform = build_survey_world(
                specs, lockdown=lockdown, seed=seed,
                period_name=period.name,
            )
        result = SurveyResult(period=period)
        quality = result.quality
        probe_meta = {
            probe.probe_id: platform.probe_meta(probe)
            for probe in platform.probes
        }
        with obs.stage_span("classify-dataset", period=period.name):
            groups = asns_with_min_probes(
                probe_meta, min_probes=min_probes, table=world.table,
                quality=quality,
            )
            obs.items_in(STAGE, len(groups))
            log.info(
                "classify-start", ases=len(groups), workers=workers,
            )

            pinned: List = []
            if dataset_faults:
                from ..faults.dataset import pin_dataset_faults

                pinned = pin_dataset_faults(
                    dataset_faults, probe_meta, seed=fault_seed
                )
            use_cache = cache is not None and not pinned

            keys: Dict[int, str] = {}
            cached: Dict[int, Dict] = {}
            pending: Dict[int, List[int]] = {}
            if use_cache:
                pairs_by_asn: Dict[int, List[Tuple[int, int]]] = {}
                for probe in platform.probes:
                    pairs_by_asn.setdefault(probe.asn, []).append(
                        (probe.probe_id, probe.version.value)
                    )
                spec_by_asn = {
                    spec.asn: (index, spec)
                    for index, spec in enumerate(specs)
                }
            for asn, probe_ids in groups.items():
                if use_cache:
                    index, spec = spec_by_asn[asn]
                    keys[asn] = cache.key(survey_as_fingerprint(
                        asn=asn, spec=spec, spec_index=index,
                        probe_pairs=pairs_by_asn.get(asn, []),
                        period=period, world_seed=seed,
                        lockdown=lockdown, thresholds=thresholds,
                        max_attempts=max_attempts,
                        deployment=platform.config,
                        bin_seconds=DELAY_BIN_SECONDS,
                    ))
                    payload = cache.get(keys[asn])
                    if payload is not None:
                        cached[asn] = payload
                        continue
                pending[asn] = list(probe_ids)

            tasks = [
                SurveyShardTask(
                    index=index, specs=list(specs), period=period,
                    lockdown=lockdown, seed=seed, groups=shard,
                    thresholds=thresholds, max_attempts=max_attempts,
                    faults=pinned, fault_seed=fault_seed,
                    kernels=kern.name,
                    capture_telemetry=obs.enabled,
                    trace_context=obs.tracer.context(),
                )
                for index, shard in enumerate(
                    shard_groups(pending, workers)
                )
            ]
            shard_results = _execute_shards(
                tasks, run_survey_shard, workers
            )
            _merge_outcomes(
                result, groups, cached, shard_results,
                cache=cache if use_cache else None, keys=keys,
            )
            if fault_log is not None:
                for shard_result in shard_results:
                    if shard_result.fault_log is not None:
                        fault_log.merge(shard_result.fault_log)

            obs.items_out(STAGE, len(result.reports))
            _record_shard_metrics(obs, period, shard_results)
            if cache is not None:
                _record_cache_metrics(
                    obs, period, hits=len(cached),
                    misses=len(pending),
                    corrupt=cache.stats.corrupt,
                )
            _record_survey_metrics(obs, result)
        outer.set_attr("reported", len(result.reported_asns()))
        outer.set_attr("failures", len(result.failures))
        outer.set_attr("cache_hits", len(cached))
        log.info(
            "classify-done",
            monitored=result.monitored_count,
            reported=len(result.reported_asns()),
            failures=len(result.failures),
            cache_hits=len(cached),
        )
    return result, world


def classify_dataset_sharded(
    dataset: LastMileDataset,
    period: MeasurementPeriod,
    workers: int = 1,
    min_probes: int = 3,
    thresholds: ClassificationThresholds = DEFAULT_THRESHOLDS,
    table=None,
    keep_signals: bool = False,
    quality: Optional[DataQualityReport] = None,
    max_attempts: int = 2,
    cache=None,
    kernels=None,
) -> SurveyResult:
    """Sharded equivalent of :func:`repro.core.classify_dataset`.

    The dataset already exists in memory, so each shard task carries
    its slice of it (series are shared in-process, pickled per shard
    under a pool).  Caching keys hash the per-probe bin arrays
    (:func:`repro.parallel.cache.dataset_as_fingerprint`) and is
    bypassed when ``keep_signals`` is set — signals are not part of
    cache payloads, so serving a hit would silently drop them.
    ``kernels`` is resolved here and its name rides in each task (see
    :func:`run_survey_period_parallel`).
    """
    workers = resolve_workers(workers) or 1
    kern = resolve_kernels(kernels)
    obs = get_observer()
    log = obs.logger.bind(stage=STAGE, period=period.name)
    cache = ResultCache.ensure(cache)
    use_cache = cache is not None and not keep_signals

    result = SurveyResult(
        period=period,
        quality=quality if quality is not None else DataQualityReport(),
    )
    quality = result.quality
    with obs.stage_span(
        "classify-dataset", period=period.name, workers=workers,
        kernel=kern.name,
    ) as outer:
        groups = asns_with_min_probes(
            dataset.probe_meta, min_probes=min_probes, table=table,
            quality=quality,
        )
        obs.items_in(STAGE, len(groups))
        log.info("classify-start", ases=len(groups), workers=workers)

        keys: Dict[int, str] = {}
        cached: Dict[int, Dict] = {}
        pending: Dict[int, List[int]] = {}
        for asn, probe_ids in groups.items():
            if use_cache:
                keys[asn] = cache.key(dataset_as_fingerprint(
                    dataset, asn, probe_ids,
                    thresholds=thresholds, max_attempts=max_attempts,
                ))
                payload = cache.get(keys[asn])
                if payload is not None:
                    cached[asn] = payload
                    continue
            pending[asn] = list(probe_ids)

        # Zero-copy boundary: with a real pool, each shard's numeric
        # payload rides in a shared-memory block the parent owns (and
        # unlinks, success or crash); in-process shards skip packing.
        use_shm = workers > 1 and shm_enabled()
        tasks = [
            DatasetShardTask(
                index=index,
                dataset=pack_dataset(
                    slice_dataset(dataset, [
                        prb_id for probe_ids in shard.values()
                        for prb_id in probe_ids
                    ]),
                    use_shm=use_shm,
                ),
                groups=shard, thresholds=thresholds,
                max_attempts=max_attempts, keep_signals=keep_signals,
                kernels=kern.name,
                capture_telemetry=obs.enabled,
                trace_context=obs.tracer.context(),
            )
            for index, shard in enumerate(shard_groups(pending, workers))
        ]
        try:
            shard_results = _execute_shards(
                tasks, run_dataset_shard, workers
            )
        finally:
            for task in tasks:
                task.dataset.release()
        _restore_packed_signals(shard_results, dataset.grid)
        _merge_outcomes(
            result, groups, cached, shard_results,
            cache=cache if use_cache else None, keys=keys,
            keep_signals=keep_signals,
        )

        obs.items_out(STAGE, len(result.reports))
        _record_shard_metrics(obs, period, shard_results)
        if cache is not None:
            _record_cache_metrics(
                obs, period, hits=len(cached), misses=len(pending),
                corrupt=cache.stats.corrupt,
            )
        _record_survey_metrics(obs, result)
        outer.set_attr("reported", len(result.reported_asns()))
        outer.set_attr("failures", len(result.failures))
        log.info(
            "classify-done",
            monitored=result.monitored_count,
            reported=len(result.reported_asns()),
            failures=len(result.failures),
        )
    return result


# -- internals -------------------------------------------------------------


def _restore_packed_signals(shard_results, grid) -> None:
    """Reattach signals that traveled via shared memory.

    The parent copies each signal out of the worker-created block and
    unlinks it immediately — blocks never outlive this call, even if
    reassembly fails halfway.
    """
    for shard_result in shard_results:
        packed = shard_result.packed_signals
        if packed is None:
            continue
        try:
            signals = unpack_signals(packed, grid)
            for outcome in shard_result.outcomes:
                if outcome.asn in signals:
                    outcome.signal = signals[outcome.asn]
        finally:
            packed.release()
            shard_result.packed_signals = None


def _execute_shards(tasks, shard_fn, workers: int) -> List[ShardResult]:
    """Run shard tasks, in-process or across a pool, isolating crashes."""
    if not tasks:
        return []
    if workers <= 1 or len(tasks) == 1:
        return [_run_guarded(shard_fn, task) for task in tasks]
    try:
        results: List[ShardResult] = []
        with ProcessPoolExecutor(
            max_workers=min(workers, len(tasks))
        ) as pool:
            futures = {
                pool.submit(shard_fn, task): task for task in tasks
            }
            remaining = set(futures)
            while remaining:
                done, remaining = wait(
                    remaining, return_when=FIRST_COMPLETED
                )
                for future in done:
                    task = futures[future]
                    exc = future.exception()
                    if exc is None:
                        results.append(future.result())
                    else:
                        results.append(_failed_shard(task, exc))
        return results
    except OSError:
        # No working process pool on this platform: deterministic
        # in-process fallback (identical by construction — workers are
        # pure functions of their task).
        return [_run_guarded(shard_fn, task) for task in tasks]


def _run_guarded(shard_fn, task) -> ShardResult:
    try:
        return shard_fn(task)
    except Exception as exc:  # noqa: BLE001 — shard isolation
        return _failed_shard(task, exc)


def _failed_shard(task, exc: Exception) -> ShardResult:
    """A whole shard died: isolate it as per-AS failures."""
    outcomes = []
    for asn in sorted(task.groups):
        quality = DataQualityReport()
        quality.drop(
            STAGE, DropReason.AS_FAILURE,
            detail=f"AS{asn}: shard {task.index} failed: "
            f"{type(exc).__name__}: {exc}",
        )
        outcomes.append(ASOutcome(
            asn=asn,
            report=None,
            failure=ASFailure(
                asn=asn, error="ShardExecutionError",
                message=f"shard {task.index}: "
                f"{type(exc).__name__}: {exc}",
                attempts=1,
            ),
            quality=quality,
        ))
    return ShardResult(
        index=task.index, outcomes=outcomes, fault_log=None,
        wall_seconds=0.0,
    )


def _merge_outcomes(
    result: SurveyResult,
    groups: Dict[int, List[int]],
    cached: Dict[int, Dict],
    shard_results: List[ShardResult],
    cache: Optional[ResultCache],
    keys: Dict[int, str],
    keep_signals: bool = False,
) -> None:
    """Fold cached payloads and shard outcomes into the result.

    Iterates in sorted-ASN order (``groups`` is sorted by the filter),
    so report insertion order, quality-ledger merge order — and hence
    the serialized survey — are independent of shard scheduling.
    """
    from ..io.surveys import report_from_dict, report_to_dict

    fresh = {
        outcome.asn: outcome
        for shard_result in shard_results
        for outcome in shard_result.outcomes
    }
    for asn in groups:
        payload = cached.get(asn)
        if payload is not None:
            result.reports[asn] = report_from_dict(
                asn, payload["report"]
            )
            result.quality.merge(
                DataQualityReport.from_dict(payload["quality"])
            )
            continue
        outcome = fresh[asn]
        if outcome.failure is not None:
            result.failures[asn] = outcome.failure
        else:
            result.reports[asn] = outcome.report
            if keep_signals and outcome.signal is not None:
                result.signals[asn] = outcome.signal
            if cache is not None:
                cache.put(keys[asn], {
                    "report": report_to_dict(outcome.report),
                    "quality": outcome.quality.to_dict(),
                })
        result.quality.merge(outcome.quality)


def _record_shard_metrics(obs, period, shard_results) -> None:
    """Re-emit worker wall-times as spans + metrics in the parent,
    and fold each shard's captured telemetry back in: worker metrics
    merge into the run registry (per-stage totals match the serial
    path), worker span subtrees graft under the shard's marker span.
    """
    if not obs.enabled or not shard_results:
        return
    duration = obs.histogram(
        "survey_shard_duration_seconds",
        "shard wall-clock latency", ("period",),
    )
    ases = obs.counter(
        "survey_shard_ases_total",
        "ASes processed per shard", ("period", "shard"),
    )
    failures = obs.counter(
        "survey_shard_failures_total",
        "per-AS failures per shard", ("period", "shard"),
    )
    for shard_result in sorted(shard_results, key=lambda s: s.index):
        # Zero-duration marker span: the shard ran elsewhere; its
        # wall-time rides along as an attribute, and the worker's own
        # span subtree hangs beneath it.
        with obs.span(
            "survey-shard", shard=shard_result.index,
            ases=len(shard_result.outcomes),
            wall_seconds=round(shard_result.wall_seconds, 4),
        ) as marker:
            pass
        if shard_result.telemetry is not None:
            shard_result.telemetry.merge_into(obs, parent_span=marker)
        duration.observe(
            shard_result.wall_seconds, period=period.name
        )
        ases.inc(
            len(shard_result.outcomes), period=period.name,
            shard=str(shard_result.index),
        )
        failed = sum(
            1 for outcome in shard_result.outcomes
            if outcome.failure is not None
        )
        if failed:
            failures.inc(
                failed, period=period.name,
                shard=str(shard_result.index),
            )


def _record_cache_metrics(obs, period, hits, misses, corrupt) -> None:
    if not obs.enabled:
        return
    for name, help_text, value in (
        ("survey_cache_hits_total", "per-AS cache hits", hits),
        ("survey_cache_misses_total", "per-AS cache misses", misses),
        ("survey_cache_corrupt_total",
         "quarantined cache entries", corrupt),
    ):
        if value:
            obs.counter(name, help_text, ("period",)).inc(
                value, period=period.name
            )
