"""The survey's process pool: dispatch shards, isolate crashes.

:func:`repro.scenarios.run_survey_period` computes every period in
one body: it builds the world, filters the population, pins fault
targets and serves cache hits, then runs
:func:`~repro.scenarios.worldsurvey.survey_slice` over the pending
ASes and merges in sorted-ASN order.  With ``workers >= 2`` it hands
the pending ASes to :func:`run_shards` instead, which round-robins
them into shards and runs the same slice in each pool process
(:mod:`repro.parallel.worker`).  The parent re-emits shard timings as
``survey-shard`` spans and ``survey_shard_*`` metrics.

Failure isolation holds at both granularities: a per-AS error is an
:class:`~repro.core.survey.ASFailure` computed inside the worker
(same retry policy as in process), and a *shard* blowing up (worker
OOM, pool breakage) is converted into per-AS ``ShardExecutionError``
failures for its ASes — the pool keeps draining the other shards
either way.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Dict, List, Sequence, Tuple

from ..core.survey import STAGE, ASFailure
from ..obs import get_observer
from ..quality import DataQualityReport, DropReason
from ..scenarios.worldsurvey import ASOutcome
from ..timebase import MeasurementPeriod
from .sharding import shard_groups
from .worker import ShardResult, SurveyShardTask, run_survey_shard


def run_shards(
    specs: Sequence,
    period: MeasurementPeriod,
    pending: Dict[int, List[int]],
    workers: int,
    lockdown: bool,
    seed: int,
    faults: Sequence,
    fault_seed: int,
    kernels: str,
) -> Tuple[List[ASOutcome], list]:
    """Run the survey slice of ``pending`` on a pool of ``workers``.

    ``faults`` must already be pinned against the whole population
    and ``kernels`` is the parent's resolved backend name, so every
    shard faults and classifies as the in-process slice would.
    Returns every AS's outcome and the shards' fault logs, in shard
    order.  Raises :class:`OSError` when no process pool can start.
    """
    obs = get_observer()
    tasks = [
        SurveyShardTask(
            index=index, specs=list(specs), period=period,
            lockdown=lockdown, seed=seed, groups=shard,
            faults=list(faults), fault_seed=fault_seed, kernels=kernels,
            capture_telemetry=obs.enabled,
            trace_context=obs.tracer.context(),
        )
        for index, shard in enumerate(shard_groups(pending, workers))
    ]
    results: List[ShardResult] = []
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        futures = {
            pool.submit(run_survey_shard, task): task for task in tasks
        }
        remaining = set(futures)
        while remaining:
            done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
            for future in done:
                task = futures[future]
                exc = future.exception()
                if exc is None:
                    results.append(future.result())
                else:
                    results.append(_failed_shard(task, exc))
    results.sort(key=lambda shard_result: shard_result.index)
    _record_shard_metrics(obs, period, results)
    outcomes = [
        outcome
        for shard_result in results
        for outcome in shard_result.outcomes
    ]
    fault_logs = [
        shard_result.fault_log for shard_result in results
        if shard_result.fault_log is not None
    ]
    return outcomes, fault_logs


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


def _record_shard_metrics(obs, period, shard_results) -> None:
    """Re-emit worker wall-times as spans + metrics in the parent,
    and fold each shard's captured telemetry back in: worker metrics
    merge into the run registry (per-stage totals match the in-process
    run), worker span subtrees graft under the shard's marker span.
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
    for shard_result in shard_results:
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
