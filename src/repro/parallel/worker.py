"""Shard workers: the unit of work one pool process executes.

The entry point, :func:`run_survey_shard`, is module-level, so it
pickles by reference into pool processes.  The worker rebuilds the
*full* world and platform from the spec list (cheap — seconds per
hundred ASes), then generates measurement series only for its shard's
probes.  Rebuilding everything is what keeps sharding exact: world
construction consumes order-dependent RNG (per-ISP seed spawning,
platform-wide version sampling, sequential probe ids), so the only way
a worker sees bit-identical probes is to replay the identical build;
per-probe *measurement* randomness is content-keyed
(:func:`repro.atlas.platform._campaign_seed`), so generating a subset
yields the same series the full run would.

Workers observe their own work: when the parent runs under a live
observer, each task carries ``capture_telemetry=True`` plus the
parent's :class:`~repro.obs.TraceContext`, and the worker installs a
fresh capturing observer whose metrics and span subtree come back as
a :class:`~repro.obs.TelemetrySnapshot` on the shard result — the
parent merges the metrics (per-stage totals then equal the serial
run's) and grafts the spans under its ``survey-shard`` marker.  Under
a no-op parent the worker keeps the old NOOP path, so the silenced
fast case pays nothing.  Either way, per-AS quality is recorded on
fresh per-AS ledgers that the parent merges in sorted order,
reproducing the serial ledger's counts; telemetry never touches the
classification output, so byte-equivalence and the content-addressed
cache are unaffected.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..core.classify import ClassificationThresholds, DEFAULT_THRESHOLDS
from ..core.kernels import DEFAULT_KERNELS
from ..core.series import LastMileDataset
from ..core.survey import ASFailure, ASReport, classify_asn_batch
from ..quality import DataQualityReport
from ..timebase import MeasurementPeriod

if TYPE_CHECKING:
    from ..faults.base import FaultLog


@dataclass
class ASOutcome:
    """One AS's result as computed inside a shard."""

    asn: int
    report: Optional[ASReport]
    failure: Optional[ASFailure]
    quality: DataQualityReport


@dataclass
class ShardResult:
    """Everything one shard hands back to the parent."""

    index: int
    outcomes: List[ASOutcome]
    #: Injections made (None when the task carried no faults).
    fault_log: Optional[FaultLog]
    wall_seconds: float
    #: Worker-side metrics + spans (None when the parent ran un-observed).
    telemetry: Optional[object] = None


@dataclass
class SurveyShardTask:
    """Inputs of one generative-survey shard (fully picklable)."""

    index: int
    #: The *complete* spec list — the worker must rebuild the whole
    #: world to replay its order-dependent RNG (see module docstring).
    specs: List
    period: MeasurementPeriod
    lockdown: bool
    seed: int
    #: This shard's slice of the filtered population.
    groups: Dict[int, List[int]]
    thresholds: ClassificationThresholds = DEFAULT_THRESHOLDS
    max_attempts: int = 2
    #: Dataset injectors with targets already pinned by the parent.
    faults: List = field(default_factory=list)
    fault_seed: int = 0
    #: The parent's *resolved* kernel backend name, so every shard
    #: runs the backend the parent chose.
    kernels: str = DEFAULT_KERNELS
    #: True when the parent runs observed: the worker captures its own
    #: metrics/spans and ships them back as a TelemetrySnapshot.
    capture_telemetry: bool = False
    #: The parent's trace identity (trace id + dispatching span id).
    trace_context: Optional[object] = None


@contextmanager
def _shard_observer(task):
    """The worker's observer for one task.

    ``capture_telemetry`` off: the historical NOOP silencing (nothing
    recorded, nothing shipped).  On: a fresh capturing observer whose
    tracer adopts the parent's trace id; yields a snapshot callback so
    the caller can freeze it after the work.  Always restores the
    previous process-wide observer — the in-process ``workers=1``
    fallback runs this in the parent.
    """
    from ..obs import (
        NOOP,
        Observability,
        TelemetrySnapshot,
        get_observer,
        set_observer,
    )

    previous = get_observer()
    if not task.capture_telemetry:
        set_observer(NOOP)
        try:
            yield lambda: None
        finally:
            set_observer(previous)
        return
    context = task.trace_context
    observer = Observability()
    if context is not None:
        observer.tracer.trace_id = context.trace_id
    set_observer(observer)
    try:
        yield lambda: TelemetrySnapshot.capture(
            observer, shard=task.index, context=context,
        )
    finally:
        set_observer(previous)


def run_survey_shard(task: SurveyShardTask) -> ShardResult:
    """Rebuild the world, generate this shard's probes, classify."""
    from ..scenarios.worldsurvey import build_survey_world

    started = time.perf_counter()
    with _shard_observer(task) as snapshot:
        world, platform = build_survey_world(
            task.specs, lockdown=task.lockdown, seed=task.seed,
            period_name=task.period.name,
        )
        del world  # classification needs only the dataset
        wanted = {
            prb_id
            for probe_ids in task.groups.values()
            for prb_id in probe_ids
        }
        probes = [p for p in platform.probes if p.probe_id in wanted]
        # One simulate thread: the executor already spends the CPUs
        # on worker processes.
        dataset = platform.run_period_binned(
            task.period, probes=probes, threads=1,
        )
        fault_log = None
        if task.faults:
            from ..faults.base import FaultLog
            from ..faults.dataset import inject_dataset

            fault_log = FaultLog()
            inject_dataset(
                dataset, task.faults, seed=task.fault_seed,
                log=fault_log,
            )
        outcomes = _classify_groups(
            dataset, task.groups, task.thresholds, task.max_attempts,
            kernels=task.kernels,
        )
        telemetry = snapshot()
    return ShardResult(
        index=task.index,
        outcomes=outcomes,
        fault_log=fault_log,
        wall_seconds=time.perf_counter() - started,
        telemetry=telemetry,
    )


def _classify_groups(
    dataset: LastMileDataset,
    groups: Dict[int, List[int]],
    thresholds: ClassificationThresholds,
    max_attempts: int,
    kernels: str = DEFAULT_KERNELS,
) -> List[ASOutcome]:
    ledgers = {asn: DataQualityReport() for asn in groups}
    batch = classify_asn_batch(
        dataset, [(asn, groups[asn]) for asn in sorted(groups)],
        thresholds=thresholds, max_attempts=max_attempts,
        kernels=kernels, quality_for=ledgers.__getitem__,
    )
    return [
        ASOutcome(
            asn=asn, report=report, failure=failure,
            quality=ledgers[asn],
        )
        for asn, report, failure, _signal in batch
    ]
