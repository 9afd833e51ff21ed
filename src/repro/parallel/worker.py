"""Shard workers: the unit of work one pool process executes.

The entry point, :func:`run_survey_shard`, is module-level, so it
pickles by reference into pool processes.  The worker rebuilds the
*full* world and platform from the spec list (cheap — seconds per
hundred ASes), then runs
:func:`~repro.scenarios.worldsurvey.survey_slice`, the same slice the
in-process survey runs, over its shard's ASes on one simulate thread.
Rebuilding everything is what keeps sharding exact: world
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
parent merges the metrics (per-stage totals then equal the in-process
run's) and grafts the spans under its ``survey-shard`` marker.  Under
a no-op parent the worker runs silenced, so the fast case pays
nothing.  Telemetry never touches the classification output, so
byte-equivalence and the content-addressed cache are unaffected.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..core.kernels import DEFAULT_KERNELS
from ..scenarios.worldsurvey import (
    ASOutcome,
    build_survey_world,
    survey_slice,
)
from ..timebase import MeasurementPeriod

if TYPE_CHECKING:
    from ..faults.base import FaultLog


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
    previous process-wide observer, so a task run directly in the
    calling process leaves its observer as it was.
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
    """Rebuild the world, then run the survey slice of this shard."""
    started = time.perf_counter()
    with _shard_observer(task) as snapshot:
        _world, platform = build_survey_world(
            task.specs, lockdown=task.lockdown, seed=task.seed,
            period_name=task.period.name,
        )
        # One simulate thread: the pool already spends the CPUs on
        # worker processes.
        outcomes, fault_log = survey_slice(
            platform, task.period, task.groups, faults=task.faults,
            fault_seed=task.fault_seed, kernels=task.kernels, threads=1,
        )
        telemetry = snapshot()
    return ShardResult(
        index=task.index,
        outcomes=outcomes,
        fault_log=fault_log,
        wall_seconds=time.perf_counter() - started,
        telemetry=telemetry,
    )
