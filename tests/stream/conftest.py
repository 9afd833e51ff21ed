"""Shared fixtures for the streaming-engine differential harness.

The worlds replayed here are the *same* seeded worlds the kernel
differential suite (``tests/kernels``) pins the backends on: the
10-AS generated survey world, the synthetic sinusoid dataset, and
the degenerate-corner dataset — plus their fault-injected variants.
Every replay funnels through :func:`repro.stream.decompose` and
:func:`repro.stream.column_batches` — the path ``repro stream``
runs — or, on request, through their record-object view
(:func:`repro.stream.dataset_to_records` /
:func:`repro.stream.micro_batches`), so a batch dataset and its
stream replay are comparable byte-for-byte.
"""

import datetime as dt
import json

import numpy as np
import pytest

from repro.core import classify_dataset
from repro.faults import BinLoss, NaNBursts, PoisonAS, inject_dataset
from repro.io import survey_to_dict
from repro.quality import DataQualityReport
from repro.scenarios import build_survey_world, generate_specs
from repro.stream import (
    StreamingSurvey,
    column_batches,
    dataset_to_records,
    decompose,
    micro_batches,
)
from repro.timebase import MeasurementPeriod, TimeGrid

PERIOD = MeasurementPeriod("2019-09", dt.datetime(2019, 9, 2), 4)
GRID = TimeGrid(PERIOD)
WORLD_SEED = 5
SURVEY_SEED = 7
FAULT_SEED = 3


def canonical_bytes(result):
    """The serialized survey as bytes — the equality the suite asserts."""
    return json.dumps(
        survey_to_dict(result), sort_keys=True
    ).encode("ascii")


def quality_counts(report):
    """Counts-only view of a quality ledger (quarantine samples are
    capped and order-sensitive; counts are the exact contract)."""
    return {
        name: {
            "ingested": entry.ingested,
            "dropped": {
                reason.value: count
                for reason, count in entry.dropped.items() if count
            },
            "degraded": {
                reason.value: count
                for reason, count in entry.degraded.items() if count
            },
        }
        for name, entry in report.stages.items()
    }


def make_faults():
    """The fault cocktail the kernel suite uses, one extra poison."""
    return [
        BinLoss(rate=0.05),
        NaNBursts(probe_rate=0.2),
        PoisonAS(count=2),
    ]


def seeded_dataset(specs, period=PERIOD):
    """The 10-AS survey world of ``tests/kernels``, binned."""
    world, platform = build_survey_world(
        specs, lockdown=False, seed=SURVEY_SEED,
        period_name=period.name,
    )
    dataset = platform.run_period_binned(period)
    return dataset, world.table


def faulted_dataset(specs, period=PERIOD):
    """A fresh seeded dataset run through the fault injectors."""
    dataset, table = seeded_dataset(specs, period)
    dataset, log = inject_dataset(
        dataset, make_faults(), seed=FAULT_SEED
    )
    return dataset, table, log


def batch_survey(dataset, table=None, kernels="reference", **kwargs):
    """The batch pipeline's verdict plus its quality ledger."""
    quality = DataQualityReport()
    result = classify_dataset(
        dataset, PERIOD, table=table, kernels=kernels,
        quality=quality, **kwargs,
    )
    return result, quality


def stream_replay(
    dataset,
    table=None,
    kernels="reference",
    shuffle_seed=None,
    batch_size=None,
    emit_every=0,
    record_objects=False,
    **kwargs,
):
    """Replay a batch dataset through the streaming engine.

    ``shuffle_seed`` permutes observations within each bin;
    ``batch_size`` feeds the stream in micro-batches (default: one
    batch); ``emit_every`` snapshots a partial survey every N batches
    (exercising the incremental-reclassification cache mid-stream).
    The batches hold column batches, as ``repro stream`` feeds them,
    or with ``record_objects`` one record object per traceroute.
    Returns ``(engine, finalized_result)``.
    """
    rng = (
        np.random.default_rng(shuffle_seed)
        if shuffle_seed is not None else None
    )
    engine = StreamingSurvey(
        PERIOD, table=table, kernels=kernels, **kwargs,
    )
    if record_objects:
        records = dataset_to_records(dataset, rng=rng)
        batches = micro_batches(records, batch_size or max(len(records), 1))
    else:
        registrations, rows = decompose(dataset, rng=rng)
        size = batch_size or max(len(registrations) + len(rows), 1)
        batches = column_batches(registrations, rows, size)
    for index, batch in enumerate(batches, start=1):
        engine.ingest_many(batch)
        if emit_every and index % emit_every == 0:
            engine.emit_partial()
    return engine, engine.finalize()


@pytest.fixture(scope="session")
def specs():
    return generate_specs(num_ases=10, num_countries=6, seed=WORLD_SEED)
