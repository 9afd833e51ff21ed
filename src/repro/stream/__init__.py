"""Streaming survey engine: traceroutes append as they arrive.

The batch pipeline (``repro.core``) analyzes a finished period in one
pass.  This package is its incremental twin for continuous operation:
:class:`StreamingSurvey` ingests records one at a time or in
micro-batches, every sampled input as a column batch
(:class:`SampleBatch`, the unit :func:`decompose` splits a dataset
into), keeps every open sample in one columnar store, finalizes bins
as the watermark passes them through the selected kernel backend
with the batch pipeline's exact per-bin median, and reclassifies only
the ASes whose inputs changed.
``tests/stream`` holds the differential harness that proves a
finalized streaming survey bit-identical to the batch run.
"""

from .engine import STAGE, StreamingSurvey
from .records import (
    ProbeRecord,
    SampleBatch,
    SampleRecord,
    StreamRecord,
    TraceRecord,
    column_batches,
    dataset_to_records,
    decompose,
    micro_batches,
    shuffle_within_bins,
)

__all__ = [
    "STAGE",
    "StreamingSurvey",
    "ProbeRecord",
    "SampleBatch",
    "SampleRecord",
    "StreamRecord",
    "TraceRecord",
    "column_batches",
    "dataset_to_records",
    "decompose",
    "micro_batches",
    "shuffle_within_bins",
]
