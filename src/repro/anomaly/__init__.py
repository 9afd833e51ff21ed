"""Anomaly pinpointing over Atlas-shaped traceroutes.

The persistent-congestion pipeline answers "which ASes are congested
every day"; this subsystem answers the complementary transient
question from Fontugne et al., "Pinpointing Delay and Forwarding
Anomalies Using Large-Scale Traceroute Measurements": *which link*
misbehaved, *when*, and *how* — a delay surge or a routing change.

Stages:

1. :mod:`repro.anomaly.links` scans traceroutes once into per-link
   differential-RTT observations plus next-hop counts: the last-mile
   scan of :mod:`repro.core.kernels.flat` (same gate, hop walk, sane
   filter and pairwise reply subtraction) selecting every adjacent
   responding hop pair instead of the private→public boundary.
2. :mod:`repro.anomaly.detect` routes the per-(link, bin) medians
   through the shared :mod:`repro.core.kernels` backends, wraps each
   bin in a Wilson rank band, learns a per-link per-time-of-day
   "normal" reference, and emits delay events (band stops overlapping
   the reference) and forwarding events (next-hop distribution shift)
   as a deterministic :class:`AnomalyReport`.

The report is a first-class archive artifact: committed crash-safely
by :meth:`repro.store.SurveyArchive.ingest_anomalies`, audited by
fsck, served on ``/v1/period/<p>/anomalies`` and
``/v1/link/<link>/history``.
"""

from .links import (
    LinkObservations,
    link_id,
    scan_links,
    split_link_id,
)
from .detect import (
    DEFAULT_CONFIDENCE,
    DEFAULT_FORWARDING_THRESHOLD,
    DEFAULT_MIN_GAP_MS,
    DEFAULT_MIN_SAMPLES,
    AnomalyReport,
    anomaly_deltas,
    detect_anomalies,
    link_bin_medians,
    merge_references,
    reference_from_payload,
)

__all__ = [
    "LinkObservations",
    "link_id",
    "scan_links",
    "split_link_id",
    "DEFAULT_CONFIDENCE",
    "DEFAULT_FORWARDING_THRESHOLD",
    "DEFAULT_MIN_GAP_MS",
    "DEFAULT_MIN_SAMPLES",
    "AnomalyReport",
    "anomaly_deltas",
    "detect_anomalies",
    "link_bin_medians",
    "merge_references",
    "reference_from_payload",
]
