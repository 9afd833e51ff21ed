"""Last-mile RTT estimation from traceroutes (paper §2.1).

Stages, exactly as the paper describes:

1. Identify the boundary: the last RFC 1918 (private) hop and the
   first public hop of each traceroute
   (:func:`repro.core.kernels.flat.walk_hops`).
2. Pairwise-subtract the private hop's replies from the public hop's
   replies: 3 × 3 = 9 last-mile RTT samples per traceroute.
3. Group each probe's traceroutes into 30-minute bins; discard bins
   with fewer than 3 traceroutes (disconnected-probe sanity check).
4. Per bin, the probe's last-mile RTT estimate is the median of all
   samples in the bin (24 traceroutes × 9 samples = 216).

Anchors have no private hop; for them (used only by the Appendix B
control analysis) the first public hop RTT itself is the sample.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..netbase import is_private, is_public, parse_address
from ..atlas.traceroute import TracerouteResult
from ..obs import get_observer
from ..quality import DataQualityReport
from ..timebase import TimeGrid
from .kernels import resolve_kernels
from .kernels.flat import (
    LASTMILE_STAGE as STAGE,
    bin_medians,
    scan_lastmile_flat,
    walk_hops,
)
from .series import LastMileDataset, ProbeBinSeries

#: The paper's disconnected-probe sanity threshold.
MIN_TRACEROUTES_PER_BIN = 3


def classify_hop_address(address: str) -> str:
    """Classify a hop address as 'private', 'public' or 'other'.

    'other' covers loopback, link-local, documentation and multicast
    space — anomalies that must be skipped rather than treated as the
    ISP edge.
    """
    try:
        value, version = parse_address(address)
    except ValueError:
        return "other"
    if is_private(value, version):
        return "private"
    if is_public(value, version):
        return "public"
    return "other"


def lastmile_samples(result: TracerouteResult) -> List[float]:
    """Per-traceroute last-mile RTT samples (up to 9).

    The one-traceroute case of the scan's hop walk
    (:func:`~repro.core.kernels.flat.walk_hops`): pairwise subtraction
    of the last private hop's RTTs from the first public hop's RTTs.
    With no private hop the public hop's RTTs are used directly
    (anchor case).  Timeout replies simply yield fewer samples.

    Replies whose RTT is non-finite (NaN/inf from a corrupt record)
    or negative are discarded by the same sanity filter.  When *every*
    reply of the public hop — or, for non-anchors, of the private
    hop — is insane, the pairwise product is empty and the traceroute
    yields no samples at all, exactly like a traceroute whose boundary
    never responded; the scan then counts it toward bin sanity but
    flags it as degraded.
    """
    return walk_hops([result]).samples.tolist()


def e2e_samples(result: TracerouteResult) -> List[float]:
    """End-to-end RTT samples: the last responding hop's replies.

    Not part of the paper's methodology — used by the specificity
    experiments to contrast naive end-to-end delay analysis with the
    last-mile subtraction.
    """
    for hop in reversed(result.hops):
        rtts = hop.rtts
        if rtts:
            return list(rtts)
    return []


def estimate_probe_series(
    results: Iterable[TracerouteResult],
    grid: TimeGrid,
    prb_id: Optional[int] = None,
    min_traceroutes: int = MIN_TRACEROUTES_PER_BIN,
    sample_fn=None,
    quality: Optional[DataQualityReport] = None,
    kernels=None,
) -> ProbeBinSeries:
    """Binned last-mile medians for one probe's traceroutes.

    The one-probe case of :func:`estimate_dataset`.  ``prb_id`` is
    inferred from the first result when not given; an empty input
    needs it explicitly.  ``sample_fn`` swaps the per-traceroute
    sample extractor (default :func:`lastmile_samples`; pass
    :func:`e2e_samples` for a naive end-to-end analysis).
    ``kernels`` selects the median backend
    (:func:`repro.core.kernels.resolve_kernels`); both backends are
    numerically identical by contract.

    Dirty-input behavior: results whose timestamp is non-finite are
    dropped as malformed before binning (they do not count toward bin
    sanity), results whose timestamp falls outside the grid's period
    (skewed probe clocks) are dropped, and results that yield no
    samples — no responding public hop, or a boundary whose replies
    are all non-finite — still count toward the bin's sanity count
    but are flagged; all three are recorded on ``quality`` when given
    (see :func:`repro.core.kernels.flat.scan_lastmile_flat`).
    """
    [series] = _estimate(
        [(prb_id, results)], grid, min_traceroutes, sample_fn, quality,
        resolve_kernels(kernels),
    )
    return series


def estimate_dataset(
    results_by_probe: Dict[int, List[TracerouteResult]],
    grid: TimeGrid,
    probe_meta: Optional[Dict[int, object]] = None,
    min_traceroutes: int = MIN_TRACEROUTES_PER_BIN,
    sample_fn=None,
    quality: Optional[DataQualityReport] = None,
    kernels=None,
) -> LastMileDataset:
    """Run the estimation for every probe of a measurement dataset.

    Each probe's traceroutes are scanned once; one ``group_medians``
    call over flat ``(probe * num_bins + bin, sample)`` arrays then
    estimates every probe's bins.  Arguments as for
    :func:`estimate_probe_series`.
    """
    kern = resolve_kernels(kernels)
    obs = get_observer()
    with obs.stage_span(
        "lastmile", probes=len(results_by_probe), kernel=kern.name
    ):
        dataset = LastMileDataset(grid=grid)
        for series in _estimate(
            list(results_by_probe.items()), grid, min_traceroutes,
            sample_fn, quality, kern,
        ):
            meta = probe_meta.get(series.prb_id) if probe_meta else None
            dataset.add(series, meta=meta)
        return dataset


def _estimate(
    items: List[Tuple[Optional[int], Iterable[TracerouteResult]]],
    grid: TimeGrid,
    min_traceroutes: int,
    sample_fn,
    quality: Optional[DataQualityReport],
    kern,
) -> List[ProbeBinSeries]:
    """Stages 1-4 for ``(prb_id, results)`` pairs: one scan per probe,
    one :func:`~repro.core.kernels.flat.bin_medians` call for all."""
    num_bins = grid.num_bins
    counts = np.zeros((len(items), num_bins), dtype=np.int64)
    prb_ids: List[int] = []
    keys = [np.zeros(0, dtype=np.int64)]
    values = [np.zeros(0, dtype=np.float64)]
    processed = 0
    for row, (prb_id, results) in enumerate(items):
        scan = scan_lastmile_flat(
            results, grid, prb_id, quality, counts[row], sample_fn
        )
        if scan.prb_id is None:
            raise ValueError("empty result set and no prb_id given")
        prb_ids.append(scan.prb_id)
        processed += scan.processed
        keys.append(row * num_bins + scan.sample_bins)
        values.append(scan.sample_values)
    medians, estimated = bin_medians(
        np.concatenate(keys), np.concatenate(values), counts,
        min_traceroutes, kern,
    )
    obs = get_observer()
    obs.items_in(STAGE, processed)
    obs.items_out(STAGE, int(estimated.sum()))
    return [
        ProbeBinSeries(
            prb_id=prb_id,
            median_rtt_ms=medians[row],
            traceroute_counts=counts[row],
        )
        for row, prb_id in enumerate(prb_ids)
    ]
