"""Backend-free flat-array code shared by every kernel caller.

The kernel operations (:mod:`repro.core.kernels`) consume flat
arrays; this module produces and post-processes them, once, for every
caller:

* the one traceroute scan (paper §2.1 stages 1-3), in two steps that
  survey, stream and anomaly callers share.  :func:`gate` bins each
  record or says why it cannot be binned; :func:`walk_hops` walks the
  gated traceroutes' responding hops (each address classified once,
  through a memo), selects hop pairs — the last-mile boundary, or
  every adjacent pair — and expands *all* pairs' sane replies into
  ``far - near`` samples in a handful of ``repeat``/``take``
  operations.  :func:`book` writes the quality ledger, per record in
  record order.  :func:`sample_lastmile` is the last-mile walk and
  its ledger, for the survey's :func:`scan_lastmile_flat` and the
  stream engine; a custom per-traceroute ``sample_fn`` (e.g. the
  end-to-end contrast of the specificity experiments) swaps only the
  walk.
* :func:`bin_medians` — the one bin mask: a key gets the median of
  its samples only when it was sampled *and* its traceroute count
  reaches the sanity minimum (stage 4).
* :func:`delay_matrix` — the one queueing-delay computation: per
  probe row, medians minus the period minimum over valid bins.
* :func:`plan_chunks` — splits populations into runs whose padded
  population cube stays within :data:`_CHUNK_ELEMENTS`, so the survey
  and the streaming engine run in bounded memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...quality import DataQualityReport, DropReason
from . import record_kernel_op, resolve_kernels

#: Stage key of the last-mile scan's quality accounting.
LASTMILE_STAGE = "core-lastmile"

#: What :func:`gate` leaves in place of a bin index: why the record
#: was dropped.
MALFORMED = -1
OUT_OF_PERIOD = -2

#: Budget, in padded elements, of one chunk's population cube
#: (populations x widest population x bins).  A chunk always holds at
#: least one population, however wide.  1 << 17 (1 MB of float64) is
#: the fastest paper-scale classify (646 ASes, 3,329 probes) measured
#: between 1 << 14 and 1 << 20, same bytes at every budget.
_CHUNK_ELEMENTS = 1 << 17

#: Hop-address classification memo.  Addresses repeat massively (one
#: probe traverses the same gateway and edge router all period), so
#: the parse + special-prefix matching runs once per distinct string.
_HOP_KIND_CACHE: Dict[str, str] = {}
_HOP_KIND_CACHE_MAX = 1 << 20


def _hop_kind(address: str) -> str:
    """Cached :func:`~repro.core.lastmile.classify_hop_address`."""
    kind = _HOP_KIND_CACHE.get(address)
    if kind is None:
        from ..lastmile import classify_hop_address

        if len(_HOP_KIND_CACHE) >= _HOP_KIND_CACHE_MAX:
            _HOP_KIND_CACHE.clear()
        kind = classify_hop_address(address)
        _HOP_KIND_CACHE[address] = kind
    return kind


def gate(results: Sequence, grid) -> np.ndarray:
    """Step 1 of the scan: each record's bin, or why it has none.

    A non-finite timestamp cannot be binned (:data:`MALFORMED`: it
    neither counts toward bin sanity nor is sampled); one outside
    ``0..duration`` is a skewed clock (:data:`OUT_OF_PERIOD`); every
    other record gets :meth:`~repro.timebase.TimeGrid.bin_index`, so a
    timestamp exactly at the period end lands in the last bin.  Books
    nothing: :func:`book` writes the ledger once the walk has run.
    """
    timestamps = np.fromiter(
        (result.timestamp for result in results), dtype=np.float64,
        count=len(results),
    )
    bins = np.full(len(results), MALFORMED, dtype=np.int64)
    finite = np.flatnonzero(np.isfinite(timestamps))
    stamps = timestamps[finite]
    inside = (stamps >= 0) & (stamps <= grid.num_bins * grid.bin_seconds)
    bins[finite[~inside]] = OUT_OF_PERIOD
    bins[finite[inside]] = grid.bin_index(stamps[inside])
    return bins


@dataclass
class HopPairs:
    """Step 2 output: the hop pairs of the walked traceroutes.

    Pair ``i`` belongs to walked traceroute ``rows[i]``, joins the hop
    answering from address ``near[i]`` (None: an anchor, which has no
    private hop) to the one answering from ``far[i]``, and owns
    ``samples[offsets[i]:offsets[i + 1]]`` — possibly none.  Pairs are
    in traceroute order, then path order.  ``routed[i]`` flags a
    public near hop: a next-hop observation.
    """

    rows: np.ndarray
    near: List[Optional[str]]
    far: List[str]
    routed: np.ndarray
    offsets: np.ndarray
    samples: np.ndarray

    def row_sizes(self, rows: int) -> np.ndarray:
        """Samples per walked traceroute, for ``rows`` traceroutes."""
        sizes = np.zeros(rows, dtype=np.int64)
        np.add.at(sizes, self.rows, np.diff(self.offsets))
        return sizes


def walk_hops(results: Sequence, links: bool = False) -> HopPairs:
    """Step 2 of the scan: hop pairs and their differential samples.

    Walks each traceroute's responding hops and selects its pairs:

    * by default the last-mile boundary: the last ``private`` hop
      before the first ``public`` one, ``other`` hops (loopback,
      link-local) skipped.  With no private hop the pair is an anchor,
      whose samples are the public hop's replies, raw.  A traceroute
      whose public hop never responds has no pair;
    * with ``links``, every adjacent pair of responding hops, of any
      kind, except ``near == far`` loops.

    Replies pass one sane filter (finite, ≥ 0); a pair's samples are
    every ``far - near`` reply difference, far-major, computed for all
    pairs in one vectorized expansion.  A pair with no sane reply on a
    side keeps zero samples.
    """
    cache = _HOP_KIND_CACHE
    replies: List[float] = []
    hop_sizes: List[int] = []
    rows: List[int] = []
    near_hops: List[int] = []
    far_hops: List[int] = []
    nears: List[Optional[str]] = []
    fars: List[str] = []
    routed: List[bool] = []

    def record(hop) -> int:
        rtts = [r.rtt_ms for r in hop.replies if r.rtt_ms is not None]
        replies.extend(rtts)
        hop_sizes.append(len(rtts))
        return len(hop_sizes) - 1

    for row, result in enumerate(results):
        near = near_address = near_kind = None
        near_hop = -1
        for hop in result.hops:
            address = hop.responding_address
            if address is None:
                continue
            kind = cache.get(address)
            if kind is None:
                kind = _hop_kind(address)
            if links:
                far_hop = record(hop)
                if near_address is not None and address != near_address:
                    rows.append(row)
                    near_hops.append(near_hop)
                    far_hops.append(far_hop)
                    nears.append(near_address)
                    fars.append(address)
                    routed.append(near_kind == "public")
                near_address, near_kind, near_hop = address, kind, far_hop
            elif kind == "private":
                near, near_address = hop, address
            elif kind == "public":
                rows.append(row)
                near_hops.append(-1 if near is None else record(near))
                far_hops.append(record(hop))
                nears.append(near_address)
                fars.append(address)
                routed.append(False)
                break

    raw = np.asarray(replies, dtype=np.float64)
    sane = np.isfinite(raw)
    sane[sane] = raw[sane] >= 0.0
    hop_of = np.repeat(np.arange(len(hop_sizes)), hop_sizes)
    counts = np.bincount(hop_of[sane], minlength=len(hop_sizes))
    values = raw[sane]
    starts = np.cumsum(counts) - counts
    near_at = np.asarray(near_hops, dtype=np.int64)
    far_at = np.asarray(far_hops, dtype=np.int64)
    anchor = near_at < 0
    width = np.where(anchor, 1, counts[near_at])
    sizes = counts[far_at] * width
    offsets = np.zeros(len(far_at) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    pair = np.repeat(np.arange(len(far_at)), sizes)
    local = np.arange(offsets[-1]) - offsets[pair]
    width = width[pair]
    samples = values[starts[far_at][pair] + local // width]
    paired = ~anchor[pair]
    samples[paired] -= values[
        starts[near_at][pair][paired] + local[paired] % width[paired]
    ]
    return HopPairs(
        rows=np.asarray(rows, dtype=np.int64),
        near=nears,
        far=fars,
        routed=np.asarray(routed, dtype=bool),
        offsets=offsets,
        samples=samples,
    )


def book(
    quality: Optional[DataQualityReport],
    stage: str,
    results: Sequence,
    bins: np.ndarray,
    grid,
    unmatched: np.ndarray,
    no_match: str,
) -> None:
    """The scan's ledger entries, per record in record order.

    Every record is ingested under ``stage``; one :func:`gate` dropped
    is booked with its reason, and an ``unmatched`` one — binned and
    counted, but without what the caller samples — is degraded
    ``NO_BOUNDARY`` with the detail ``probe <id>: <no_match>``.
    """
    if quality is None or not len(results):
        return
    quality.ingest(stage, len(results))
    duration = grid.num_bins * grid.bin_seconds
    for row in np.flatnonzero((bins < 0) | unmatched).tolist():
        result = results[row]
        timestamp = result.timestamp
        if bins[row] == MALFORMED:
            quality.drop(
                stage, DropReason.MALFORMED_RECORD,
                detail=f"probe {result.prb_id}: timestamp {timestamp!r}",
            )
        elif bins[row] == OUT_OF_PERIOD:
            quality.drop(
                stage, DropReason.OUT_OF_PERIOD,
                detail=f"probe {result.prb_id}: timestamp "
                f"{timestamp:.0f}s outside 0..{duration}s",
            )
        else:
            quality.degrade(
                stage, DropReason.NO_BOUNDARY,
                detail=f"probe {result.prb_id}: {no_match}",
            )


def sample_lastmile(
    results: Sequence,
    bins: np.ndarray,
    rows: np.ndarray,
    grid,
    quality: Optional[DataQualityReport],
    sample_fn: Optional[Callable] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The last-mile walk over ``results[rows]``, then :func:`book`.

    Returns the number of samples of each walked record and the
    samples, in record order; a walked record without one is booked
    ``NO_BOUNDARY`` under :data:`LASTMILE_STAGE`.  ``sample_fn``
    replaces the walk with a per-traceroute extractor.
    """
    walked = [results[row] for row in rows.tolist()]
    if sample_fn is None:
        pairs = walk_hops(walked)
        sizes = pairs.row_sizes(len(walked))
        values = pairs.samples
    else:
        lists = [sample_fn(result) for result in walked]
        sizes = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
        values = np.fromiter(
            chain.from_iterable(lists), dtype=np.float64,
            count=int(sizes.sum()),
        )
    unmatched = np.zeros(len(results), dtype=bool)
    unmatched[rows] = sizes == 0
    book(
        quality, LASTMILE_STAGE, results, bins, grid, unmatched,
        "no usable private→public hop pair",
    )
    return sizes, values


@dataclass
class FlatScan:
    """Flat per-sample output of one probe's traceroute scan."""

    prb_id: Optional[int]
    processed: int
    #: Bin index of every individual last-mile sample.
    sample_bins: np.ndarray
    #: The sample values, in (traceroute, far-major pair) order.
    sample_values: np.ndarray


def scan_lastmile_flat(
    results,
    grid,
    prb_id: Optional[int] = None,
    quality: Optional[DataQualityReport] = None,
    counts: Optional[np.ndarray] = None,
    sample_fn: Optional[Callable] = None,
) -> FlatScan:
    """Stages 1-3 of the estimation for one probe, flat-array output.

    :func:`gate`, then :func:`sample_lastmile` over the binned
    records.  Every binned record counts toward its bin's sanity count
    (``counts`` is incremented in place); one that yields no sample —
    boundary missing, or present with only insane replies — is
    degraded as ``NO_BOUNDARY``.  Samples are laid out in traceroute
    order.
    ``sample_fn`` replaces the walk with a per-traceroute extractor
    (e.g. :func:`~repro.core.lastmile.e2e_samples`).
    """
    if not isinstance(results, list):
        results = list(results)
    if counts is None:
        counts = np.zeros(grid.num_bins, dtype=np.int64)
    if prb_id is None and results:
        prb_id = results[0].prb_id
    bins = gate(results, grid)
    gated = np.flatnonzero(bins >= 0)
    counts += np.bincount(bins[gated], minlength=grid.num_bins)
    sizes, values = sample_lastmile(
        results, bins, gated, grid, quality, sample_fn
    )
    return FlatScan(
        prb_id=prb_id,
        processed=len(results),
        sample_bins=np.repeat(bins[gated], sizes),
        sample_values=values,
    )


def bin_medians(
    keys: np.ndarray,
    values: np.ndarray,
    counts: np.ndarray,
    min_traceroutes: int,
    kernels=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-key medians of flat samples, masked to the estimated keys.

    ``counts`` holds one traceroute count per key, in any shape; keys
    index its flattened form (``row * num_bins + bin`` for a matrix).
    A key is *estimated* when it has at least one sample and its count
    reaches ``min_traceroutes``; it gets the
    :meth:`group_medians` value of its samples, everything else stays
    NaN.  Returns ``(medians, estimated)``, both shaped like
    ``counts``.
    """
    kern = resolve_kernels(kernels)
    keys = np.asarray(keys, dtype=np.int64)
    counts = np.asarray(counts)
    medians = np.full(counts.shape, np.nan)
    estimated = np.zeros(counts.shape, dtype=bool)
    if not len(keys):
        return medians, estimated
    record_kernel_op(kern.name, "group-medians")
    grouped = kern.group_medians(keys, values, counts.size)
    flat_estimated = estimated.reshape(-1)
    flat_estimated[keys] = True
    flat_estimated &= counts.reshape(-1) >= min_traceroutes
    medians.reshape(-1)[flat_estimated] = grouped[flat_estimated]
    return medians, estimated


def delay_matrix(
    medians: np.ndarray,
    counts: np.ndarray,
    min_traceroutes: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Queueing-delay rows for a stack of probes in one 2-D pass.

    Per row: bins failing the sanity mask (too few traceroutes, or no
    estimate) are NaN, and every row subtracts its own minimum over
    valid bins — the propagation delay, recomputed per period.  The
    minimum is ``fmin.reduce``, which is ``nanmin`` without its
    all-NaN warning: a row with no valid bin stays all-NaN.  Returns
    ``(delays, dead)`` where ``dead`` flags rows that contributed no
    valid bin at all.
    """
    valid = (counts >= min_traceroutes) & ~np.isnan(medians)
    delays = np.where(valid, medians, np.nan)
    dead = ~valid.any(axis=1)
    if delays.size:
        delays -= np.fmin.reduce(delays, axis=1)[:, None]
    return delays, dead


def plan_chunks(
    sizes: Sequence[int],
    width: int,
    budget: Optional[int] = None,
) -> List[Tuple[int, int]]:
    """Split populations, in order, into ``[start, stop)`` chunks.

    A chunk's padded cube — populations x widest population x
    ``width`` — stays within ``budget`` (default
    :data:`_CHUNK_ELEMENTS`), except that a chunk always holds at
    least one population: one wider than the budget gets a chunk of
    its own.
    """
    if budget is None:
        budget = _CHUNK_ELEMENTS
    chunks: List[Tuple[int, int]] = []
    start = 0
    widest = 0
    for index, size in enumerate(sizes):
        wider = max(widest, size)
        if index > start and (index - start + 1) * wider * width > budget:
            chunks.append((start, index))
            start, wider = index, size
        widest = wider
    if start < len(sizes):
        chunks.append((start, len(sizes)))
    return chunks
