"""Backend-free flat-array code shared by every kernel caller.

The kernel operations (:mod:`repro.core.kernels`) consume flat
arrays; this module produces and post-processes them, once, for every
caller:

* :func:`scan_lastmile_flat` — the one traceroute scan (paper §2.1
  stages 1-3): timestamp gating, binning, sanity counting and the
  quality ledger, producing flat ``(bin, sample)`` arrays.  Hop
  addresses are classified once per distinct address, and the
  pairwise private/public subtraction for *all* traceroutes runs in a
  handful of ``repeat``/``take`` operations at the end.  A custom
  per-traceroute ``sample_fn`` (e.g. the end-to-end contrast of the
  specificity experiments) swaps only the sampling.
* :func:`bin_medians` — the one bin mask: a key gets the median of
  its samples only when it was sampled *and* its traceroute count
  reaches the sanity minimum (stage 4).
* :func:`delay_matrix` — the one queueing-delay computation: per
  probe row, medians minus the period minimum over valid bins.
* :func:`plan_chunks` — splits populations into runs whose padded
  population cube stays within :data:`_CHUNK_ELEMENTS`, so the survey
  and the streaming engine run in bounded memory.

Quality accounting stays *per record, in record order* — only the
numeric work is batched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...quality import DataQualityReport, DropReason
from . import record_kernel_op, resolve_kernels

#: Stage key for quality accounting — must match
#: :data:`repro.core.lastmile.STAGE` (not imported to avoid a cycle).
_LASTMILE_STAGE = "core-lastmile"

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


@dataclass
class FlatScan:
    """Flat per-sample output of one probe's traceroute scan."""

    prb_id: Optional[int]
    processed: int
    #: Bin index of every individual last-mile sample.
    sample_bins: np.ndarray
    #: The sample values, in (traceroute, public-major pair) order.
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

    Edge semantics are decided here:

    * a non-finite timestamp cannot be binned: the record is dropped
      as ``MALFORMED_RECORD`` *before* the bin sanity counts — it
      neither helps a bin reach the minimum nor is it sampled;
    * a timestamp outside the period (skewed clock) is dropped as
      ``OUT_OF_PERIOD``;
    * a binned record always counts toward its bin's sanity count
      (``counts`` is incremented in place), and one that yields no
      sample — boundary missing, or present with only insane replies —
      is degraded as ``NO_BOUNDARY``.

    Samples are :func:`~repro.core.lastmile.lastmile_samples` per
    traceroute, laid out as every private/public pairwise sample in
    (traceroute, public-major pair) order followed by every anchor
    (no private hop) sample.  ``sample_fn`` replaces the per-traceroute
    extractor (e.g. :func:`~repro.core.lastmile.e2e_samples`); its
    samples are laid out in traceroute order.
    """
    if not isinstance(results, list):
        results = list(results)
    if counts is None:
        counts = np.zeros(grid.num_bins, dtype=np.int64)
    bin_seconds = grid.bin_seconds
    num_bins = grid.num_bins
    duration = num_bins * bin_seconds
    last_bin = num_bins - 1
    isfinite = math.isfinite
    kind_cache = _HOP_KIND_CACHE

    # Two-hop (private->public) traceroutes: flat reply pools plus
    # per-traceroute pool sizes, pairwise-expanded after the loop.
    pair_bins: List[int] = []
    pub_pool: List[float] = []
    priv_pool: List[float] = []
    pub_sizes: List[int] = []
    priv_sizes: List[int] = []
    # Anchor traceroutes (no private hop): replies are the samples.
    # A custom ``sample_fn``'s samples share this pool.
    anchor_bins: List[int] = []
    anchor_pool: List[float] = []
    anchor_sizes: List[int] = []

    processed = 0
    for result in results:
        processed += 1
        if prb_id is None:
            prb_id = result.prb_id
        if quality is not None:
            quality.ingest(_LASTMILE_STAGE)
        timestamp = result.timestamp
        if not isfinite(timestamp):
            if quality is not None:
                quality.drop(
                    _LASTMILE_STAGE, DropReason.MALFORMED_RECORD,
                    detail=f"probe {result.prb_id}: timestamp "
                    f"{timestamp!r}",
                )
            continue
        if timestamp < 0 or timestamp > duration:
            if quality is not None:
                quality.drop(
                    _LASTMILE_STAGE, DropReason.OUT_OF_PERIOD,
                    detail=f"probe {result.prb_id}: timestamp "
                    f"{timestamp:.0f}s outside 0..{duration}s",
                )
            continue
        bin_index = int(timestamp // bin_seconds)
        if bin_index > last_bin:
            bin_index = last_bin
        counts[bin_index] += 1

        if sample_fn is not None:
            samples = sample_fn(result)
            if samples:
                anchor_bins.append(bin_index)
                anchor_pool.extend(samples)
                anchor_sizes.append(len(samples))
            elif quality is not None:
                quality.degrade(
                    _LASTMILE_STAGE, DropReason.NO_BOUNDARY,
                    detail=f"probe {result.prb_id}: no usable "
                    "private→public hop pair",
                )
            continue
        last_private = None
        public = None
        for hop in result.hops:
            address = hop.responding_address
            if address is None:
                continue
            kind = kind_cache.get(address)
            if kind is None:
                kind = _hop_kind(address)
            if kind == "private":
                last_private = hop
            elif kind == "public":
                public = hop
                break
        samples_found = False
        if public is not None:
            pub = [
                r.rtt_ms for r in public.replies
                if r.rtt_ms is not None
                and isfinite(r.rtt_ms) and r.rtt_ms >= 0.0
            ]
            if last_private is None:
                if pub:
                    anchor_bins.append(bin_index)
                    anchor_pool.extend(pub)
                    anchor_sizes.append(len(pub))
                    samples_found = True
            elif pub:
                priv = [
                    r.rtt_ms for r in last_private.replies
                    if r.rtt_ms is not None
                    and isfinite(r.rtt_ms) and r.rtt_ms >= 0.0
                ]
                if priv:
                    pair_bins.append(bin_index)
                    pub_pool.extend(pub)
                    priv_pool.extend(priv)
                    pub_sizes.append(len(pub))
                    priv_sizes.append(len(priv))
                    samples_found = True
        if not samples_found and quality is not None:
            quality.degrade(
                _LASTMILE_STAGE, DropReason.NO_BOUNDARY,
                detail=f"probe {result.prb_id}: no usable "
                "private→public hop pair",
            )

    chunks_bins: List[np.ndarray] = []
    chunks_values: List[np.ndarray] = []
    if pair_bins:
        pub_arr = np.asarray(pub_pool, dtype=np.float64)
        priv_arr = np.asarray(priv_pool, dtype=np.float64)
        p = np.asarray(pub_sizes, dtype=np.int64)
        q = np.asarray(priv_sizes, dtype=np.int64)
        # Public-major pair order, as the reference list product:
        # each public reply subtracts its traceroute's q private
        # replies in sequence.
        minuend = np.repeat(pub_arr, np.repeat(q, p))
        n_per = p * q
        total = int(n_per.sum())
        rec = np.repeat(np.arange(len(p), dtype=np.int64), n_per)
        local = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(n_per) - n_per, n_per
        )
        priv_starts = np.cumsum(q) - q
        subtrahend = priv_arr[priv_starts[rec] + local % q[rec]]
        chunks_values.append(minuend - subtrahend)
        chunks_bins.append(np.repeat(
            np.asarray(pair_bins, dtype=np.int64), n_per
        ))
    if anchor_bins:
        chunks_values.append(np.asarray(anchor_pool, dtype=np.float64))
        chunks_bins.append(np.repeat(
            np.asarray(anchor_bins, dtype=np.int64),
            np.asarray(anchor_sizes, dtype=np.int64),
        ))
    if chunks_bins:
        sample_bins = np.concatenate(chunks_bins)
        sample_values = np.concatenate(chunks_values)
    else:
        sample_bins = np.zeros(0, dtype=np.int64)
        sample_values = np.zeros(0, dtype=np.float64)
    return FlatScan(
        prb_id=prb_id,
        processed=processed,
        sample_bins=sample_bins,
        sample_values=sample_values,
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
