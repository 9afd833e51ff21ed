"""Differential tests for the shared flat-array code.

``repro.core.kernels.flat`` holds the code every kernel caller
shares — the traceroute scan, the bin mask, the queueing-delay matrix
and the chunk planner — and the backends implement the population
medians over its output.  Each piece is pinned *bit-identical* to a
plain oracle here (the end-to-end guarantee lives in
``test_differential.py``), including the dirty inputs the scan's
quality accounting was written for.
"""

import datetime as dt
from typing import Iterable, List, Optional, Tuple

import numpy as np
import pytest

from repro.atlas.traceroute import TracerouteResult

from repro.core import classify_dataset
from repro.core.kernels import flat as flat_mod
from repro.core.kernels.flat import (
    bin_medians,
    delay_matrix,
    plan_chunks,
    scan_lastmile_flat,
)
from repro.core.kernels.reference import REFERENCE
from repro.core.kernels.vector import VECTOR
from repro.core.lastmile import (
    MIN_TRACEROUTES_PER_BIN,
    STAGE,
    e2e_samples,
    estimate_probe_series,
    lastmile_samples,
)
from repro.io import survey_to_dict
from repro.quality import DataQualityReport, DropReason
from repro.timebase import MeasurementPeriod, TimeGrid

from tests.core.test_lastmile import hop, traceroute, typical_traceroute
from tests.kernels.test_differential import (
    PERIOD,
    degenerate_dataset,
    synthetic_dataset,
)

DAY = MeasurementPeriod("flat-day", dt.datetime(2019, 9, 2), 1)
GRID = TimeGrid(DAY)


def dirty_results():
    """Every scan edge in one result list, in a deliberate order so
    quality-ledger ordering is exercised too."""
    results = [
        typical_traceroute(timestamp=i * 137.0, public_rtt=2.0 + i % 5)
        for i in range(40)
    ]
    results.append(typical_traceroute(timestamp=float("nan")))
    results.append(typical_traceroute(timestamp=-1.0))
    results.append(
        typical_traceroute(timestamp=GRID.num_bins * GRID.bin_seconds + 5.0)
    )
    # Exactly at the period edge: bin index clamps to the last bin.
    results.append(
        typical_traceroute(
            timestamp=float(GRID.num_bins * GRID.bin_seconds)
        )
    )
    # All public replies timed out -> NO_BOUNDARY degrade.
    results.append(traceroute([
        hop(1, "192.168.1.1", [0.4] * 3),
        hop(2, "60.0.0.1", [None] * 3),
    ], timestamp=90.0))
    # Public replies NaN / negative -> filtered, NO_BOUNDARY.
    results.append(traceroute([
        hop(1, "192.168.1.1", [0.4] * 3),
        hop(2, "60.0.0.1", [float("nan"), None, float("inf")]),
    ], timestamp=150.0))
    # Anchor-style: no private hop, public replies are the samples.
    results.append(traceroute([
        hop(1, "60.0.0.2", [5.0, 6.0, 7.0]),
    ], timestamp=300.0))
    # Asymmetric reply counts: 2 public x 3 private pairs.
    results.append(traceroute([
        hop(1, "10.0.0.1", [0.2, 0.3, 0.4]),
        hop(2, "60.0.0.3", [3.0, None, 4.0]),
    ], timestamp=420.0))
    # Private hop only -> no boundary at all.
    results.append(traceroute([
        hop(1, "192.168.1.1", [0.5] * 3),
    ], timestamp=500.0))
    return results


#: The per-traceroute scan the flat scan replaced, kept verbatim as
#: its oracle: same gating, same binning, same ledger events.
def _scan_results(
    results: Iterable[TracerouteResult],
    grid: TimeGrid,
    prb_id: Optional[int],
    sample_fn,
    quality: Optional[DataQualityReport],
    counts: np.ndarray,
) -> Tuple[Optional[int], int, List[int], List[List[float]]]:
    """Stages 1–3 for one probe: timestamp gating, binning, sampling.

    The reference scan — edge semantics (NaN timestamps,
    out-of-period clocks, sample-less traceroutes) are decided here.
    Flat backends use :func:`repro.core.kernels.flat.scan_lastmile_flat`,
    which replicates these semantics exactly (the differential suite
    proves the outputs and quality events byte-identical); any change
    here must be mirrored there.  Increments ``counts`` in place; returns
    ``(prb_id, processed, sample_bins, sample_lists)`` where
    ``sample_lists[i]`` is the non-empty sample list of the i-th
    sampled traceroute and ``sample_bins[i]`` its bin.
    """
    processed = 0
    duration = grid.num_bins * grid.bin_seconds
    sample_bins: List[int] = []
    sample_lists: List[List[float]] = []
    for result in results:
        processed += 1
        if prb_id is None:
            prb_id = result.prb_id
        if quality is not None:
            quality.ingest(STAGE)
        timestamp = result.timestamp
        if not np.isfinite(timestamp):
            # A NaN/inf timestamp cannot be binned at all: the record
            # is dropped as malformed *before* the bin sanity counts —
            # it neither helps a bin reach min_traceroutes nor is it
            # sampled.
            if quality is not None:
                quality.drop(
                    STAGE, DropReason.MALFORMED_RECORD,
                    detail=f"probe {result.prb_id}: timestamp "
                    f"{timestamp!r}",
                )
            continue
        if timestamp < 0 or timestamp > duration:
            if quality is not None:
                quality.drop(
                    STAGE, DropReason.OUT_OF_PERIOD,
                    detail=f"probe {result.prb_id}: timestamp "
                    f"{timestamp:.0f}s outside 0..{duration}s",
                )
            continue
        bin_index = int(grid.bin_index(timestamp))
        counts[bin_index] += 1
        samples = sample_fn(result)
        if samples:
            sample_bins.append(bin_index)
            sample_lists.append(samples)
        elif quality is not None:
            # Boundary missing — or present with only insane replies
            # (see lastmile_samples): the traceroute counts toward bin
            # sanity (the probe *was* measuring) but contributes no
            # samples and is flagged.
            quality.degrade(
                STAGE, DropReason.NO_BOUNDARY,
                detail=f"probe {result.prb_id}: no usable "
                "private→public hop pair",
            )
    return prb_id, processed, sample_bins, sample_lists


def queuing_delay_oracle(series, min_traceroutes=MIN_TRACEROUTES_PER_BIN):
    """Per-probe queueing delay as the paper states it: valid bins'
    medians minus their minimum."""
    valid = series.valid_mask(min_traceroutes)
    delays = np.where(valid, series.median_rtt_ms, np.nan)
    if not valid.any():
        return delays
    return delays - np.nanmin(delays)


def scan_both(results, sample_fn=None):
    """(flat scan, oracle) outputs plus ledgers for one result list."""
    flat_quality, oracle_quality = DataQualityReport(), DataQualityReport()
    flat_counts = np.zeros(GRID.num_bins, dtype=np.int64)
    oracle_counts = np.zeros(GRID.num_bins, dtype=np.int64)
    scan = scan_lastmile_flat(
        results, GRID, None, flat_quality, flat_counts, sample_fn
    )
    oracle = _scan_results(
        results, GRID, None, sample_fn or lastmile_samples,
        oracle_quality, oracle_counts,
    )
    return (scan, flat_quality, flat_counts), (
        oracle, oracle_quality, oracle_counts
    )


class TestFlatScan:
    def test_samples_match_reference_per_traceroute(self):
        """The flat scan's (bin, value) samples equal the reference
        ``lastmile_samples`` output, traceroute by traceroute."""
        results = dirty_results()
        scan = scan_lastmile_flat(results, GRID)

        expected_bins, expected_values = [], []
        duration = GRID.num_bins * GRID.bin_seconds
        pair_chunks, anchor_chunks = [], []
        for r in results:
            ts = r.timestamp
            if not np.isfinite(ts) or ts < 0 or ts > duration:
                continue
            samples = lastmile_samples(r)
            if not samples:
                continue
            b = int(GRID.bin_index(ts))
            has_private = any(
                h.responding_address
                and h.responding_address.startswith(("192.168", "10."))
                for h in r.hops
            )
            (pair_chunks if has_private else anchor_chunks).append(
                (b, samples)
            )
        # Flat layout: all pairwise chunks first, anchors after.
        for b, samples in pair_chunks + anchor_chunks:
            expected_bins.extend([b] * len(samples))
            expected_values.extend(samples)

        assert scan.processed == len(results)
        np.testing.assert_array_equal(
            scan.sample_bins, np.asarray(expected_bins, dtype=np.int64)
        )
        np.testing.assert_array_equal(
            scan.sample_values, np.asarray(expected_values)
        )

    def test_quality_ledger_matches_reference_estimation(self):
        """Ledger, counts and per-bin samples equal the oracle scan's."""
        flat, oracle = scan_both(dirty_results())
        self.assert_scans_equal(flat, oracle)
        series = estimate_probe_series(
            dirty_results(), GRID, kernels="reference"
        )
        np.testing.assert_array_equal(
            series.traceroute_counts, oracle[2]
        )

    def test_custom_sample_fn_matches_oracle(self):
        """``sample_fn=e2e_samples`` swaps only the sampling: gating,
        binning and the ledger are the oracle's, and the samples are
        its samples in traceroute order."""
        flat, oracle = scan_both(dirty_results(), sample_fn=e2e_samples)
        self.assert_scans_equal(flat, oracle)
        _prb_id, _processed, bins, lists = oracle[0]
        np.testing.assert_array_equal(
            flat[0].sample_bins,
            np.repeat(bins, [len(samples) for samples in lists]),
        )
        np.testing.assert_array_equal(
            flat[0].sample_values,
            np.concatenate([np.asarray(x, dtype=float) for x in lists]),
        )

    @staticmethod
    def assert_scans_equal(flat, oracle):
        scan, flat_quality, flat_counts = flat
        (prb_id, processed, bins, lists), oracle_quality, oracle_counts = (
            oracle
        )
        assert flat_quality.to_dict() == oracle_quality.to_dict()
        assert (scan.prb_id, scan.processed) == (prb_id, processed)
        np.testing.assert_array_equal(flat_counts, oracle_counts)
        per_bin = {}
        for b, samples in zip(bins, lists):
            per_bin.setdefault(b, []).extend(samples)
        assert sorted(per_bin) == sorted(set(scan.sample_bins.tolist()))
        for b, samples in per_bin.items():
            np.testing.assert_array_equal(
                np.sort(scan.sample_values[scan.sample_bins == b]),
                np.sort(np.asarray(samples, dtype=float)),
            )

    def test_empty_results_with_prb_id(self):
        scan = scan_lastmile_flat([], GRID, prb_id=77)
        assert scan.prb_id == 77
        assert scan.processed == 0
        assert scan.sample_bins.size == 0
        assert scan.sample_values.size == 0

    def test_empty_results_without_prb_id_raises_upstream(self):
        with pytest.raises(ValueError):
            estimate_probe_series([], GRID, kernels="vector")

    def test_counts_accumulate_into_caller_array(self):
        counts = np.zeros(GRID.num_bins, dtype=np.int64)
        scan_lastmile_flat(
            [typical_traceroute(timestamp=10.0)] * 3, GRID,
            counts=counts,
        )
        assert counts[0] == 3
        assert counts.sum() == 3


class TestFlatBinMedians:
    def test_matches_numpy_median_per_bin(self):
        rng = np.random.default_rng(11)
        n = 500
        bins = rng.integers(0, GRID.num_bins, n).astype(np.int64)
        values = rng.normal(5.0, 2.0, n)
        counts = rng.integers(0, 6, GRID.num_bins).astype(np.int64)
        expected = np.full(GRID.num_bins, np.nan)
        n_est = 0
        for b in range(GRID.num_bins):
            members = values[bins == b]
            if len(members) and counts[b] >= MIN_TRACEROUTES_PER_BIN:
                expected[b] = np.median(members)
                n_est += 1
        for kernels in (REFERENCE, VECTOR):
            medians, estimated = bin_medians(
                bins, values, counts, MIN_TRACEROUTES_PER_BIN, kernels
            )
            np.testing.assert_array_equal(medians, expected)
            assert estimated.sum() == n_est

    def test_empty_samples(self):
        medians, estimated = bin_medians(
            np.zeros(0, dtype=np.int64), np.zeros(0),
            np.zeros(GRID.num_bins, dtype=np.int64),
            MIN_TRACEROUTES_PER_BIN,
        )
        assert np.isnan(medians).all()
        assert not estimated.any()


class TestDelayMatrix:
    def test_rows_equal_probe_queuing_delay(self):
        for dataset in (synthetic_dataset(seed=2), degenerate_dataset()):
            ids = dataset.probe_ids()
            delays, dead = delay_matrix(
                np.stack([dataset.series[p].median_rtt_ms for p in ids]),
                np.stack([
                    dataset.series[p].traceroute_counts for p in ids
                ]),
                MIN_TRACEROUTES_PER_BIN,
            )
            for row, prb_id in enumerate(ids):
                expected = queuing_delay_oracle(dataset.series[prb_id])
                np.testing.assert_array_equal(delays[row], expected)
                assert dead[row] == bool(np.isnan(expected).all())


BACKENDS = (REFERENCE, VECTOR)


class TestPopulationMedianPass:
    @staticmethod
    def reference_medians(delays, group_rows):
        """Per-AS nanmedian exactly as the paper aggregates."""
        num_bins = delays.shape[1]
        medians = np.empty((len(group_rows), num_bins))
        contributing = np.empty(
            (len(group_rows), num_bins), dtype=np.int64
        )
        for g, rows in enumerate(group_rows):
            stacked = delays[np.asarray(rows, dtype=np.int64)]
            with np.errstate(all="ignore"):
                import warnings

                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    medians[g] = np.nanmedian(stacked, axis=0)
            contributing[g] = np.sum(~np.isnan(stacked), axis=0)
        return medians, contributing

    def _random_case(self, seed, num_probes=40, num_bins=48):
        rng = np.random.default_rng(seed)
        delays = rng.normal(2.0, 1.0, (num_probes, num_bins))
        delays[rng.random((num_probes, num_bins)) < 0.3] = np.nan
        delays[0] = np.nan  # one fully-dead probe row
        groups = []
        start = 0
        while start < num_probes:
            size = int(rng.integers(1, 7))
            groups.append(
                np.arange(start, min(start + size, num_probes),
                          dtype=np.int64)
            )
            start += size
        return delays, groups

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_bit_identical_to_nanmedian(self, seed):
        delays, groups = self._random_case(seed)
        exp_m, exp_c = self.reference_medians(delays, groups)
        for kernels in BACKENDS:
            got_m, got_c = kernels.population_medians(delays, groups)
            np.testing.assert_array_equal(got_m, exp_m)
            np.testing.assert_array_equal(got_c, exp_c)

    def test_duplicate_rows_stack_twice(self):
        """A probe requested twice is stacked twice."""
        delays, _ = self._random_case(6, num_probes=4)
        rows = np.array([1, 1, 2], dtype=np.int64)
        exp_m, exp_c = self.reference_medians(delays, [rows])
        for kernels in BACKENDS:
            got_m, got_c = kernels.population_medians(delays, [rows])
            np.testing.assert_array_equal(got_m, exp_m)
            np.testing.assert_array_equal(got_c, exp_c)

    def test_no_groups(self):
        delays = np.zeros((3, 8))
        for kernels in BACKENDS:
            medians, contributing = kernels.population_medians(
                delays, []
            )
            assert medians.shape == (0, 8)
            assert contributing.shape == (0, 8)

    def test_all_nan_group_yields_nan(self):
        delays = np.full((2, 6), np.nan)
        for kernels in BACKENDS:
            medians, contributing = kernels.population_medians(
                delays, [np.array([0, 1], dtype=np.int64)]
            )
            assert np.isnan(medians).all()
            assert (contributing == 0).all()


class TestChunkPlanner:
    @staticmethod
    def cube(sizes, chunk, width):
        start, stop = chunk
        return (stop - start) * max(sizes[start:stop]) * width

    def test_budget_holds(self):
        rng = np.random.default_rng(3)
        sizes = rng.integers(1, 30, 400).tolist()
        chunks = plan_chunks(sizes, 720, budget=1 << 14)
        assert len(chunks) > 1
        for chunk in chunks:
            start, stop = chunk
            assert self.cube(sizes, chunk, 720) <= 1 << 14 or (
                stop - start == 1
            )

    def test_oversized_population_gets_own_chunk(self):
        sizes = [2, 3, 50, 1, 2]
        chunks = plan_chunks(sizes, 10, budget=100)
        assert (2, 3) in chunks
        for chunk in chunks:
            if chunk != (2, 3):
                assert self.cube(sizes, chunk, 10) <= 100

    def test_order_preserved(self):
        sizes = [4, 1, 9, 2, 2, 7, 3, 1, 1, 8]
        chunks = plan_chunks(sizes, 3, budget=40)
        assert chunks[0][0] == 0
        assert chunks[-1][1] == len(sizes)
        for (_, stop), (start, _) in zip(chunks, chunks[1:]):
            assert stop == start
        assert plan_chunks([], 3) == []

    def test_default_budget_is_the_module_constant(self):
        assert flat_mod._CHUNK_ELEMENTS == 1 << 17
        width = GRID.num_bins
        sizes = [3, 29, 4, 5] * 40
        assert len(plan_chunks(sizes, width)) > 1
        assert plan_chunks(sizes, width) == plan_chunks(
            sizes, width, budget=1 << 17
        )

    def test_medians_across_chunk_boundaries_equal_reference(
        self, monkeypatch
    ):
        """Chunks of one or two ASes: the classification and every
        kept signal still equal the reference backend's."""
        dataset = synthetic_dataset(num_ases=8, seed=4)
        reference = classify_dataset(
            dataset, PERIOD, kernels="reference", keep_signals=True
        )
        budget = 2 * 4 * dataset.grid.num_bins
        monkeypatch.setattr(flat_mod, "_CHUNK_ELEMENTS", budget)
        assert len(plan_chunks([4] * 8, dataset.grid.num_bins)) == 4
        chunked = classify_dataset(
            dataset, PERIOD, kernels="vector", keep_signals=True
        )
        assert survey_to_dict(chunked) == survey_to_dict(reference)
        for asn, signal in reference.signals.items():
            np.testing.assert_array_equal(
                chunked.signals[asn].delay_ms, signal.delay_ms
            )
            np.testing.assert_array_equal(
                chunked.signals[asn].contributing, signal.contributing
            )
