"""Dataset-level injectors over binned last-mile datasets.

The world survey runs in binned fidelity mode
(:meth:`AtlasPlatform.run_period_binned`), so survey-scale chaos runs
inject faults directly into the :class:`LastMileDataset` rather than
regenerating billions of per-hop replies.  The faults mirror what the
record-level injectors would cause downstream: bins with no estimate
(churn/loss), NaN bursts (garbage storms), and a *poisoned AS* — probe
metadata present but measurement series missing, the
metadata-without-data state real probe churn produces, which makes the
AS unanalyzable and must be isolated by the survey, not crash it.

Fault randomness is **content-keyed**: every draw comes from an RNG
derived from ``(run seed, injector position, injector name, probe
id)`` rather than from one sequential stream.  A probe therefore
receives exactly the same faults whether the dataset holds the whole
survey population or just one slice of it — the property the survey's
equivalence contract (any worker count, any cache temperature) rests
on.  Injectors whose *targets* are random (``PoisonAS`` without
explicit ASNs) resolve them through :meth:`DatasetInjector.pin`
against the full probe population before any slice runs.

Injectors mutate the dataset in place and return it; run them on a
dataset you built for the chaos run, not on a shared fixture.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.series import LastMileDataset
from .base import FaultLog


@dataclass(frozen=True)
class FaultKey:
    """RNG derivation context for one injector application.

    Seeds are content-keyed — ``(run seed, injector position in the
    list, injector name, scope)`` — never drawn from a shared stream,
    so two injectors of the same class at different positions fault
    differently while any probe's draws are independent of which other
    probes share its dataset.
    """

    seed: int
    index: int
    name: str

    def _derive(self, *scope: int) -> np.random.Generator:
        return np.random.default_rng([
            self.seed % (2 ** 32),
            self.index,
            zlib.crc32(self.name.encode("ascii")),
            *scope,
        ])

    def probe_rng(self, prb_id: int) -> np.random.Generator:
        """Per-probe stream: identical in any shard holding the probe."""
        return self._derive(int(prb_id))

    def choice_rng(self) -> np.random.Generator:
        """Population-level stream for random target selection."""
        return self._derive(0x5E1EC7)


class DatasetInjector:
    """Base class for injectors over :class:`LastMileDataset`."""

    name = "dataset-injector"

    def pin(
        self,
        probe_meta: Mapping[int, object],
        key: FaultKey,
    ) -> "DatasetInjector":
        """Resolve any random targets against the *full* population.

        The survey pins injectors once against the whole population
        before simulating a slice of it, so every slice (and every
        shard) faults the same targets.  Injectors
        without random targets return themselves; pinning is
        idempotent.
        """
        return self

    def apply(
        self,
        dataset: LastMileDataset,
        key: FaultKey,
        log: FaultLog,
    ) -> LastMileDataset:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class BinLoss(DatasetInjector):
    """Erase random bins (median and count) — churn-shaped record loss."""

    name = "bin-loss"

    def __init__(self, rate: float = 0.05):
        self.rate = rate

    def apply(self, dataset, key, log):
        for prb_id in dataset.probe_ids():
            rng = key.probe_rng(prb_id)
            series = dataset.series[prb_id]
            hit = rng.random(series.num_bins) < self.rate
            if not hit.any():
                continue
            series.median_rtt_ms[hit] = np.nan
            series.traceroute_counts[hit] = 0
            log.record(
                self.name, n=int(hit.sum()), key=prb_id,
                detail=f"{int(hit.sum())} bins erased",
            )
        return dataset


class NaNBursts(DatasetInjector):
    """NaN out a contiguous run of one probe's estimates (garbage storm).

    Counts stay intact — the traceroutes arrived but yielded no usable
    samples, as a garbage-RTT burst would produce.
    """

    name = "nan-bursts"

    def __init__(self, probe_rate: float = 0.2, max_run_bins: int = 48):
        self.probe_rate = probe_rate
        self.max_run_bins = max_run_bins

    def apply(self, dataset, key, log):
        for prb_id in dataset.probe_ids():
            rng = key.probe_rng(prb_id)
            if rng.random() >= self.probe_rate:
                continue
            series = dataset.series[prb_id]
            if series.num_bins < 2:
                continue
            run = int(rng.integers(1, min(
                self.max_run_bins, series.num_bins
            ) + 1))
            start = int(rng.integers(0, series.num_bins - run + 1))
            series.median_rtt_ms[start:start + run] = np.nan
            log.record(
                self.name, n=run, key=prb_id,
                detail=f"bins {start}..{start + run - 1} NaN",
            )
        return dataset


class PoisonAS(DatasetInjector):
    """Strip an AS's measurement series while keeping its probe metadata.

    The resulting metadata-without-data state makes the AS qualify for
    classification (it has probes on record) while aggregation finds
    nothing to aggregate — the canonical per-AS failure the survey's
    isolation path must absorb.
    """

    name = "poison-as"

    def __init__(
        self,
        asns: Optional[Sequence[int]] = None,
        count: int = 1,
        min_probes: int = 3,
    ):
        self.asns = list(asns) if asns is not None else None
        self.count = count
        self.min_probes = min_probes

    def _candidates(
        self, probe_meta: Mapping[int, object]
    ) -> List[int]:
        by_asn: Dict[int, int] = {}
        for meta in probe_meta.values():
            asn = getattr(meta, "asn", None)
            if asn is not None:
                by_asn[asn] = by_asn.get(asn, 0) + 1
        return sorted(
            asn for asn, n in by_asn.items() if n >= self.min_probes
        )

    def pin(self, probe_meta, key):
        if self.asns is not None:
            return self
        candidates = self._candidates(probe_meta)
        if not candidates:
            return PoisonAS(asns=[], min_probes=self.min_probes)
        picks = key.choice_rng().choice(
            len(candidates),
            size=min(self.count, len(candidates)),
            replace=False,
        )
        return PoisonAS(
            asns=sorted(candidates[int(i)] for i in np.atleast_1d(picks)),
            min_probes=self.min_probes,
        )

    def apply(self, dataset, key, log):
        pinned = self.pin(dataset.probe_meta, key)
        for asn in pinned.asns:
            present = any(
                getattr(meta, "asn", None) == asn
                for meta in dataset.probe_meta.values()
            )
            if not present:
                # A shard without this AS's probes has nothing to
                # poison; logging here would duplicate the event in
                # every other shard.
                continue
            removed = 0
            for prb_id, meta in dataset.probe_meta.items():
                if getattr(meta, "asn", None) == asn:
                    if dataset.series.pop(prb_id, None) is not None:
                        removed += 1
            log.record(
                self.name, key=asn,
                detail=f"AS{asn}: {removed} probe series removed",
            )
        return dataset


def pin_dataset_faults(
    injectors: Sequence[DatasetInjector],
    probe_meta: Mapping[int, object],
    seed: int = 0,
) -> List[DatasetInjector]:
    """Resolve every injector's random targets against the full population.

    Returns a pinned injector list that faults identically whether
    applied to the whole dataset or to per-shard slices of it.  The
    derivation matches :func:`inject_dataset`, so pinning then
    injecting equals injecting directly.
    """
    return [
        injector.pin(probe_meta, FaultKey(seed, index, injector.name))
        for index, injector in enumerate(injectors)
    ]


def inject_dataset(
    dataset: LastMileDataset,
    injectors: Sequence[DatasetInjector],
    seed: int = 0,
    log: Optional[FaultLog] = None,
) -> Tuple[LastMileDataset, FaultLog]:
    """Apply dataset injectors in order (mutates and returns dataset)."""
    if log is None:
        log = FaultLog()
    for index, injector in enumerate(injectors):
        key = FaultKey(seed=seed, index=index, name=injector.name)
        dataset = injector.apply(dataset, key, log)
    return dataset, log
