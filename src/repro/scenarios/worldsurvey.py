"""The §3 world survey: 646 ASes across 98 countries.

Every AS gets a *congestion intent* — flat, weak-daily, low, mild or
severe — realized as an access technology plus a provisioning level
(peak device utilization, optionally a slower aggregation device).
The intent mix is calibrated so the survey reproduces the paper's
aggregate numbers:

* ~90 % of monitored ASes classify as None;
* ~47 reported ASes per period, ~36 recurrent over two years;
* the daily-amplitude distribution tail ≈ 83/7/6/4 % around the
  0.5/1/3 ms thresholds;
* congestion concentrated in large eyeballs, with Japan hosting the
  largest share of Severe reports and the U.S. second;
* +55 % reported ASes in April 2020 (lockdown scenario).

The full 646-AS build takes ~half a minute per period; pass a smaller
``num_ases`` for quick runs — intents are drawn per-AS so all the
fractions survive scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np
import numpy.random  # noqa: F401 -- loaded at import, not on first use

from ..apnic import EyeballRanking, zipf_user_counts
from ..atlas import AtlasPlatform
from ..core import SurveyResult, SurveySuite
from ..core.classify import DEFAULT_THRESHOLDS
from ..core.filtering import asns_with_min_probes
from ..core.kernels import resolve_kernels
from ..core.survey import STAGE as SURVEY_STAGE
from ..core.survey import (
    ASFailure,
    ASReport,
    _record_survey_metrics,
    classify_asn_batch,
)
from ..netbase import AccessTechnology, ASInfo, ASRole
from ..quality import DataQualityReport
from ..queueing import LinkModel
from ..timebase import DELAY_BIN_SECONDS, MeasurementPeriod
from ..topology import ProvisioningPolicy, World
from ..topology.access import AccessTechSpec, default_specs
from ..topology.geo import COUNTRY_UTC_OFFSETS
from ..traffic import LockdownModifier, ModifierStack

if TYPE_CHECKING:
    from ..faults.base import FaultLog

#: Intent → (probability, technologies, peak-utilization range,
#: service-time override range or None).  Calibrated against the
#: measured amplitude curves (see DESIGN.md / bench A3).
INTENT_TABLE: Dict[str, dict] = {
    "flat": dict(
        probability=0.46,
        technologies=(
            AccessTechnology.FTTH_OWN, AccessTechnology.CABLE,
            AccessTechnology.DSL,
        ),
        peak_range=(0.30, 0.68),
        service_range=None,
    ),
    "weak_daily": dict(
        probability=0.478,
        technologies=(
            AccessTechnology.CABLE, AccessTechnology.DSL,
            AccessTechnology.FTTH_PPPOE_LEGACY,
        ),
        peak_range=(0.72, 0.88),
        service_range=None,
    ),
    "low": dict(
        probability=0.026,
        technologies=(
            AccessTechnology.FTTH_PPPOE_LEGACY, AccessTechnology.CABLE,
        ),
        peak_range=(0.90, 0.955),
        service_range=(0.20, 0.30),
    ),
    "mild": dict(
        probability=0.022,
        technologies=(AccessTechnology.FTTH_PPPOE_LEGACY,),
        peak_range=(0.955, 0.985),
        service_range=(0.25, 0.40),
    ),
    "severe": dict(
        probability=0.014,
        technologies=(AccessTechnology.FTTH_PPPOE_LEGACY,),
        peak_range=(0.980, 0.993),
        service_range=(0.45, 0.70),
    ),
}

#: Country-level intent reweighting: Japan's legacy infrastructure
#: hosts a disproportionate share of severe congestion (§3.2); the
#: U.S. comes second.
COUNTRY_INTENT_BIAS: Dict[str, Dict[str, float]] = {
    "JP": {"flat": 0.25, "weak_daily": 0.42, "low": 0.08,
           "mild": 0.10, "severe": 0.15},
    "US": {"flat": 0.43, "weak_daily": 0.46, "low": 0.05,
           "mild": 0.04, "severe": 0.02},
}

#: Atlas deployment bias: relative probe-hosting weight per country.
#: European countries dominate the platform.
_COUNTRY_WEIGHTS: Dict[str, float] = {
    "DE": 9.0, "FR": 7.0, "GB": 6.5, "NL": 5.0, "US": 8.0, "RU": 4.0,
    "IT": 3.5, "ES": 3.0, "SE": 2.5, "CH": 2.5, "BE": 2.0, "AT": 2.0,
    "PL": 2.0, "CZ": 2.0, "FI": 1.5, "NO": 1.5, "DK": 1.5, "JP": 2.2,
    "CA": 2.0, "AU": 1.8, "BR": 1.5, "IN": 1.2, "UA": 1.2, "GR": 1.0,
}
_DEFAULT_COUNTRY_WEIGHT = 0.35


@dataclass
class SurveyASSpec:
    """Pre-drawn parameters of one surveyed AS."""

    asn: int
    name: str
    country: str
    subscribers: int
    intent: str
    technology: AccessTechnology
    peak_utilization: float
    service_time_ms: Optional[float]
    probe_count: int
    lockdown_daytime_boost: float
    lockdown_evening_boost: float


def _intent_probabilities(country: str) -> Tuple[List[str], List[float]]:
    bias = COUNTRY_INTENT_BIAS.get(country)
    if bias is not None:
        intents = list(bias)
        weights = [bias[i] for i in intents]
    else:
        intents = list(INTENT_TABLE)
        weights = [INTENT_TABLE[i]["probability"] for i in intents]
    total = sum(weights)
    return intents, [w / total for w in weights]


def generate_specs(
    num_ases: int = 646,
    num_countries: int = 98,
    seed: int = 101,
) -> List[SurveyASSpec]:
    """Draw the AS population for the world survey."""
    if num_ases < num_countries:
        num_countries = num_ases
    rng = np.random.default_rng(seed)
    countries = list(COUNTRY_UTC_OFFSETS)[:num_countries]
    weights = np.array([
        _COUNTRY_WEIGHTS.get(c, _DEFAULT_COUNTRY_WEIGHT)
        for c in countries
    ])
    weights = weights / weights.sum()

    # Every monitored country hosts at least one AS; the rest follow
    # the Atlas deployment bias.
    assigned = list(countries)
    extra = rng.choice(
        len(countries), size=num_ases - len(countries), p=weights
    )
    assigned += [countries[i] for i in extra]
    rng.shuffle(assigned)

    users = zipf_user_counts(num_ases, rng)
    rng.shuffle(users)

    specs = []
    for index in range(num_ases):
        country = assigned[index]
        intents, probabilities = _intent_probabilities(country)
        intent = intents[rng.choice(len(intents), p=probabilities)]
        entry = INTENT_TABLE[intent]
        technology = entry["technologies"][
            int(rng.integers(len(entry["technologies"])))
        ]
        low, high = entry["peak_range"]
        peak = float(rng.uniform(low, high))
        service = None
        if entry["service_range"] is not None:
            s_low, s_high = entry["service_range"]
            service = float(rng.uniform(s_low, s_high))

        # Larger eyeballs host more probes (Atlas-style skew).
        base_probes = 3 + int(rng.poisson(2.0))
        if users[index] > 3_000_000:
            base_probes += int(rng.integers(4, 25))

        lockdown_susceptible = rng.random() < 0.55
        specs.append(SurveyASSpec(
            # 32-bit private ASN range: far from the world's reserved
            # transit (64700) and infrastructure (64800) ASNs.
            asn=4_200_000_000 + index,
            name=f"AS-{country}-{index}",
            country=country,
            subscribers=users[index],
            intent=intent,
            technology=technology,
            peak_utilization=peak,
            service_time_ms=service,
            probe_count=base_probes,
            lockdown_daytime_boost=(
                float(rng.uniform(0.25, 0.65))
                if lockdown_susceptible else 0.0
            ),
            lockdown_evening_boost=(
                float(rng.uniform(0.05, 0.30))
                if lockdown_susceptible else 0.0
            ),
        ))
    return specs


def _specs_for(spec: SurveyASSpec):
    """Per-AS access-spec table with the service-time override."""
    table = default_specs()
    if spec.service_time_ms is not None:
        base = table[spec.technology]
        table[spec.technology] = AccessTechSpec(
            technology=base.technology,
            base_rtt_ms=base.base_rtt_ms,
            reply_noise_ms=base.reply_noise_ms,
            link=LinkModel(
                service_time_ms=spec.service_time_ms,
                scv=base.link.scv,
                max_delay_ms=base.link.max_delay_ms,
                loss_onset=base.link.loss_onset,
            ),
            subscribers_per_device=base.subscribers_per_device,
            legacy_shared=base.legacy_shared,
        )
    return table


def build_survey_world(
    specs: Sequence[SurveyASSpec],
    lockdown: bool = False,
    seed: int = 7,
    period_name: str = "",
    period_wobble_std: float = 0.008,
) -> Tuple[World, AtlasPlatform]:
    """Build the world and deploy the probe fleet for one period.

    ``period_name`` keys a small per-(AS, period) provisioning wobble
    (capacity upgrades, demand drift between windows).  Borderline
    ASes flip classes between periods — the churn the paper observes:
    47 reported per period on average but only 36 recurrent.
    """
    import zlib

    world = World(seed=seed)
    platform = None
    for spec in specs:
        modifiers = ModifierStack()
        if lockdown and spec.lockdown_daytime_boost > 0:
            modifiers.append(LockdownModifier(
                daytime_boost=spec.lockdown_daytime_boost,
                evening_boost=spec.lockdown_evening_boost,
            ))
        peak = spec.peak_utilization
        if period_name and period_wobble_std > 0:
            wobble_rng = np.random.default_rng(zlib.crc32(
                f"{spec.asn}:{period_name}".encode("utf-8")
            ))
            peak = float(np.clip(
                peak + wobble_rng.normal(0.0, period_wobble_std),
                0.0, 0.995,
            ))
        isp = world.add_isp(
            ASInfo(
                asn=spec.asn, name=spec.name, country=spec.country,
                role=ASRole.EYEBALL,
                access_technologies=[spec.technology],
                subscribers=spec.subscribers,
            ),
            provisioning=ProvisioningPolicy(
                peak_utilization={spec.technology: peak},
                device_spread=0.015,
            ),
            specs=_specs_for(spec),
            demand_modifiers=modifiers,
            with_ipv6=False,
        )
        isp.ensure_devices(
            spec.technology, min(3, max(1, spec.probe_count // 3))
        )
    world.add_default_targets()
    world.finalize()

    platform = AtlasPlatform(world)
    for spec in specs:
        platform.deploy_probes_on_isp(
            world.isps[spec.asn], spec.probe_count
        )
    return world, platform


@dataclass
class ASOutcome:
    """One AS's result from a survey slice, on its own quality ledger."""

    asn: int
    report: Optional[ASReport]
    failure: Optional[ASFailure]
    quality: DataQualityReport


def survey_slice(
    platform: AtlasPlatform,
    period: MeasurementPeriod,
    groups: Dict[int, List[int]],
    faults: Sequence = (),
    fault_seed: int = 0,
    kernels=None,
    threads: Optional[int] = None,
) -> Tuple[List[ASOutcome], Optional[FaultLog]]:
    """Simulate, fault and classify one slice of a period's ASes.

    ``groups`` maps each ASN to its filtered probe ids; only those
    probes are simulated.  A probe's series is content-keyed
    (:func:`repro.atlas.platform._campaign_seed`), so it does not
    depend on which other probes run, and ``faults`` are pinned
    against the whole population
    (:func:`repro.faults.dataset.pin_dataset_faults`), so any slice
    faults exactly as the whole period would.  Each AS's accounting
    lands on a ledger of its own; the caller merges them in sorted-ASN
    order.  Returns the per-AS outcomes in sorted-ASN order and the
    injected ground truth (None without faults).

    The in-process survey runs it on the simulator's thread pool
    (``threads=None``); shard workers run it with ``threads=1``.
    """
    wanted = {prb_id for probe_ids in groups.values() for prb_id in probe_ids}
    dataset = platform.run_period_binned(
        period, probes=[p for p in platform.probes if p.probe_id in wanted],
        threads=threads,
    )
    fault_log = None
    if faults:
        from ..faults.base import FaultLog
        from ..faults.dataset import inject_dataset

        fault_log = FaultLog()
        inject_dataset(dataset, faults, seed=fault_seed, log=fault_log)
    ledgers = {asn: DataQualityReport() for asn in groups}
    batch = classify_asn_batch(
        dataset, [(asn, groups[asn]) for asn in sorted(groups)],
        kernels=kernels, quality_for=ledgers.__getitem__,
    )
    outcomes = [
        ASOutcome(
            asn=asn, report=report, failure=failure,
            quality=ledgers[asn],
        )
        for asn, report, failure, _signal in batch
    ]
    return outcomes, fault_log


def run_survey_period(
    specs: Sequence[SurveyASSpec],
    period: MeasurementPeriod,
    lockdown: Optional[bool] = None,
    seed: int = 7,
    min_probes: int = 3,
    dataset_faults: Optional[Sequence] = None,
    fault_seed: int = 0,
    fault_log=None,
    workers: Optional[int] = None,
    cache=None,
    archive=None,
    kernels=None,
) -> Tuple[SurveyResult, World]:
    """Run one period of the world survey end to end.

    The period is computed in one order whatever the options: build
    the world, filter the population (ASes with at least
    ``min_probes`` probes), serve cached ASes, then
    :func:`survey_slice` over the rest, and merge every AS in
    sorted-ASN order.  Output is byte-identical under
    :func:`repro.io.survey_to_dict` for any worker count, cache
    temperature and kernel backend.

    ``dataset_faults`` (a sequence of
    :class:`repro.faults.DatasetInjector`) corrupts the binned dataset
    before classification — chaos-mode surveys exercise the pipeline's
    isolation and quality accounting.  ``fault_log`` collects the
    injected ground truth.

    ``workers`` (``None`` or ``1``: in process; ``0``: one per usable
    CPU) of two or more runs the slice in a pool of worker processes
    (:mod:`repro.parallel`), one round-robin shard of the pending ASes
    each.  ``cache`` (a :class:`repro.parallel.ResultCache` or
    directory path) enables the content-addressed per-AS result cache;
    it is bypassed on faulted runs, so a corrupted dataset never
    populates, or is served from, the clean cache.

    ``archive`` (a :class:`repro.store.SurveyArchive` or directory
    path) commits the period's result into the longitudinal archive
    before returning, so every surveyed window lands in durable,
    servable storage as soon as it is classified.

    ``kernels`` selects the analysis backend (see
    :mod:`repro.core.kernels`): ``"reference"``, ``"vector"``, or
    ``None`` for the default (``vector``).  Cache keys leave the
    backend out: outputs are identical by contract.
    """
    from ..obs import get_observer
    from ..parallel.sharding import resolve_workers

    workers = resolve_workers(workers)
    kern = resolve_kernels(kernels)
    if lockdown is None:
        lockdown = period.name == "2020-04"
    if cache is not None:
        from ..parallel.cache import ResultCache

        cache = ResultCache.ensure(cache)
    obs = get_observer()
    log = obs.logger.bind(stage=SURVEY_STAGE, period=period.name)

    with obs.stage_span(
        "survey-period", period=period.name, ases=len(specs),
        workers=workers, kernel=kern.name,
    ) as outer:
        with obs.stage_span("load", period=period.name):
            world, platform = build_survey_world(
                specs, lockdown=lockdown, seed=seed,
                period_name=period.name,
            )
        result = SurveyResult(period=period)
        with obs.stage_span(
            "survey-slice", period=period.name, kernel=kern.name,
        ):
            probe_meta = {
                probe.probe_id: platform.probe_meta(probe)
                for probe in platform.probes
            }
            groups = asns_with_min_probes(
                probe_meta, min_probes=min_probes, table=world.table,
                quality=result.quality,
            )
            obs.items_in(SURVEY_STAGE, len(groups))
            log.info("classify-start", ases=len(groups), workers=workers)

            pinned: List = []
            if dataset_faults:
                from ..faults.dataset import pin_dataset_faults

                pinned = pin_dataset_faults(
                    dataset_faults, probe_meta, seed=fault_seed
                )
            if pinned:
                cache = None
            keys = _cache_keys(
                cache, specs, platform, groups, period, seed, lockdown,
            ) if cache is not None else {}
            cached = {}
            for asn, key in keys.items():
                payload = cache.get(key)
                if payload is not None:
                    cached[asn] = payload
            pending = {
                asn: probe_ids for asn, probe_ids in groups.items()
                if asn not in cached
            }

            outcomes = None
            if workers >= 2 and len(pending) >= 2:
                from ..parallel.executor import run_shards

                try:
                    outcomes, fault_logs = run_shards(
                        specs, period, pending, workers,
                        lockdown=lockdown, seed=seed, faults=pinned,
                        fault_seed=fault_seed, kernels=kern.name,
                    )
                except OSError:
                    # No working process pool on this platform: the
                    # slice is a pure function of its inputs, so the
                    # in-process run below gives the same bytes.
                    outcomes = None
            if outcomes is None:
                outcomes, sliced = survey_slice(
                    platform, period, pending, faults=pinned,
                    fault_seed=fault_seed, kernels=kern,
                ) if pending else ([], None)
                fault_logs = [] if sliced is None else [sliced]
            _merge_outcomes(result, groups, cached, outcomes, cache, keys)
            if fault_log is not None:
                for part in fault_logs:
                    fault_log.merge(part)

            obs.items_out(SURVEY_STAGE, len(result.reports))
            if cache is not None:
                _record_cache_metrics(
                    obs, period, hits=len(cached), misses=len(pending),
                    corrupt=cache.stats.corrupt,
                )
            _record_survey_metrics(obs, result)
        outer.set_attr("reported", len(result.reported_asns()))
        outer.set_attr("failures", len(result.failures))
        outer.set_attr("cache_hits", len(cached))
        log.info(
            "classify-done",
            monitored=result.monitored_count,
            reported=len(result.reported_asns()),
            failures=len(result.failures),
            cache_hits=len(cached),
        )
    if archive is not None:
        _ensure_archive(archive).ingest(result)
    return result, world


def _cache_keys(cache, specs, platform, groups, period, seed, lockdown):
    """Each filtered AS's cache key (see
    :func:`repro.parallel.cache.survey_as_fingerprint`), keyed on the
    thresholds and retry budget :func:`survey_slice` classifies with."""
    from ..parallel.cache import survey_as_fingerprint

    pairs_by_asn: Dict[int, List[Tuple[int, int]]] = {}
    for probe in platform.probes:
        pairs_by_asn.setdefault(probe.asn, []).append(
            (probe.probe_id, probe.version.value)
        )
    spec_by_asn = {
        spec.asn: (index, spec) for index, spec in enumerate(specs)
    }
    keys = {}
    for asn in groups:
        index, spec = spec_by_asn[asn]
        keys[asn] = cache.key(survey_as_fingerprint(
            asn=asn, spec=spec, spec_index=index,
            probe_pairs=pairs_by_asn.get(asn, []),
            period=period, world_seed=seed, lockdown=lockdown,
            thresholds=DEFAULT_THRESHOLDS, max_attempts=2,
            deployment=platform.config, bin_seconds=DELAY_BIN_SECONDS,
        ))
    return keys


def _merge_outcomes(result, groups, cached, outcomes, cache, keys) -> None:
    """Fold cached payloads and fresh outcomes into the result.

    Iterates in sorted-ASN order (``groups`` is sorted by the filter),
    so report insertion order, quality-ledger merge order — and hence
    the serialized survey — are independent of shard scheduling.
    Fresh reports are stored in the cache; failures never are, so a
    transient fault is not pinned into every later run.
    """
    from ..io.surveys import report_from_dict, report_to_dict

    fresh = {outcome.asn: outcome for outcome in outcomes}
    for asn in groups:
        payload = cached.get(asn)
        if payload is not None:
            result.reports[asn] = report_from_dict(
                asn, payload["report"]
            )
            result.quality.merge(
                DataQualityReport.from_dict(payload["quality"])
            )
            continue
        outcome = fresh[asn]
        if outcome.failure is not None:
            result.failures[asn] = outcome.failure
        else:
            result.reports[asn] = outcome.report
            if cache is not None:
                cache.put(keys[asn], {
                    "report": report_to_dict(outcome.report),
                    "quality": outcome.quality.to_dict(),
                })
        result.quality.merge(outcome.quality)


def _record_cache_metrics(obs, period, hits, misses, corrupt) -> None:
    if not obs.enabled:
        return
    for name, help_text, value in (
        ("survey_cache_hits_total", "per-AS cache hits", hits),
        ("survey_cache_misses_total", "per-AS cache misses", misses),
        ("survey_cache_corrupt_total",
         "quarantined cache entries", corrupt),
    ):
        if value:
            obs.counter(name, help_text, ("period",)).inc(
                value, period=period.name
            )


def _ensure_archive(archive):
    """Normalize an archive argument: path-like becomes an archive."""
    from ..store import SurveyArchive

    if isinstance(archive, SurveyArchive):
        return archive
    return SurveyArchive(archive)


def run_survey(
    specs: Sequence[SurveyASSpec],
    periods: Sequence[MeasurementPeriod],
    seed: int = 7,
    workers: Optional[int] = None,
    cache=None,
    archive=None,
    kernels=None,
) -> Tuple[SurveySuite, EyeballRanking]:
    """Run the full multi-period survey and build the eyeball ranking.

    ``workers``/``cache``/``kernels`` are forwarded to
    :func:`run_survey_period` (see there); results are identical for
    any worker count and kernel backend.

    ``archive`` (a :class:`repro.store.SurveyArchive` or directory
    path) commits every period — with the eyeball ranking keying the
    country index — so the finished run is immediately servable by
    :mod:`repro.serve`.
    """
    suite = SurveySuite()
    last_world = None
    for period in periods:
        result, last_world = run_survey_period(
            specs, period, seed=seed, workers=workers, cache=cache,
            kernels=kernels,
        )
        suite.add(result)
    ranking = EyeballRanking.from_registry(
        last_world.registry, rng=np.random.default_rng(seed),
    )
    if archive is not None:
        suite.ingest_into(_ensure_archive(archive), ranking)
    return suite, ranking
