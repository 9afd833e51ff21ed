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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import numpy.random  # noqa: F401 -- loaded at import, not on first use

from ..apnic import EyeballRanking, zipf_user_counts
from ..atlas import AtlasPlatform
from ..core import SurveyResult, SurveySuite, classify_dataset
from ..netbase import AccessTechnology, ASInfo, ASRole
from ..queueing import LinkModel
from ..timebase import MeasurementPeriod
from ..topology import ProvisioningPolicy, World
from ..topology.access import AccessTechSpec, default_specs
from ..topology.geo import COUNTRY_UTC_OFFSETS
from ..traffic import LockdownModifier, ModifierStack

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

    ``dataset_faults`` (a sequence of
    :class:`repro.faults.DatasetInjector`) corrupts the binned dataset
    before classification — chaos-mode surveys exercise the pipeline's
    isolation and quality accounting.  ``fault_log`` collects the
    injected ground truth.

    ``workers`` routes the period through the sharded executor
    (:mod:`repro.parallel`): an explicit count, ``0`` for one worker
    per usable CPU, or ``None`` to consult ``REPRO_WORKERS`` and otherwise
    stay on the serial path below.  ``cache`` (a
    :class:`repro.parallel.ResultCache` or directory path) enables the
    content-addressed per-AS result cache; it implies the executor
    path, whose output is bit-identical to the serial one.

    ``archive`` (a :class:`repro.store.SurveyArchive` or directory
    path) commits the period's result into the longitudinal archive
    before returning, so every surveyed window lands in durable,
    servable storage as soon as it is classified.

    ``kernels`` selects the analysis backend (see
    :mod:`repro.core.kernels`): ``"reference"``, ``"vector"``, or
    ``None`` for the default (``vector``).  Survey output is
    numerically identical across backends by contract.
    """
    from ..obs import get_observer
    from ..parallel import resolve_workers

    resolved = resolve_workers(workers)
    if resolved is not None or cache is not None:
        from ..parallel import run_survey_period_parallel

        result, world = run_survey_period_parallel(
            specs, period, workers=resolved or 1, lockdown=lockdown,
            seed=seed, min_probes=min_probes,
            dataset_faults=dataset_faults, fault_seed=fault_seed,
            fault_log=fault_log, cache=cache, kernels=kernels,
        )
        if archive is not None:
            _ensure_archive(archive).ingest(result)
        return result, world
    if lockdown is None:
        lockdown = period.name == "2020-04"
    obs = get_observer()
    with obs.stage_span(
        "survey-period", period=period.name, ases=len(specs),
    ):
        with obs.stage_span("load", period=period.name):
            world, platform = build_survey_world(
                specs, lockdown=lockdown, seed=seed,
                period_name=period.name,
            )
            dataset = platform.run_period_binned(period)
            if dataset_faults:
                from ..faults import inject_dataset

                inject_dataset(
                    dataset, dataset_faults, seed=fault_seed,
                    log=fault_log,
                )
        result = classify_dataset(
            dataset, period, min_probes=min_probes, table=world.table,
            kernels=kernels,
        )
    if archive is not None:
        _ensure_archive(archive).ingest(result)
    return result, world


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
