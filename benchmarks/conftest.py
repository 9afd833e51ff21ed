"""Shared fixtures for the benchmark harness.

Every bench regenerates one paper artifact (figure or headline stat).
Expensive world builds are session-scoped; the ``benchmark`` fixture
then times the *analysis* stage (the paper's contribution), not the
substrate simulation.

Scale: benches default to a reduced world so the whole harness runs in
a couple of minutes.  Set ``REPRO_FULL_SCALE=1`` to run the paper-scale
646-AS survey and full CDN client pools.
"""

import os
from pathlib import Path

import pytest

from repro.scenarios import (
    build_exemplar_run,
    build_tokyo_case_study,
    generate_specs,
)
from repro.scenarios.worldsurvey import build_survey_world
from repro.timebase import ALL_SURVEY_PERIODS, COVID_PERIOD

FULL_SCALE = os.environ.get("REPRO_FULL_SCALE", "") == "1"

REPORT_DIR = Path(__file__).parent / "reports"


def write_report(name: str, text: str) -> None:
    """Persist a bench's paper-vs-measured table and echo it."""
    REPORT_DIR.mkdir(exist_ok=True)
    path = REPORT_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n===== {name} =====\n{text}\n")


def period_named(name: str):
    if name == "2020-04":
        return COVID_PERIOD
    return next(p for p in ALL_SURVEY_PERIODS if p.name == name)


# -- exemplar (Fig. 1/2) -------------------------------------------------

EXEMPLAR_PROBES = None if FULL_SCALE else {"ISP_DE": 60, "ISP_US": 60}


@pytest.fixture(scope="session")
def exemplar_runs():
    """ExemplarRun per period: all seven at full scale, three reduced."""
    names = (
        [p.name for p in ALL_SURVEY_PERIODS] if FULL_SCALE
        else ["2018-09", "2019-09", "2020-04"]
    )
    return {
        name: build_exemplar_run(
            period_named(name), probe_counts=EXEMPLAR_PROBES
        )
        for name in names
    }


@pytest.fixture(scope="session")
def exemplar_datasets(exemplar_runs):
    """Binned last-mile datasets per (period, ISP)."""
    return {
        (name, isp): run.dataset_for(isp)
        for name, run in exemplar_runs.items()
        for isp in ("ISP_DE", "ISP_US")
    }


# -- world survey (Fig. 3/4, headline) -----------------------------------

SURVEY_AS_COUNT = 646 if FULL_SCALE else 150
SURVEY_COUNTRIES = 98 if FULL_SCALE else 40


@pytest.fixture(scope="session")
def survey_specs():
    return generate_specs(
        num_ases=SURVEY_AS_COUNT, num_countries=SURVEY_COUNTRIES,
        seed=101,
    )


@pytest.fixture(scope="session")
def survey_period_names():
    """Longitudinal periods used by the survey benches."""
    if FULL_SCALE:
        return [p.name for p in ALL_SURVEY_PERIODS[:6]]
    return ["2018-09", "2019-03", "2019-09"]


@pytest.fixture(scope="session")
def survey_datasets(survey_specs, survey_period_names):
    """(dataset, world) per period name, including 2020-04."""
    datasets = {}
    for name in list(survey_period_names) + ["2020-04"]:
        period = period_named(name)
        world, platform = build_survey_world(
            survey_specs, lockdown=(name == "2020-04"), seed=7
        )
        datasets[name] = (
            platform.run_period_binned(period), world, period
        )
    return datasets


# -- Tokyo case study (Fig. 5–9) ------------------------------------------

TOKYO_CLIENT_SCALE = 1.0 if FULL_SCALE else 0.3


@pytest.fixture(scope="session")
def tokyo_study():
    return build_tokyo_case_study(client_scale=TOKYO_CLIENT_SCALE)


@pytest.fixture(scope="session")
def tokyo_logs(tokyo_study):
    return tokyo_study.edge.generate(tokyo_study.period)


@pytest.fixture(scope="session")
def tokyo_datasets(tokyo_study):
    return {
        name: tokyo_study.dataset_for(name)
        for name in ("ISP_A", "ISP_B", "ISP_C", "ISP_D")
    }


# -- machine-readable serving trajectory (BENCH_serving.json) ------------

BENCH_SERVING_JSON = Path(__file__).parent.parent / "BENCH_serving.json"


def record_serving_bench(section: str, payload: dict) -> None:
    """Upsert one section of BENCH_serving.json.

    The file maps section name ("warm_lookup", "overload") to that
    bench's numbers — re-running either bench refreshes only its own
    section.
    """
    import json

    data = {}
    if BENCH_SERVING_JSON.exists():
        data = json.loads(BENCH_SERVING_JSON.read_text())
    data[section] = payload
    BENCH_SERVING_JSON.write_text(
        json.dumps(data, indent=1, sort_keys=True) + "\n"
    )
