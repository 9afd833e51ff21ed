"""Cross-process telemetry: worker metrics/spans merged into the parent.

A ``--workers 2`` survey under a live observer must leave the parent
registry with per-stage ``items_in``/``items_out`` totals *equal to
the in-process run's* (shards partition the work, merge sums it
back), with every worker span grafted under a ``survey-shard`` marker
so the report renders one coherent tree — and none of it may perturb
the classification bytes.
"""

import pytest

from repro.obs import (
    MetricsRegistry,
    Observability,
    get_observer,
    observed,
)
from repro.parallel.worker import SurveyShardTask, run_survey_shard
from repro.scenarios import (
    build_survey_world,
    generate_specs,
    run_survey_period,
)

from .test_equivalence import PERIOD, canonical_bytes

STAGE_COUNTERS = ("pipeline_items_in_total", "pipeline_items_out_total")


def _stage_totals(registry):
    """{counter-name: {stage: value}} for the per-stage counters."""
    snapshot = registry.to_dict()
    return {
        name: {
            sample["labels"]["stage"]: sample["value"]
            for sample in snapshot[name]["samples"]
        }
        for name in STAGE_COUNTERS
        if name in snapshot
    }


class TestSurveyTelemetryEquivalence:
    @pytest.fixture(scope="class")
    def serial_run(self, specs):
        with observed() as obs:
            result, _ = run_survey_period(specs, PERIOD, seed=7)
        return canonical_bytes(result), _stage_totals(obs.metrics)

    @pytest.fixture(scope="class")
    def specs(self):
        return generate_specs(num_ases=10, num_countries=6, seed=5)

    def test_workers_two_matches_serial_stage_totals(
        self, specs, serial_run
    ):
        serial_bytes, serial_totals = serial_run
        with observed() as obs:
            result, _ = run_survey_period(
                specs, PERIOD, seed=7, workers=2
            )
        assert canonical_bytes(result) == serial_bytes
        parallel_totals = _stage_totals(obs.metrics)
        assert parallel_totals == serial_totals
        # The partition genuinely covered the simulate stage.
        in_totals = parallel_totals["pipeline_items_in_total"]
        assert in_totals["simulate"] > 0

    def test_worker_spans_graft_under_shard_markers(self, specs):
        with observed() as obs:
            run_survey_period(specs, PERIOD, seed=7, workers=2)
        markers = obs.tracer.find("survey-shard")
        assert len(markers) == 2
        shards = set()
        for marker in markers:
            assert marker.children, "worker subtree missing"
            for root in marker.children:
                shards.add(root.attrs["shard"])
        assert shards == {0, 1}
        # One trace: every marker sits inside the parent's own tree.
        assert len(obs.tracer.roots) == 1

    def test_duration_histogram_covers_worker_stages(self, specs):
        with observed() as obs:
            run_survey_period(specs, PERIOD, seed=7, workers=2)
        histogram = obs.metrics.get("pipeline_duration_seconds")
        stages = {dict(key)["stage"] for key, _ in histogram.samples()}
        # Worker-side stages only exist in the parent via the merge.
        assert {"simulate", "spectral", "survey-period"} <= stages


def shard_task(**kwargs):
    """One shard holding every probe of a two-AS world."""
    specs = generate_specs(num_ases=2, num_countries=2, seed=5)
    _world, platform = build_survey_world(
        specs, lockdown=False, seed=7, period_name=PERIOD.name,
    )
    groups = {}
    for probe in platform.probes:
        groups.setdefault(probe.asn, []).append(probe.probe_id)
    return SurveyShardTask(
        specs=specs, period=PERIOD, lockdown=False, seed=7,
        groups=groups, **kwargs,
    )


class TestShardTelemetry:
    def test_unobserved_parent_ships_no_telemetry(self):
        result = run_survey_shard(shard_task(index=0))
        assert result.telemetry is None

    def test_capturing_task_ships_snapshot_and_restores_observer(self):
        before = get_observer()
        result = run_survey_shard(
            shard_task(index=1, capture_telemetry=True)
        )
        assert result.telemetry is not None
        assert result.telemetry.shard == 1
        totals = _stage_totals(
            MetricsRegistry.from_dict(result.telemetry.metrics)
        )
        assert totals["pipeline_items_in_total"]["core-aggregate"] > 0
        # The worker's observer never leaks into this process.
        assert get_observer() is before

    def test_sharded_survey_merges_like_one_shard(self):
        specs = generate_specs(num_ases=6, num_countries=3, seed=5)
        with observed() as obs:
            run_survey_period(specs, PERIOD, seed=7, workers=2)
        totals = _stage_totals(obs.metrics)
        with observed(Observability()) as single_obs:
            run_survey_period(specs, PERIOD, seed=7, workers=1)
        assert totals == _stage_totals(single_obs.metrics)
