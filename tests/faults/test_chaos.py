"""Chaos tests: every injector on, pipeline hardened, books balanced.

The acceptance bar for the hardened pipeline:

* a measurement stream hit by *all* record- and line-level injectors at
  realistic rates (>= 5 % record loss) loads, estimates and classifies
  without raising, and the :class:`DataQualityReport` accounts for the
  damage — exactly, injector by injector, when faults don't interact;
* a world-survey run over a faulted binned dataset (bin loss, NaN
  bursts, one poisoned AS) completes as a *partial* result: the
  poisoned AS lands in the failure log, every genuinely congested AS
  still classifies as congested.
"""

import datetime as dt
import json

import numpy as np
import pytest

from repro.core import (
    aggregate_population,
    classify_signal,
    estimate_dataset,
)
from repro.faults import (
    BinLoss,
    ClockSkew,
    CorruptLines,
    DropRecords,
    DuplicateRecords,
    FaultLog,
    GarbageRTT,
    MissingReplies,
    NaNBursts,
    PoisonAS,
    ProbeChurn,
    RateLimitPrivateHops,
    ReorderRecords,
    TruncateTraceroutes,
    inject_lines,
    inject_records,
)
from repro.io import load_traceroutes, save_traceroutes
from repro.netbase import AccessTechnology
from repro.quality import DropReason
from repro.timebase import MeasurementPeriod, TimeGrid

PERIOD = MeasurementPeriod("chaos", dt.datetime(2019, 9, 2), 2)
LOAD = "io.load_traceroutes"


@pytest.fixture(scope="module")
def clean_campaign(tmp_path_factory):
    """A small congested-ISP campaign: records, JSONL path, metadata."""
    from repro.atlas import AtlasPlatform, ProbeVersion
    from repro.netbase import ASInfo, ASRole
    from repro.topology import ProvisioningPolicy, World

    world = World(seed=13)
    isp = world.add_isp(
        ASInfo(
            64500, "ChaosNet", "JP", ASRole.EYEBALL,
            access_technologies=[AccessTechnology.FTTH_PPPOE_LEGACY],
        ),
        provisioning=ProvisioningPolicy(
            peak_utilization={AccessTechnology.FTTH_PPPOE_LEGACY: 0.97},
            device_spread=0.01,
        ),
    )
    world.add_default_targets()
    world.finalize()
    platform = AtlasPlatform(world)
    platform.config.outage_rate_per_day = 0.0
    probes = platform.deploy_probes_on_isp(isp, 5, version=ProbeVersion.V3)
    dataset = platform.run_period(PERIOD, probes)
    path = tmp_path_factory.mktemp("chaos") / "clean.jsonl"
    save_traceroutes(dataset, path)
    records = [
        result.to_json()
        for prb_id in dataset.probe_ids()
        for result in dataset.for_probe(prb_id)
    ]
    return records, path, dataset


def write_jsonl(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


class TestExactAccounting:
    """One injector at a time: ledger drops == injected ground truth."""

    def test_corrupt_lines_match_loader_drops(self, clean_campaign,
                                              tmp_path):
        records, _, _ = clean_campaign
        lines = [json.dumps(r) for r in records]
        corrupted, log = inject_lines(lines, [CorruptLines(0.05)], seed=21)
        path = write_jsonl(tmp_path / "corrupt.jsonl", corrupted)
        dataset = load_traceroutes(path)
        assert log.count("corrupt-lines") > 0
        assert dataset.quality.dropped_count(
            DropReason.CORRUPT_LINE
        ) == log.count("corrupt-lines")
        assert len(dataset) == len(records) - log.count("corrupt-lines")

    def test_duplicates_match_loader_drops(self, clean_campaign, tmp_path):
        records, _, _ = clean_campaign
        out, log = inject_records(records, [DuplicateRecords(0.03)],
                                  seed=21)
        path = write_jsonl(
            tmp_path / "dup.jsonl", [json.dumps(r) for r in out]
        )
        dataset = load_traceroutes(path)
        assert log.count("duplicates") > 0
        assert dataset.quality.dropped_count(
            DropReason.DUPLICATE_RECORD
        ) == log.count("duplicates")
        assert len(dataset) == len(records)

    def test_garbage_rtts_match_loader_degrades(self, clean_campaign,
                                                tmp_path):
        records, _, _ = clean_campaign
        out, log = inject_records(records, [GarbageRTT(0.005)], seed=21)
        path = write_jsonl(
            tmp_path / "garbage.jsonl", [json.dumps(r) for r in out]
        )
        dataset = load_traceroutes(path)
        assert log.count("garbage-rtt") > 0
        assert dataset.quality.degraded_count(
            DropReason.GARBAGE_RTT
        ) == log.count("garbage-rtt")
        assert len(dataset) == len(records)

    def test_drop_loss_matches_record_count(self, clean_campaign,
                                            tmp_path):
        records, _, _ = clean_campaign
        out, log = inject_records(records, [DropRecords(0.06)], seed=21)
        path = write_jsonl(
            tmp_path / "loss.jsonl", [json.dumps(r) for r in out]
        )
        dataset = load_traceroutes(path)
        assert len(dataset) == len(records) - log.count("drop-records")
        # Loss is invisible to the loader (nothing to drop) — the
        # ledger stays clean; the gap shows up downstream as bins with
        # fewer traceroutes.
        assert dataset.quality.total_dropped == 0


class TestStreamChaos:
    """All injectors at once at realistic rates."""

    RECORD_INJECTORS = [
        MissingReplies(0.03),
        TruncateTraceroutes(0.02),
        RateLimitPrivateHops(0.02),
        GarbageRTT(0.01),
        DuplicateRecords(0.02),
        ReorderRecords(0.03),
        ClockSkew(probe_rate=0.2, max_skew_seconds=600.0),
        ProbeChurn(probe_rate=0.4, outage_fraction=0.15),
        DropRecords(0.04),
    ]

    @pytest.fixture(scope="class")
    def chaotic_load(self, clean_campaign, tmp_path_factory):
        records, _, clean = clean_campaign
        log = FaultLog()
        out, _ = inject_records(
            records, self.RECORD_INJECTORS, seed=99, log=log
        )
        lines, _ = inject_lines(
            [json.dumps(r) for r in out], [CorruptLines(0.01)],
            seed=100, log=log,
        )
        path = write_jsonl(
            tmp_path_factory.mktemp("chaos") / "storm.jsonl", lines
        )
        dataset = load_traceroutes(path)
        return records, log, dataset, clean

    def test_loss_is_realistic(self, chaotic_load):
        records, log, dataset, _ = chaotic_load
        lost = log.count("probe-churn") + log.count("drop-records")
        assert lost >= 0.05 * len(records)
        assert len(dataset) <= 0.95 * len(records)

    def test_ledger_bounds_the_damage(self, chaotic_load):
        records, log, dataset, _ = chaotic_load
        quality = dataset.quality
        # Every corrupted line is either dropped as corrupt or — when
        # corruption hit a line we can't even count — missing; never
        # silently parsed.
        assert quality.dropped_count(DropReason.CORRUPT_LINE) <= (
            log.count("corrupt-lines")
        )
        assert quality.dropped_count(DropReason.CORRUPT_LINE) > 0
        # Duplicates dropped never exceed duplicates injected.
        assert quality.dropped_count(DropReason.DUPLICATE_RECORD) <= (
            log.count("duplicates")
        )
        # Garbage RTTs: every one that survived loss was coerced.
        assert quality.degraded_count(DropReason.GARBAGE_RTT) <= (
            log.count("garbage-rtt")
        )
        assert quality.degraded_count(DropReason.GARBAGE_RTT) > 0
        # Conservation: lines in = records kept + drops.
        assert quality.total_ingested == (
            len(dataset) + quality.total_dropped
        )

    def test_pipeline_completes_and_still_detects(self, chaotic_load):
        _, _, dataset, clean = chaotic_load
        grid = TimeGrid(PERIOD)
        dataset.probe_meta.update(clean.probe_meta)
        estimated = estimate_dataset(
            dataset.results, grid, probe_meta=dataset.probe_meta,
            quality=dataset.quality,
        )
        signal = aggregate_population(estimated)
        classification = classify_signal(
            signal.delay_ms, grid.bin_seconds
        )
        # The congested ISP still reads congested through the storm.
        assert classification.severity.is_reported


class TestSurveyChaos:
    """Survey-level chaos: partial results, isolated failures."""

    @pytest.fixture(scope="class")
    def chaotic_survey(self):
        from repro.scenarios.worldsurvey import (
            SurveyASSpec,
            run_survey_period,
        )

        def spec(index, intent, technology, peak, service, country="JP"):
            return SurveyASSpec(
                asn=65000 + index, name=f"chaos-{index}", country=country,
                subscribers=500_000, intent=intent, technology=technology,
                peak_utilization=peak, service_time_ms=service,
                probe_count=5, lockdown_daytime_boost=0.0,
                lockdown_evening_boost=0.0,
            )

        legacy = AccessTechnology.FTTH_PPPOE_LEGACY
        own = AccessTechnology.FTTH_OWN
        congested = [
            spec(0, "severe", legacy, 0.990, 0.60),
            spec(1, "severe", legacy, 0.985, 0.55),
            spec(2, "mild", legacy, 0.975, 0.40, country="US"),
            spec(3, "mild", legacy, 0.970, 0.38),
            spec(4, "severe", legacy, 0.988, 0.50, country="US"),
            spec(5, "mild", legacy, 0.972, 0.42),
        ]
        quiet = [
            spec(10, "flat", own, 0.40, None),
            spec(11, "flat", own, 0.45, None, country="DE"),
            spec(12, "flat", own, 0.35, None),
            spec(13, "flat", own, 0.50, None, country="FR"),
        ]
        poisoned_asn = quiet[0].asn
        period = MeasurementPeriod("chaos-7d", dt.datetime(2019, 9, 2), 7)
        fault_log = FaultLog()
        result, _world = run_survey_period(
            congested + quiet, period, lockdown=False, seed=23,
            dataset_faults=[
                BinLoss(0.06),
                NaNBursts(probe_rate=0.25, max_run_bins=24),
                PoisonAS(asns=[poisoned_asn]),
            ],
            fault_seed=5, fault_log=fault_log,
        )
        return result, fault_log, congested, poisoned_asn

    def test_survey_is_partial_not_crashed(self, chaotic_survey):
        result, _, congested, poisoned_asn = chaotic_survey
        assert result.monitored_count >= len(congested)
        assert poisoned_asn not in result.reports

    def test_poisoned_as_in_failure_log(self, chaotic_survey):
        result, fault_log, _, poisoned_asn = chaotic_survey
        assert result.failed_asns() == [poisoned_asn]
        failure = result.failures[poisoned_asn]
        assert failure.error == "EmptyPopulationError"
        assert str(poisoned_asn) in str(failure)
        # Ledger and ground truth agree exactly.
        assert result.quality.dropped_count(
            DropReason.AS_FAILURE
        ) == fault_log.count("poison-as") == 1

    def test_congested_ases_still_detected(self, chaotic_survey):
        result, _, congested, _ = chaotic_survey
        truth = {s.asn for s in congested}
        detected = truth & set(result.reported_asns())
        assert len(detected) >= int(np.ceil(0.95 * len(truth)))

    def test_bin_loss_ground_truth_recorded(self, chaotic_survey):
        _, fault_log, _, _ = chaotic_survey
        assert fault_log.count("bin-loss") > 0
        assert fault_log.count("nan-bursts") > 0
