#!/usr/bin/env python3
"""Running the pipeline on Atlas-schema JSON files.

The analysis pipeline consumes RIPE-Atlas-shaped traceroute results —
the same JSON the Atlas API serves.  This example shows the interchange
path a user with *real* downloaded measurements would take:

  1. simulate a measurement campaign and export it as JSON lines
     (stand-in for `curl https://atlas.ripe.net/api/v2/measurements/
     5051/results/...`),
  2. read the JSON back, with no reference to the simulator,
  3. run §2.1 last-mile estimation + §2.3 classification on it.

Run:  python examples/atlas_json_pipeline.py
"""

import json
import tempfile
from pathlib import Path

from repro.atlas import AtlasPlatform, ProbeVersion
from repro.core import (
    aggregate_population,
    classify_signal,
    estimate_dataset,
)
from repro.io import read_traceroutes
from repro.netbase import AccessTechnology, ASInfo, ASRole
from repro.quality import DataQualityReport
from repro.timebase import MeasurementPeriod, TimeGrid
import datetime as dt

PERIOD = MeasurementPeriod("export", dt.datetime(2019, 9, 2), 4)


def export_campaign(path: Path) -> None:
    """Phase 1: produce a result file in the Atlas API schema."""
    world = World_with_congested_isp()
    platform = AtlasPlatform(world)
    platform.config.outage_rate_per_day = 0.0
    isp = next(iter(world.isps.values()))
    probes = platform.deploy_probes_on_isp(
        isp, 4, version=ProbeVersion.V3
    )
    dataset = platform.run_period(PERIOD, probes)
    with path.open("w") as handle:
        for prb_id in dataset.probe_ids():
            for result in dataset.for_probe(prb_id):
                handle.write(json.dumps(result.to_json()) + "\n")
    print(f"exported {len(dataset)} traceroutes "
          f"({path.stat().st_size / 1e6:.1f} MB) to {path.name}")


def World_with_congested_isp():
    from repro.topology import ProvisioningPolicy, World

    world = World(seed=23)
    world.add_isp(
        ASInfo(
            64500, "ExportNet", "DE", ASRole.EYEBALL,
            access_technologies=[AccessTechnology.FTTH_PPPOE_LEGACY],
        ),
        provisioning=ProvisioningPolicy(
            peak_utilization={AccessTechnology.FTTH_PPPOE_LEGACY: 0.96}
        ),
    )
    world.add_default_targets()
    world.finalize()
    return world


def analyze(path: Path) -> None:
    """Phases 2+3: parse JSON lines and run the paper's pipeline.

    Nothing here touches the simulator, and the reader is the lenient
    one the CLIs use: a corrupt line or an unusable record is dropped
    and counted, a garbage RTT becomes a timeout.  So this function
    works unchanged on a file of real Atlas results.
    """
    quality = DataQualityReport()
    results_by_probe = {}
    with path.open() as handle:
        for result in read_traceroutes(handle, quality, "example-read"):
            results_by_probe.setdefault(result.prb_id, []).append(result)
    print(f"parsed results for {len(results_by_probe)} probes "
          f"({quality.total_dropped} lines dropped)")

    grid = TimeGrid(PERIOD)
    dataset = estimate_dataset(results_by_probe, grid)
    signal = aggregate_population(dataset)
    classification = classify_signal(signal.delay_ms, grid.bin_seconds)

    print(f"aggregated delay peak : {signal.max_delay_ms:.2f} ms")
    print(f"daily amplitude       : "
          f"{classification.daily_amplitude_ms:.2f} ms")
    print(f"classification        : "
          f"{classification.severity.value.upper()}")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "atlas_results.jsonl"
        export_campaign(path)
        analyze(path)


if __name__ == "__main__":
    main()
