"""Regenerate the golden fixtures: surveys (batch and streamed), the
anomaly report and the raclette monitor's output.

One command, from the repo root:

    PYTHONPATH=src:. python -m tests.golden.regenerate

It refuses to run while the working tree has uncommitted changes
under the pipeline sources (``src/repro/core``, ``src/repro/stream``,
``src/repro/anomaly``, ``src/repro/raclette``) — a golden frozen from
unreviewed code silently blesses whatever the dirty tree computes.
Pass ``--force`` to override, e.g. while iterating on an intentional
methodology change.

Rerun it only when the pipeline's *intended* output changes (a
methodology fix, new thresholds) and commit the refreshed JSON with a
line in the commit message explaining why the numbers moved.  The
fixtures are always regenerated with the reference backend; the
golden tests then check both backends against them.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

FIXTURE = Path(__file__).with_name("survey_golden.json")
STREAMED_FIXTURE = Path(__file__).with_name(
    "survey_streamed_golden.json"
)
ANOMALY_FIXTURE = Path(__file__).with_name("anomaly_golden.json")
RACLETTE_FIXTURE = Path(__file__).with_name("raclette_golden.json")

#: Source trees whose uncommitted changes block regeneration.
GUARDED = (
    "src/repro/core", "src/repro/stream", "src/repro/anomaly",
    "src/repro/raclette",
)

# Frozen world parameters.  Changing any of these is a fixture break:
# regenerate and explain.
NUM_ASES = 12
NUM_COUNTRIES = 6
WORLD_SEED = 5
SURVEY_SEED = 7
PERIOD_NAME = "golden"
PERIOD_START = "2019-09-02"
PERIOD_DAYS = 4


def _period():
    import datetime as dt

    from repro.timebase import MeasurementPeriod

    return MeasurementPeriod(
        PERIOD_NAME,
        dt.datetime.fromisoformat(PERIOD_START),
        PERIOD_DAYS,
    )


def _specs():
    from repro.scenarios import generate_specs

    return generate_specs(
        num_ases=NUM_ASES, num_countries=NUM_COUNTRIES, seed=WORLD_SEED
    )


def build_survey(kernels="reference"):
    """The frozen world's survey result (reference backend unless a
    backend is passed, as the golden test does for both)."""
    from repro.scenarios import run_survey_period

    result, _ = run_survey_period(
        _specs(), _period(), seed=SURVEY_SEED, kernels=kernels
    )
    return result


def build_streamed_survey(kernels="reference"):
    """The same frozen world replayed through the streaming engine:
    the world's binned dataset decomposed into a record stream and
    fed to :class:`repro.stream.StreamingSurvey`."""
    from repro.scenarios import build_survey_world
    from repro.stream import StreamingSurvey, dataset_to_records

    period = _period()
    world, platform = build_survey_world(
        _specs(), lockdown=False, seed=SURVEY_SEED,
        period_name=period.name,
    )
    dataset = platform.run_period_binned(period)
    engine = StreamingSurvey(
        period, table=world.table, kernels=kernels
    )
    engine.ingest_many(dataset_to_records(dataset))
    return engine.finalize()


# Frozen anomaly world: a hand-built traceroute campaign (no
# simulator, milliseconds to rebuild) with a day-2 delay surge and a
# day-3 next-hop flip, plus a periodically silent hop so link
# spanning is part of the frozen output.
ANOMALY_SEED = 9
ANOMALY_PROBES = 2
ANOMALY_DAYS = 3
ANOMALY_BIN_SECONDS = 1800
# Public addresses: private nears are excluded from forwarding
# tracking, and the flip must be part of the frozen output.
ANOMALY_PATH = ("20.0.0.1", "20.0.0.2", "20.0.0.3", "20.0.0.4")
ANOMALY_SURGE_BINS = range(58, 64)    # day-2 bins, +25 ms past hop 2
ANOMALY_FLIP_BINS = range(126, 132)   # day-3 bins, hop 4 readdressed


def build_anomaly_dataset():
    import numpy as np

    from repro.atlas.traceroute import (
        Hop,
        MeasurementDataset,
        Reply,
        TracerouteResult,
    )

    rng = np.random.default_rng(ANOMALY_SEED)
    day_bins = 86400 // ANOMALY_BIN_SECONDS
    base = (2.0, 5.0, 9.0, 14.0)
    dataset = MeasurementDataset()
    sequence = 0
    for prb_id in (1, 2):
        for bin_index in range(ANOMALY_DAYS * day_bins):
            surged = bin_index in ANOMALY_SURGE_BINS
            flipped = bin_index in ANOMALY_FLIP_BINS
            for k in range(3):
                timestamp = (
                    bin_index * ANOMALY_BIN_SECONDS + k * 600.0 + 1.0
                )
                sequence += 1
                hops = []
                for i, address in enumerate(ANOMALY_PATH):
                    if i == 1 and sequence % 37 == 0:
                        hops.append(Hop(
                            hop=i + 1,
                            replies=(Reply.timeout(),) * 3,
                        ))
                        continue
                    if i == 3 and flipped:
                        address = "20.0.0.7"
                    rtt = base[i] + (25.0 if surged and i >= 2 else 0.0)
                    hops.append(Hop(hop=i + 1, replies=tuple(
                        Reply(address, round(
                            rtt + rng.uniform(0.0, 0.4), 3
                        ))
                        for _ in range(3)
                    )))
                dataset.extend([TracerouteResult(
                    prb_id=prb_id, msm_id=1, timestamp=timestamp,
                    src_address="192.168.1.2",
                    from_address="60.0.0.9",
                    dst_address="9.9.9.9", hops=tuple(hops),
                )])
    return dataset


def build_anomaly_report(kernels="reference"):
    """The frozen campaign's anomaly-report payload."""
    import datetime as dt

    from repro.anomaly import detect_anomalies
    from repro.timebase import MeasurementPeriod, TimeGrid

    period = MeasurementPeriod(
        "golden-anomaly",
        dt.datetime.fromisoformat(PERIOD_START),
        ANOMALY_DAYS,
    )
    dataset = build_anomaly_dataset()
    report = detect_anomalies(
        dataset.results,
        TimeGrid(period, ANOMALY_BIN_SECONDS),
        period_name=period.name, kernels=kernels,
    )
    return report.payload


# Frozen raclette stream: two ISPs, one whose legacy PPPoE gateway
# saturates every evening (it alerts) and one clean, fed to the CLI in
# timestamp order, then again after ``repro inject`` at its default
# rates.
RACLETTE_SEED = 11
RACLETTE_PROBES = 3
RACLETTE_DAYS = 2
RACLETTE_HOT, RACLETTE_COOL = 64501, 64502
RACLETTE_INJECT_SEED = 7


def write_raclette_stream(workdir):
    """The frozen two-ISP world's traceroutes in timestamp order, as
    Atlas JSON lines, and its RIB dump; returns both paths."""
    import datetime as dt

    from repro.atlas import AtlasPlatform
    from repro.netbase import AccessTechnology, ASInfo, ASRole
    from repro.timebase import MeasurementPeriod
    from repro.topology import ProvisioningPolicy, World

    world = World(seed=RACLETTE_SEED)
    hot = world.add_isp(
        ASInfo(
            RACLETTE_HOT, "HotNet", "JP", ASRole.EYEBALL,
            access_technologies=[AccessTechnology.FTTH_PPPOE_LEGACY],
        ),
        provisioning=ProvisioningPolicy(
            peak_utilization={AccessTechnology.FTTH_PPPOE_LEGACY: 0.96},
            device_spread=0.005, load_jitter_std=0.005,
        ),
    )
    cool = world.add_isp(ASInfo(
        RACLETTE_COOL, "CoolNet", "JP", ASRole.EYEBALL,
        access_technologies=[AccessTechnology.FTTH_OWN],
    ))
    world.add_default_targets()
    world.finalize()
    platform = AtlasPlatform(world)
    probes = [
        probe
        for isp in (hot, cool)
        for probe in platform.deploy_probes_on_isp(isp, RACLETTE_PROBES)
    ]
    period = MeasurementPeriod(
        "raclette-golden", dt.datetime.fromisoformat(PERIOD_START),
        RACLETTE_DAYS,
    )
    raw = platform.run_period(period, probes)
    stream = sorted(
        (r for results in raw.results.values() for r in results),
        key=lambda r: r.timestamp,
    )
    workdir = Path(workdir)
    results_path = workdir / "ordered.jsonl"
    results_path.write_text("".join(
        json.dumps(result.to_json()) + "\n" for result in stream
    ))
    rib_path = workdir / "rib.txt"
    rib_path.write_text(world.table.to_text() + "\n")
    return results_path, rib_path


def run_raclette(results_path, rib_path):
    """``python -m repro.raclette RESULTS --rib RIB``'s stdout lines."""
    import contextlib
    import io

    from repro.raclette.__main__ import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run([str(results_path), "--rib", str(rib_path)])
    assert code == 0, code
    return out.getvalue().splitlines()


def build_raclette_golden(workdir):
    """The monitor CLI's stdout (alerts, summary, top list) on the
    frozen stream, as is and after default-rate fault injection."""
    import contextlib
    import io

    from repro.cli import main

    ordered, rib = write_raclette_stream(workdir)
    injected = Path(workdir) / "injected.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([
            "inject", str(ordered), str(injected),
            "--seed", str(RACLETTE_INJECT_SEED),
        ])
    assert code == 0, code
    return {
        "ordered": run_raclette(ordered, rib),
        "injected": run_raclette(injected, rib),
    }


def uncommitted_changes(repo_root=None):
    """Guarded-tree paths with uncommitted changes (empty when the
    tree is clean or this is not a git checkout)."""
    root = (
        Path(repo_root) if repo_root is not None
        else Path(__file__).resolve().parents[2]
    )
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "--", *GUARDED],
            cwd=root, capture_output=True, text=True,
            timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return []
    return [line[3:] for line in status.splitlines() if line.strip()]


def _write(path: Path, result) -> dict:
    from repro.io import survey_to_dict

    payload = survey_to_dict(result)
    path.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n"
    )
    return payload


def main(argv=None, repo_root=None, out_dir=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.golden.regenerate",
        description="Regenerate the golden survey fixtures.",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="regenerate even with uncommitted pipeline changes",
    )
    args = parser.parse_args(argv)

    dirty = uncommitted_changes(repo_root)
    if dirty and not args.force:
        print(
            "error: refusing to regenerate golden fixtures with "
            "uncommitted changes under "
            + " / ".join(GUARDED)
            + " (use --force to override): "
            + ", ".join(dirty),
            file=sys.stderr,
        )
        return 1

    out = Path(out_dir) if out_dir is not None else FIXTURE.parent
    batch = _write(out / FIXTURE.name, build_survey())
    print(f"wrote {out / FIXTURE.name} "
          f"({len(batch['reports'])} reports)")
    streamed = _write(
        out / STREAMED_FIXTURE.name, build_streamed_survey()
    )
    print(f"wrote {out / STREAMED_FIXTURE.name} "
          f"({len(streamed['reports'])} reports)")
    anomaly = build_anomaly_report()
    (out / ANOMALY_FIXTURE.name).write_text(
        json.dumps(anomaly, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {out / ANOMALY_FIXTURE.name} "
          f"({anomaly['links_total']} links, "
          f"{len(anomaly['events'])} events)")
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        raclette = build_raclette_golden(workdir)
    (out / RACLETTE_FIXTURE.name).write_text(
        json.dumps(raclette, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {out / RACLETTE_FIXTURE.name} "
          f"({len(raclette['ordered'])} + "
          f"{len(raclette['injected'])} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
