#!/usr/bin/env python
"""CI serving-regression gate: loadtest an ephemeral server, compare
against the committed ``BENCH_serving.json`` baseline.

Builds the synthetic archive, serves it on an ephemeral port, drives
a short closed-loop load test (:mod:`repro.loadgen`) and fails when
served p99 latency or sustained req/s regress beyond the explicit
tolerances in :mod:`repro.loadgen.gate` — wide enough for noisy
shared runners, tight enough to catch a serialized handler or an
accidental per-request archive re-read.

Usage::

    PYTHONPATH=src python scripts/loadtest_gate.py [--update]
        [--duration SECONDS] [--concurrency N]

``--update`` refreshes the baseline section instead of gating (run it
on the machine that owns the committed baseline).  Exits 0 when the
gate passes (or no baseline exists yet), 1 on regression.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "scripts"))

from synth_archive import build_archive  # noqa: E402

from repro.loadgen import (  # noqa: E402
    BASELINE_SECTION,
    LoadConfig,
    build_mix,
    check_regression,
    http_transport,
    run_load,
    upsert_bench_section,
)
from repro.loadgen.gate import (  # noqa: E402
    DEFAULT_MAX_P99_RATIO,
    DEFAULT_MIN_RPS_RATIO,
)
from repro.obs import Observability, observed  # noqa: E402
from repro.serve import SurveyAPI, SurveyServer  # noqa: E402

BENCH_JSON = REPO / "BENCH_serving.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=3.0)
    parser.add_argument("--warmup", type=float, default=1.0)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument(
        "--max-p99-ratio", type=float, default=DEFAULT_MAX_P99_RATIO,
        help="fail when p99 exceeds baseline by this factor",
    )
    parser.add_argument(
        "--min-rps-ratio", type=float, default=DEFAULT_MIN_RPS_RATIO,
        help="fail when req/s falls below baseline times this factor",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="refresh the committed baseline instead of gating",
    )
    args = parser.parse_args()

    work = Path(tempfile.mkdtemp(prefix="loadtest-gate-"))
    archive = build_archive(work / "arc")
    config = LoadConfig(
        concurrency=args.concurrency,
        duration_seconds=args.duration,
        warmup_seconds=args.warmup,
        mix=build_mix(archive, {
            "as": 4.0, "period": 2.0, "severe": 1.0, "history": 1.0,
            "healthz": 0.5, "metrics": 0.25,
        }),
    )
    with observed(Observability()) as obs:
        api = SurveyAPI(archive)
        with SurveyServer(api) as server:
            print(f"gate run: {server.url}, concurrency "
                  f"{config.concurrency}, {config.duration_seconds:g}s "
                  f"(+{config.warmup_seconds:g}s warmup)", flush=True)
            report = run_load(http_transport(server.url), config)

        # The gate measures the mmap serving path: every period must
        # be segment-backed and mapped, and no request may have found
        # a segment it had to quarantine.
        for name in archive.periods():
            meta = archive.period_meta(name)
            if meta["repr"] != "segment":
                print(f"GATE FAIL: period {name} not segment-backed "
                      f"(repr={meta['repr']!r})")
                return 1
            if not archive._reader(name).mapped:
                print(f"GATE FAIL: period {name} segment not "
                      "memory-mapped")
                return 1
        corrupt = obs.metrics.counter(
            "store_corrupt_total", ""
        ).value()
        if corrupt:
            print(f"GATE FAIL: {corrupt:g} archive reads found a "
                  "corrupt artifact during the run")
            return 1

    for line in report.summary_lines():
        print(line)
    current = report.to_dict()

    if args.update:
        upsert_bench_section(BENCH_JSON, BASELINE_SECTION, current)
        print(f"updated {BASELINE_SECTION} baseline in {BENCH_JSON}")
        return 0

    baseline = {}
    if BENCH_JSON.exists():
        baseline = json.loads(BENCH_JSON.read_text()).get(
            BASELINE_SECTION, {}
        )
    if not baseline:
        print(f"no {BASELINE_SECTION!r} baseline in {BENCH_JSON}; "
              "run with --update to record one (gate passes)")
        return 0

    problems = check_regression(
        current, baseline,
        max_p99_ratio=args.max_p99_ratio,
        min_rps_ratio=args.min_rps_ratio,
    )
    if problems:
        print("GATE FAIL:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        f"GATE OK: p99 {current['p99_ms']:.2f} ms "
        f"(baseline {baseline['p99_ms']:.2f}, tolerance "
        f"{args.max_p99_ratio:g}x), {current['rps']:.1f} req/s "
        f"(baseline {baseline['rps']:.1f}, floor "
        f"{args.min_rps_ratio:g}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
