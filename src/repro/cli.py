"""Top-level command-line interface.

``python -m repro <command>``:

* ``survey``   — run the §3 world survey and export the site bundle;
* ``tokyo``    — run the §4 Tokyo case study and print Fig. 5–9 digests;
* ``simulate`` — generate an Atlas-schema traceroute campaign to JSONL;
* ``classify`` — classify a saved last-mile dataset per AS;
* ``stream``   — run a survey period incrementally: records append
  one at a time (from a saved dataset or the simulator), bins
  finalize as they close, and ``--checkpoint-every`` commits partial
  periods into a live archive period that ``serve`` exposes;
* ``inject``   — corrupt a traceroute JSONL with seeded fault injectors;
* ``quality``  — leniently load a traceroute JSONL and print its
  data-quality report;
* ``obs``      — render a saved observability report (trace tree,
  metrics);
* ``store``    — manage the longitudinal survey archive
  (``ingest`` / ``query`` / ``fsck``);
* ``serve``    — serve an archive over HTTP (the paper's public
  lookup site) with bounded concurrency, per-request deadlines and
  per-period circuit breakers; SIGTERM/SIGINT drain in-flight
  requests before exit; ``--log-jsonl`` gets one ``access`` line
  per request, and ``/v1/metrics`` exposes the live RED metrics
  (Prometheus text or JSON);
* ``loadtest`` — closed-loop load generator against an archive
  (ephemeral server) or a running ``--url``; reports sustained
  req/s and p50/p95/p99 latency, optionally updating the committed
  ``BENCH_serving.json`` baseline;
* ``anomaly``  — pinpoint per-link delay and forwarding anomalies
  from differential RTTs with Wilson confidence bands
  (:mod:`repro.anomaly`); ``--archive`` commits the report into a
  committed period, ``--reference-periods`` judges against history;
* ``info``     — version and layout.

``survey`` and ``inject`` accept ``--trace`` (print the span tree) and
``--metrics-out PATH`` (write the full observability report as JSON,
rendered later with ``repro obs report PATH``).

The streaming monitor has its own entry point
(``python -m repro.raclette``).
"""

from __future__ import annotations

import argparse
import os
import sys
import zipfile
import zlib
from pathlib import Path
from typing import List, Optional

import numpy as np

# The batch subcommands' stacks load with the CLI: the e2e benchmark
# ends set-up when ``import repro.cli`` returns, so deferring them
# would only move their import into the timed run.  Tools (serve,
# loadtest, inject, anomaly, raclette, store fsck) import inside their
# commands and load on first use.
from .apnic import EyeballRanking
from .core import (
    SurveySuite,
    aggregate_population,
    classify_dataset,
    render_failure_log,
    render_quality_report,
    render_survey_headline,
    render_throughput_summary,
)
from .io import (
    export_site,
    lastmile_files,
    load_lastmile,
    load_traceroutes,
    save_lastmile,
    save_traceroutes,
)
from .obs import (
    MetricsRegistry,
    NullTracer,
    Observability,
    add_obs_flags,
    finish_observer,
    get_observer,
    load_report,
    make_observer,
    observed,
    render_report,
    run_observed,
)
from .scenarios import build_survey_world, generate_specs, run_survey_period
from .store import SurveyArchive
from .stream import StreamingSurvey, column_batches, decompose
from .timebase import (
    ALL_SURVEY_PERIODS,
    COVID_PERIOD,
    LONGITUDINAL_PERIODS,
    SECONDS_PER_DAY,
    MeasurementPeriod,
    TimeGrid,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Persistent last-mile congestion reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    survey = sub.add_parser(
        "survey", help="run the world survey (§3) and export results"
    )
    survey.add_argument("--ases", type=int, default=150)
    survey.add_argument("--countries", type=int, default=40)
    survey.add_argument("--periods", type=int, default=2,
                        help="longitudinal periods to run (max 6)")
    survey.add_argument("--covid", action="store_true",
                        help="also run the 2020-04 lockdown period")
    survey.add_argument("--seed", type=int, default=101)
    survey.add_argument(
        "--full", action="store_true",
        help="paper scale: 646 ASes, 98 countries, all 6 periods + "
        "the 2020-04 lockdown window",
    )
    survey.add_argument("--out", default="survey-out",
                        help="directory for the exported site bundle")
    survey.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="shard the survey across N worker processes (0 = one "
        "per usable CPU; default and 1: in process, simulating on "
        "one thread per usable CPU)",
    )
    survey.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed per-AS result cache directory; "
        "re-runs recompute only invalidated ASes",
    )
    survey.add_argument(
        "--archive", default=None, metavar="DIR",
        help="also commit every period into the longitudinal survey "
        "archive at DIR (servable with `repro serve DIR`)",
    )
    add_obs_flags(survey)

    tokyo = sub.add_parser(
        "tokyo", help="run the Tokyo case study (§4) and print digests"
    )
    tokyo.add_argument("--client-scale", type=float, default=0.3)
    tokyo.add_argument("--seed", type=int, default=42)
    tokyo.add_argument("--save-lastmile", default=None,
                       help="base path to save the per-ISP datasets")

    simulate = sub.add_parser(
        "simulate",
        help="generate an Atlas-schema traceroute campaign (JSONL)",
    )
    simulate.add_argument("out", help="output JSONL path")
    simulate.add_argument("--probes", type=int, default=4)
    simulate.add_argument("--days", type=int, default=2)
    simulate.add_argument("--peak-utilization", type=float, default=0.95)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--rib-out", default=None,
                          help="also write the world's RIB dump here")

    classify = sub.add_parser(
        "classify",
        help="classify a saved last-mile dataset per AS",
    )
    classify.add_argument(
        "dataset", help="base path of a dataset written by "
        "repro.io.save_lastmile",
    )
    classify.add_argument("--min-probes", type=int, default=3)
    add_obs_flags(classify)

    stream = sub.add_parser(
        "stream",
        help="run a survey period incrementally: records append one "
        "at a time, bins finalize as they close, partial results "
        "checkpoint into a live archive period",
    )
    stream.add_argument(
        "--dataset", default=None, metavar="BASE",
        help="replay a dataset written by repro.io.save_lastmile; "
        "without it, the simulator generates the feed",
    )
    stream.add_argument(
        "--period", default=None, metavar="NAME",
        help="simulator period name (default: the latest "
        "longitudinal period; ignored with --dataset)",
    )
    stream.add_argument("--ases", type=int, default=10,
                        help="simulator AS count")
    stream.add_argument("--countries", type=int, default=6,
                        help="simulator country count")
    stream.add_argument("--seed", type=int, default=101,
                        help="simulator seed")
    stream.add_argument("--min-probes", type=int, default=3)
    stream.add_argument(
        "--batch-size", type=int, default=1000, metavar="N",
        help="micro-batch size for ingestion",
    )
    stream.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="RECORDS",
        help="re-classify (and with --archive, durably commit a "
        "partial period) every RECORDS records; 0 = only at the end",
    )
    stream.add_argument(
        "--emit-partial", action="store_true",
        help="print the partial survey headline at each checkpoint",
    )
    stream.add_argument(
        "--archive", default=None, metavar="DIR",
        help="commit checkpoints into a live archive period at DIR "
        "and finalize it when the stream ends",
    )
    add_obs_flags(stream)

    inject = sub.add_parser(
        "inject",
        help="corrupt an Atlas-schema traceroute JSONL with seeded "
        "fault injectors",
    )
    inject.add_argument("src", help="input JSONL path")
    inject.add_argument("out", help="output (corrupted) JSONL path")
    inject.add_argument("--seed", type=int, default=0)
    inject.add_argument("--missing-replies", type=float, default=0.02,
                        help="per-reply rate of '*' timeouts")
    inject.add_argument("--truncate", type=float, default=0.02,
                        help="per-record rate of hop-list truncation")
    inject.add_argument("--rate-limit", type=float, default=0.02,
                        help="per-record rate of silenced private hops")
    inject.add_argument("--garbage-rtt", type=float, default=0.01,
                        help="per-reply rate of garbage RTT values")
    inject.add_argument("--duplicates", type=float, default=0.01,
                        help="per-record duplication rate")
    inject.add_argument("--reorder", type=float, default=0.02,
                        help="per-record out-of-order displacement rate")
    inject.add_argument("--clock-skew", type=float, default=0.0,
                        help="per-probe clock-skew rate")
    inject.add_argument("--churn", type=float, default=0.0,
                        help="per-probe churn-burst rate")
    inject.add_argument("--drop", type=float, default=0.02,
                        help="uniform record-loss rate")
    inject.add_argument("--corrupt-lines", type=float, default=0.01,
                        help="per-line JSONL corruption rate")
    add_obs_flags(inject)

    obs = sub.add_parser(
        "obs",
        help="observability utilities (trace/metrics report rendering)",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report",
        help="render a report written by --metrics-out",
    )
    obs_report.add_argument(
        "path", nargs="?", default="metrics.json",
        help="report JSON path (default: metrics.json)",
    )
    obs_report.add_argument(
        "--prometheus", action="store_true",
        help="emit the metrics in Prometheus text format instead",
    )
    obs_report.add_argument(
        "--diff", nargs=2, default=None,
        metavar=("BEFORE", "AFTER"),
        help="print counter deltas between two reports instead of "
        "rendering one",
    )

    store = sub.add_parser(
        "store",
        help="manage the longitudinal survey archive",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_ingest = store_sub.add_parser(
        "ingest",
        help="commit exported survey JSON (suite or single period) "
        "into an archive",
    )
    store_ingest.add_argument("archive", help="archive directory")
    store_ingest.add_argument(
        "sources", nargs="+",
        help="survey JSON files: a suite (surveys.json from the site "
        "export) or a single survey_to_dict document",
    )
    store_query = store_sub.add_parser(
        "query",
        help="query an archive (point lookups, indexes, longitudinal)",
    )
    store_query.add_argument("archive", help="archive directory")
    store_query.add_argument(
        "--asn", type=int, default=None,
        help="point lookup: one AS's report (latest period unless "
        "--period)",
    )
    store_query.add_argument(
        "--period", default=None,
        help="period name for --asn/--severity/--country lookups",
    )
    store_query.add_argument(
        "--history", action="store_true",
        help="with --asn: the AS's per-period history",
    )
    store_query.add_argument(
        "--severity", default=None, metavar="CLASS",
        help="list ASNs of one severity class (requires --period)",
    )
    store_query.add_argument(
        "--country", default=None, metavar="CC",
        help="list ASNs hosted in a country (requires --period)",
    )
    store_query.add_argument(
        "--deltas", action="store_true",
        help="churn between consecutive periods (new/gone/persisting)",
    )
    store_query.add_argument(
        "--verify", action="store_true",
        help="re-checksum every committed period and report",
    )
    store_fsck = store_sub.add_parser(
        "fsck",
        help="audit archive integrity (checksums, cross-references, "
        "leftovers); exit 0 clean, 1 errors, 2 repaired, 3 unusable",
    )
    store_fsck.add_argument("archive", help="archive directory")
    store_fsck.add_argument(
        "--repair", action="store_true",
        help="quarantine corrupt periods, rebuild indexes, sweep "
        "stale temp files (read-only without this flag)",
    )
    store_fsck.add_argument(
        "--json", action="store_true",
        help="emit the full report as JSON instead of a summary",
    )

    serve = sub.add_parser(
        "serve",
        help="serve a survey archive over HTTP",
    )
    serve.add_argument("archive", help="archive directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 = ephemeral)")
    serve.add_argument(
        "--cache-size", type=int, default=512,
        help="hot-object cache capacity (rendered responses)",
    )
    serve.add_argument(
        "--max-concurrency", type=int, default=64, metavar="N",
        help="in-flight request ceiling; excess requests are shed "
        "with 503 + Retry-After",
    )
    serve.add_argument(
        "--deadline", type=float, default=10.0, metavar="SECONDS",
        help="per-request time budget (503 on expiry)",
    )
    serve.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="consecutive read failures that trip a period's "
        "circuit breaker",
    )
    serve.add_argument(
        "--breaker-cooldown", type=float, default=30.0,
        metavar="SECONDS",
        help="how long a tripped breaker stays open before a probe",
    )
    serve.add_argument(
        "--retry-after", type=float, default=1.0, metavar="SECONDS",
        help="Retry-After hint attached to every 503",
    )
    add_obs_flags(serve)

    loadtest = sub.add_parser(
        "loadtest",
        help="drive a closed-loop load test against an archive "
        "(ephemeral in-process server) or a running base URL",
    )
    loadtest.add_argument(
        "archive", nargs="?", default=None,
        help="archive directory to serve and load (omit with --url)",
    )
    loadtest.add_argument(
        "--url", default=None, metavar="BASE_URL",
        help="target an already-running server instead of spinning "
        "up an ephemeral one",
    )
    loadtest.add_argument(
        "--concurrency", type=int, default=8, metavar="N",
        help="closed-loop worker threads",
    )
    loadtest.add_argument(
        "--duration", type=float, default=5.0, metavar="SECONDS",
        help="measured wall-clock duration (after warmup)",
    )
    loadtest.add_argument(
        "--warmup", type=float, default=1.0, metavar="SECONDS",
        help="warmup window whose samples are discarded",
    )
    loadtest.add_argument(
        "--mix", action="append", default=None, metavar="CLASS=WEIGHT",
        help="route-mix entry (repeatable); classes: healthz, "
        "metrics, periods, period, severe, as, history, anomalies, "
        "link-history",
    )
    loadtest.add_argument(
        "--seed", type=int, default=0,
        help="RNG seed for the weighted route choice",
    )
    loadtest.add_argument(
        "--in-process", action="store_true",
        help="drive SurveyAPI directly (no sockets) — API-layer "
        "throughput, not end-to-end HTTP",
    )
    loadtest.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the machine-readable report JSON to PATH",
    )
    loadtest.add_argument(
        "--update-bench", default=None, metavar="BENCH_JSON",
        help="upsert the report into BENCH_JSON's 'loadtest' section "
        "(the committed serving baseline)",
    )
    loadtest.add_argument(
        "--max-concurrency", type=int, default=64, metavar="N",
        help="server-side in-flight ceiling for the ephemeral server",
    )

    quality = sub.add_parser(
        "quality",
        help="leniently load a traceroute JSONL and print the "
        "data-quality report",
    )
    quality.add_argument("src", help="input JSONL path")

    anomaly = sub.add_parser(
        "anomaly",
        help="pinpoint per-link delay/forwarding anomalies from "
        "differential RTTs (Wilson bands); optionally commit the "
        "report into an archive period",
    )
    anomaly.add_argument(
        "--dataset", default=None, metavar="PATH",
        help="traceroute JSONL (repro simulate / Atlas schema); "
        "without it, the simulator generates the campaign",
    )
    anomaly.add_argument(
        "--period", default="simulated", metavar="NAME",
        help="period name stamped on the report (with --archive: the "
        "committed period the report attaches to)",
    )
    anomaly.add_argument(
        "--bin-seconds", type=int, default=1800,
        help="time-bin width for per-link aggregation",
    )
    anomaly.add_argument(
        "--days", type=int, default=None,
        help="period length in days (default: simulator 3; dataset "
        "mode derives it from the last timestamp)",
    )
    anomaly.add_argument("--probes", type=int, default=4,
                         help="simulator probe count")
    anomaly.add_argument("--seed", type=int, default=11,
                         help="simulator seed")
    anomaly.add_argument(
        "--peak-utilization", type=float, default=0.7,
        help="simulator last-mile peak utilization",
    )
    anomaly.add_argument(
        "--confidence", type=float, default=None,
        help="Wilson band confidence (default 0.95)",
    )
    anomaly.add_argument(
        "--min-samples", type=int, default=None,
        help="minimum traceroutes observing a link per bin "
        "(default 3)",
    )
    anomaly.add_argument(
        "--forwarding-threshold", type=float, default=None,
        help="total-variation shift that flags a forwarding anomaly "
        "(default 0.5)",
    )
    anomaly.add_argument(
        "--min-gap", type=float, default=None, metavar="MS",
        help="band separation below this is noise (default 2.0)",
    )
    anomaly.add_argument(
        "--archive", default=None, metavar="DIR",
        help="commit the report into the archive at DIR under "
        "--period (the period must already be committed)",
    )
    anomaly.add_argument(
        "--reference-periods", nargs="+", default=None,
        metavar="NAME",
        help="judge against the merged normal model learned from "
        "these periods' committed reports in --archive (default: "
        "the period self-references per time-of-day slot)",
    )
    anomaly.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the report payload JSON to PATH",
    )
    add_obs_flags(anomaly)

    sub.add_parser("info", help="print version and package layout")
    return parser


def _as_dir(path: str) -> str:
    """``path`` ending in one separator, for messages naming a directory."""
    return os.path.join(path, "")


# -- commands ------------------------------------------------------------


def cmd_survey(args) -> int:
    return run_observed(args, _run_survey)


def _run_survey(args) -> int:
    if args.full:
        args.ases, args.countries = 646, 98
        args.periods, args.covid = 6, True
    specs = generate_specs(
        num_ases=args.ases, num_countries=args.countries, seed=args.seed
    )
    periods = list(LONGITUDINAL_PERIODS[-args.periods:])
    if args.covid:
        periods.append(COVID_PERIOD)

    cache = None
    if args.cache_dir:
        from .parallel import ResultCache

        cache = ResultCache(args.cache_dir)

    suite = SurveySuite()
    world = None
    for period in periods:
        print(f"running {period.name}...", flush=True)
        result, world = run_survey_period(
            specs, period, seed=args.seed, workers=args.workers,
            cache=cache,
        )
        suite.add(result)
        print("  " + render_survey_headline(result))
        if result.failures:
            print("  " + render_failure_log(result).replace("\n", "\n  "))
        if not result.quality.clean:
            print(
                "  "
                + render_quality_report(result.quality).replace(
                    "\n", "\n  "
                )
            )

    if cache is not None:
        stats = cache.stats
        print(
            f"cache: {stats.hits} hits, {stats.misses} misses, "
            f"{stats.corrupt} corrupt, {stats.writes} writes "
            f"({cache.directory})"
        )

    ranking = EyeballRanking.from_registry(
        world.registry, rng=np.random.default_rng(args.seed)
    )
    written = export_site(suite, args.out, ranking)
    print(f"\nexported {len(written)} artifacts to {_as_dir(args.out)}")

    if args.archive:
        archive = SurveyArchive(args.archive)
        committed = suite.ingest_into(archive, ranking)
        print(
            f"archived {len(committed)} period(s) to {_as_dir(args.archive)} "
            f"({', '.join(committed)})"
        )
    return 0


def cmd_tokyo(args) -> int:
    from .core import (
        filter_requests,
        per_asn_throughput,
        spearman_delay_throughput,
    )
    from .scenarios import (
        ISP_A_ASN,
        ISP_B_ASN,
        ISP_C_ASN,
        build_tokyo_case_study,
    )

    study = build_tokyo_case_study(
        seed=args.seed, client_scale=args.client_scale
    )
    logs = study.edge.generate(study.period)
    print(f"{study.edge.total_clients} clients, {len(logs)} log rows")

    signals = {}
    for name in ("ISP_A", "ISP_B", "ISP_C"):
        dataset = study.dataset_for(name)
        if args.save_lastmile:
            save_lastmile(
                dataset, Path(args.save_lastmile + f".{name}")
            )
        signal = aggregate_population(dataset)
        signals[name] = signal
        print(f"{name}: max aggregated delay "
              f"{signal.max_delay_ms:.2f} ms "
              f"({signal.probe_count} probes)")

    grid = TimeGrid(study.period, 900)
    broadband = filter_requests(
        logs, mobile_prefixes=study.mobile_prefixes
    )
    broadband_v4 = broadband.select(broadband.afs == 4)
    throughput = per_asn_throughput(
        broadband_v4, grid, study.world.table,
        asns=[ISP_A_ASN, ISP_B_ASN, ISP_C_ASN],
    )
    print()
    print(render_throughput_summary({
        "ISP_A": throughput[ISP_A_ASN],
        "ISP_B": throughput[ISP_B_ASN],
        "ISP_C": throughput[ISP_C_ASN],
    }))
    for name, asn in (("ISP_A", ISP_A_ASN), ("ISP_C", ISP_C_ASN)):
        corr = spearman_delay_throughput(signals[name], throughput[asn])
        print(f"{name} delay/throughput Spearman rho = {corr.rho:+.2f}")
    return 0


def _single_isp_world(seed: int, peak_utilization: float, probes: int):
    """The one-ISP world ``simulate`` and ``anomaly`` measure: AS64500
    "SimNet" (JP, legacy FTTH PPPoE) at ``peak_utilization``, with
    ``probes`` probes deployed.  Returns ``(world, platform, probes)``.
    """
    from .atlas import AtlasPlatform
    from .netbase import AccessTechnology, ASInfo, ASRole
    from .topology import ProvisioningPolicy, World

    world = World(seed=seed)
    isp = world.add_isp(
        ASInfo(
            64500, "SimNet", "JP", ASRole.EYEBALL,
            access_technologies=[AccessTechnology.FTTH_PPPOE_LEGACY],
        ),
        provisioning=ProvisioningPolicy(
            peak_utilization={
                AccessTechnology.FTTH_PPPOE_LEGACY: peak_utilization
            },
            device_spread=0.01,
            load_jitter_std=0.008,
        ),
    )
    world.add_default_targets()
    world.finalize()
    platform = AtlasPlatform(world)
    return world, platform, platform.deploy_probes_on_isp(isp, probes)


def cmd_simulate(args) -> int:
    import datetime as dt

    world, platform, probes = _single_isp_world(
        args.seed, args.peak_utilization, args.probes,
    )
    period = MeasurementPeriod(
        "simulated", dt.datetime(2019, 9, 2), args.days
    )
    dataset = platform.run_period(period, probes)
    # Time-ordered per probe, the saved stream is timestamp-ordered.
    dataset.sort_results()
    rows = save_traceroutes(dataset, args.out)
    print(f"wrote {rows} traceroutes to {args.out}")
    if args.rib_out:
        Path(args.rib_out).write_text(world.table.to_text() + "\n")
        print(f"wrote RIB dump to {args.rib_out}")
    return 0


def cmd_classify(args) -> int:
    return run_observed(args, _run_classify)


def _run_classify(args) -> int:
    obs = get_observer()
    with obs.stage_span("classify"):
        dataset = _load_saved_period(obs, args.dataset)
        if dataset is None:
            return 1
        result = classify_dataset(
            dataset, dataset.grid.period, min_probes=args.min_probes,
        )
    if not result.reports:
        print("no AS qualifies (need >= "
              f"{args.min_probes} probes with metadata)")
        return 1
    for asn, report in sorted(result.reports.items()):
        amplitude = report.classification.daily_amplitude_ms
        print(f"AS{asn}: {report.severity.value.upper():6s} "
              f"daily amplitude {amplitude:.2f} ms "
              f"({report.probe_count} probes)")
    return 0


def _load_saved_period(obs, base: str):
    """``load_lastmile(base)`` under a ``load`` span, or None after
    printing one ``error: cannot read BASE: ...`` line when the files
    are missing, truncated or corrupt."""
    with obs.stage_span("load", path=base) as span:
        try:
            dataset = load_lastmile(base)
        except (OSError, ValueError, KeyError, zipfile.BadZipFile,
                zlib.error) as exc:
            print(f"error: cannot read {base}: {exc}", file=sys.stderr)
            return None
        span.set_attr("probes", len(dataset))
        span.set_attr("bytes", sum(
            path.stat().st_size for path in lastmile_files(base)
        ))
    return dataset


def cmd_stream(args) -> int:
    return run_observed(args, _run_stream)


def _run_stream(args) -> int:
    obs = get_observer()
    with obs.stage_span("stream") as span:
        return _stream_period(args, obs, span)


def _stream_period(args, obs, root) -> int:
    """``repro stream``'s work, under its one root span.

    The feed is replayed as column batches.  After each batch the
    engine closes every bin before the newest one it has seen: both
    feeds arrive in bin order, so no record goes stale and only the
    newest bins stay open.  Each checkpoint window is one
    ``stream-ingest`` and one ``stream-close`` span.
    """
    table = None
    if args.dataset:
        dataset = _load_saved_period(obs, args.dataset)
        if dataset is None:
            return 1
        period = dataset.grid.period
    else:
        wanted = args.period or LONGITUDINAL_PERIODS[-1].name
        by_name = {p.name: p for p in ALL_SURVEY_PERIODS}
        period = by_name.get(wanted)
        if period is None:
            print(
                f"error: unknown period {wanted!r} "
                f"(known: {', '.join(sorted(by_name))})",
                file=sys.stderr,
            )
            return 1
        specs = generate_specs(
            num_ases=args.ases, num_countries=args.countries,
            seed=args.seed,
        )
        world, platform = build_survey_world(
            specs, lockdown=period.name == "2020-04", seed=args.seed,
            period_name=period.name,
        )
        with obs.stage_span("load", period=period.name):
            dataset = platform.run_period_binned(period)
        table = world.table
    root.set_attr("period", period.name)

    with obs.span("stream-decompose") as span:
        registrations, rows = decompose(dataset)
        total = len(registrations) + len(rows)
        span.set_attr("records", total)
    engine = StreamingSurvey(
        period, min_probes=args.min_probes, table=table
    )
    writer = None
    if args.archive:
        writer = SurveyArchive(args.archive).begin_live_period(
            period.name
        )

    print(
        f"streaming {total} records into period {period.name} "
        f"({engine.kernels.name} kernels, exact medians)",
        flush=True,
    )

    ingest, close = obs.span("stream-ingest"), obs.span("stream-close")
    since_checkpoint = batches = 0
    stale_before = engine.stale_records
    for batch in column_batches(registrations, rows, args.batch_size):
        with ingest as span:
            ingested = engine.ingest_many(batch)
        with close:
            engine.close_through(engine.newest_bin - 1)
        since_checkpoint += ingested
        batches += 1
        span.set_attr("records", since_checkpoint)
        span.set_attr("batches", batches)
        span.set_attr("stale", engine.stale_records - stale_before)
        if writer is not None:
            writer.append(ingested)
        if (
            args.checkpoint_every
            and since_checkpoint >= args.checkpoint_every
        ):
            since_checkpoint = batches = 0
            stale_before = engine.stale_records
            ingest = obs.span("stream-ingest")
            close = obs.span("stream-close")
            partial = engine.emit_partial()
            line = (
                f"  [{engine.records_ingested}/{total}] "
                + render_survey_headline(partial)
            )
            if writer is not None:
                revision = writer.commit_partial(partial)
                line += f" (committed r{revision})"
            if args.emit_partial:
                print(line, flush=True)

    with close:
        engine.close_through(engine.grid.num_bins - 1)
    result = engine.finalize()
    print(render_survey_headline(result))
    if result.failures:
        print(render_failure_log(result))
    if not result.quality.clean:
        print(render_quality_report(result.quality))
    status = engine.status()
    print(
        f"stream: {status['records_ingested']} records, "
        f"{status['probes']} probes, "
        f"{status['stale_records']} stale, "
        f"{status['sparse_bins']} sparse bins"
    )
    if writer is not None:
        writer.finalize(result)
        print(f"finalized period {period.name} in {_as_dir(args.archive)}")
    return 0


def cmd_inject(args) -> int:
    return run_observed(args, _run_inject)


def _run_inject(args) -> int:
    import json

    from .faults import (
        ClockSkew,
        CorruptLines,
        DropRecords,
        DuplicateRecords,
        FaultLog,
        GarbageRTT,
        MissingReplies,
        ProbeChurn,
        RateLimitPrivateHops,
        ReorderRecords,
        TruncateTraceroutes,
        inject_lines,
        inject_records,
    )

    obs = get_observer()
    STAGE = "cli-inject"
    with obs.stage_span("inject", src=args.src) as span:
        with obs.span("inject-read"):
            try:
                records = _read_json_lines(args.src)
            except (OSError, ValueError) as exc:
                print(f"error: cannot read {args.src}: {exc}",
                      file=sys.stderr)
                return 1
        obs.items_in(STAGE, len(records))
        injectors = []
        for rate, cls in (
            (args.missing_replies, MissingReplies),
            (args.truncate, TruncateTraceroutes),
            (args.rate_limit, RateLimitPrivateHops),
            (args.garbage_rtt, GarbageRTT),
            (args.duplicates, DuplicateRecords),
            (args.reorder, ReorderRecords),
            (args.drop, DropRecords),
        ):
            if rate > 0:
                injectors.append(cls(rate))
        if args.clock_skew > 0:
            injectors.append(ClockSkew(probe_rate=args.clock_skew))
        if args.churn > 0:
            injectors.append(ProbeChurn(probe_rate=args.churn))

        log = FaultLog()
        with obs.span("inject-records", injectors=len(injectors)):
            corrupted, _ = inject_records(
                records, injectors, seed=args.seed, log=log
            )
        lines = [json.dumps(record) for record in corrupted]
        if args.corrupt_lines > 0:
            with obs.span("inject-lines"):
                lines, _ = inject_lines(
                    lines, [CorruptLines(args.corrupt_lines)],
                    seed=args.seed + 1, log=log,
                )
        Path(args.out).write_text("\n".join(lines) + "\n")
        obs.items_out(STAGE, len(lines))
        span.set_attr("faults", log.count())
        injected = obs.counter(
            "faults_injected_total", "faults introduced per injector",
            ("injector",),
        )
        for injector, count in sorted(log.counts.items()):
            injected.inc(count, injector=injector)
        obs.logger.bind(stage=STAGE).info(
            "inject-done", src=args.src, out=args.out,
            records=len(records), lines=len(lines),
            faults=log.count(),
        )
    print(f"wrote {len(lines)} lines to {args.out}")
    print(log.summary())
    return 0


def _read_json_lines(path) -> list:
    """The JSON value of each non-blank line of ``path``; a line that
    does not decode raises ``ValueError`` naming its line number."""
    import json

    records = []
    for number, line in enumerate(
        Path(path).read_text().splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {number}: {exc}") from None
    return records


def cmd_quality(args) -> int:
    try:
        dataset = load_traceroutes(args.src)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.src}: {exc}", file=sys.stderr)
        return 1
    kept = sum(len(results) for results in dataset.results.values())
    print(f"{kept} traceroutes kept from "
          f"{len(dataset.results)} probe(s)")
    print(render_quality_report(dataset.quality))
    return 0


def cmd_obs(args) -> int:
    if args.obs_command == "report":
        if args.diff is not None:
            from .obs.metrics import diff_counters

            sections = []
            for path in args.diff:
                try:
                    report = load_report(path)
                except (OSError, ValueError) as exc:
                    print(f"error: cannot read {path}: {exc}",
                          file=sys.stderr)
                    return 1
                metrics = report.get("metrics") or {}
                if not isinstance(metrics, dict):
                    print(f"error: cannot read {path}: metrics "
                          "section is not an object",
                          file=sys.stderr)
                    return 1
                sections.append(metrics)
            try:
                lines = diff_counters(*sections)
            except (AttributeError, KeyError, TypeError) as exc:
                print("error: malformed metrics in "
                      f"{' or '.join(args.diff)}: {exc}",
                      file=sys.stderr)
                return 1
            if lines:
                print("\n".join(lines))
            else:
                print("(no counter changes)")
            return 0
        try:
            data = load_report(args.path)
        except FileNotFoundError:
            print(f"error: no observability report at {args.path} "
                  "(run with --metrics-out first)", file=sys.stderr)
            return 1
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {args.path}: {exc}",
                  file=sys.stderr)
            return 1
        if args.prometheus:
            registry = MetricsRegistry.from_dict(
                data.get("metrics") or {}
            )
            print(registry.to_prometheus(), end="")
        else:
            print(render_report(data))
        return 0
    raise AssertionError(f"unknown obs command {args.obs_command!r}")


def cmd_store(args) -> int:
    from .netbase.errors import NetbaseError

    if args.store_command == "fsck":
        # fsck never goes through SurveyArchive: it must audit
        # archives too broken to open (garbage manifest → exit 3).
        return _store_fsck(args)
    try:
        archive = SurveyArchive(args.archive)
        if args.store_command == "ingest":
            return _store_ingest(archive, args)
        if args.store_command == "query":
            return _store_query(archive, args)
    except (NetbaseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(
        f"unknown store command {args.store_command!r}"
    )


def _store_ingest(archive, args) -> int:
    import json

    committed = []
    for source in args.sources:
        try:
            data = json.loads(Path(source).read_text())
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {source}: {exc}",
                  file=sys.stderr)
            return 1
        # A single survey payload has a "period" header; a suite file
        # (save_suite / the site export's surveys.json) maps period
        # name -> payload.
        payloads = (
            [data] if "period" in data else list(data.values())
        )
        for payload in payloads:
            committed.append(archive.ingest(payload))
    print(
        f"committed {len(committed)} period(s) to {archive.root}/: "
        + ", ".join(committed)
    )
    return 0


def _store_fsck(args) -> int:
    import json

    from .store import run_fsck

    if not Path(args.archive).is_dir():
        print(f"error: {args.archive} is not a directory",
              file=sys.stderr)
        return 3
    report = run_fsck(Path(args.archive), repair=args.repair)
    if args.json:
        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    else:
        for line in report.summary_lines():
            print(line)
    return report.exit_code


def _store_query(archive, args) -> int:
    import json

    def emit(payload) -> int:
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0

    if args.verify:
        outcome = archive.verify()
        code = 0 if all(v == "ok" for v in outcome.values()) else 1
        emit(outcome)
        return code
    if args.deltas:
        return emit(archive.churn_deltas())
    if args.asn is not None and args.history:
        return emit({
            "asn": args.asn, "history": archive.history(args.asn),
        })
    if args.asn is not None:
        period = args.period or archive.latest()
        return emit({
            "asn": args.asn, "period": period,
            "report": archive.get(args.asn, period),
        })
    if args.severity is not None:
        period = args.period or archive.latest()
        return emit({
            "period": period, "severity": args.severity,
            "asns": archive.asns_with_severity(period, args.severity),
        })
    if args.country is not None:
        period = args.period or archive.latest()
        return emit({
            "period": period, "country": args.country.upper(),
            "asns": archive.asns_in_country(period, args.country),
        })
    if args.period is not None:
        return emit(archive.get_period(args.period))
    return emit({
        "periods": [
            dict(archive.period_meta(name), name=name)
            for name in archive.periods()
        ],
    })


def cmd_serve(args) -> int:
    from .netbase.errors import NetbaseError
    from .serve import ResilienceConfig, SurveyServer

    try:
        resilience = ResilienceConfig(
            max_concurrency=args.max_concurrency,
            deadline_seconds=args.deadline,
            retry_after_seconds=args.retry_after,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown_seconds=args.breaker_cooldown,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        archive = SurveyArchive(args.archive)
        if not len(archive):
            print(f"error: no committed periods in {args.archive} "
                  "(run `repro store ingest` first)", file=sys.stderr)
            return 1
        server = SurveyServer(
            archive, host=args.host, port=args.port,
            cache_size=args.cache_size, resilience=resilience,
        )
    except (NetbaseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    server.install_signal_handlers()
    print(
        f"serving {len(archive)} period(s) from {args.archive} "
        f"on {server.url} (SIGTERM/SIGINT/Ctrl-C drain and stop)",
        flush=True,
    )
    observer, sink = _serve_observer(args)
    try:
        with observed(observer):
            # The report is written after the last in-flight request
            # drained, so a SIGTERM'd server still writes its
            # --metrics-out file and counts every finished request.
            server.serve_forever(
                on_shutdown=lambda: finish_observer(args, observer)
            )
    finally:
        if sink is not None:
            sink.close()
    print("shut down cleanly")
    return 0


def _serve_observer(args):
    """The server's observer and its log sink.

    The server always runs observed — /v1/metrics needs a live
    registry even when no obs flag asked for a report at the end.
    Spans are kept only when ``--trace`` or ``--metrics-out`` will
    read them, and then only the most recent roots: a live tracer
    keeps one per cache miss, and a server runs for days.
    """
    from .serve import TRACE_RING_ROOTS

    observer, sink = make_observer(args)
    if not (args.trace or args.metrics_out):
        return Observability(
            tracer=NullTracer(),
            logger=observer.logger if observer is not None else None,
        ), sink
    observer.keep_recent_spans(TRACE_RING_ROOTS)
    return observer, sink


def cmd_loadtest(args) -> int:
    import json

    from .loadgen import (
        DEFAULT_MIX_SPEC,
        LoadConfig,
        api_transport,
        build_mix,
        http_transport,
        parse_mix_spec,
        run_load,
        upsert_bench_section,
    )
    from .netbase.errors import NetbaseError

    if args.archive is None and args.url is None:
        print("error: need an archive directory or --url",
              file=sys.stderr)
        return 2
    try:
        spec = (
            parse_mix_spec(args.mix) if args.mix
            else dict(DEFAULT_MIX_SPEC)
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    archive = None
    if args.archive is not None:
        try:
            archive = SurveyArchive(args.archive)
        except (NetbaseError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if not len(archive):
            print(f"error: no committed periods in {args.archive}",
                  file=sys.stderr)
            return 1
        mix = build_mix(archive, spec)
    else:
        # No archive to enumerate: static routes only.
        mix = tuple(
            (target, weight)
            for target, weight in (
                ("/v1/healthz", spec.get("healthz", 0.0)),
                ("/v1/metrics", spec.get("metrics", 0.0)),
                ("/v1/periods", spec.get("periods", 1.0)),
            )
            if weight > 0
        )

    try:
        config = LoadConfig(
            concurrency=args.concurrency,
            duration_seconds=args.duration,
            warmup_seconds=args.warmup,
            mix=mix,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.url is not None:
        print(f"loading {args.url} for {args.duration:g}s "
              f"(+{args.warmup:g}s warmup) at concurrency "
              f"{args.concurrency}...", flush=True)
        report = run_load(http_transport(args.url), config)
    else:
        from .serve import ResilienceConfig, SurveyAPI, SurveyServer

        # The ephemeral server runs observed so its /v1/metrics and
        # RED series are live during the run.
        with observed(Observability()):
            api = SurveyAPI(
                archive,
                resilience=ResilienceConfig(
                    max_concurrency=args.max_concurrency,
                ),
            )
            if args.in_process:
                print(f"loading SurveyAPI in-process for "
                      f"{args.duration:g}s (+{args.warmup:g}s warmup) "
                      f"at concurrency {args.concurrency}...",
                      flush=True)
                report = run_load(api_transport(api), config)
            else:
                with SurveyServer(api) as server:
                    print(f"loading {server.url} for "
                          f"{args.duration:g}s (+{args.warmup:g}s "
                          f"warmup) at concurrency "
                          f"{args.concurrency}...", flush=True)
                    report = run_load(
                        http_transport(server.url), config
                    )

    for line in report.summary_lines():
        print(line)
    payload = report.to_dict()
    if args.report:
        Path(args.report).write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote report to {args.report}")
    if args.update_bench:
        upsert_bench_section(args.update_bench, "loadtest", payload)
        print(f"updated loadtest section of {args.update_bench}")
    return 0


def cmd_anomaly(args) -> int:
    return run_observed(args, _run_anomaly)


def _run_anomaly(args) -> int:
    import datetime as dt
    import json
    import math

    from .anomaly import (
        DEFAULT_CONFIDENCE,
        DEFAULT_FORWARDING_THRESHOLD,
        DEFAULT_MIN_GAP_MS,
        DEFAULT_MIN_SAMPLES,
        detect_anomalies,
        merge_references,
        reference_from_payload,
    )
    from .netbase.errors import NetbaseError

    if args.reference_periods and not args.archive:
        print("error: --reference-periods requires --archive",
              file=sys.stderr)
        return 2

    archive = None
    if args.archive:
        try:
            archive = SurveyArchive(args.archive)
        except (NetbaseError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    if args.dataset:
        dataset = load_traceroutes(args.dataset)
        if not len(dataset):
            print(f"error: no traceroutes in {args.dataset}",
                  file=sys.stderr)
            return 1
        last = max(
            r.timestamp
            for results in dataset.results.values()
            for r in results
            if np.isfinite(r.timestamp)
        )
        days = args.days or max(
            1, int(math.ceil((last + 1.0) / SECONDS_PER_DAY))
        )
        period = MeasurementPeriod(
            args.period, dt.datetime(2019, 9, 2), days
        )
    else:
        _world, platform, probes = _single_isp_world(
            args.seed, args.peak_utilization, args.probes,
        )
        period = MeasurementPeriod(
            args.period, dt.datetime(2019, 9, 2), args.days or 3
        )
        dataset = platform.run_period(period, probes)
        print(f"simulated {len(dataset)} traceroutes "
              f"({args.probes} probes, {period.days} days)")

    try:
        grid = TimeGrid(period, args.bin_seconds)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    reference = None
    try:
        if args.reference_periods:
            reference = merge_references([
                reference_from_payload(archive.get_anomalies(name))
                for name in args.reference_periods
            ])
        report = detect_anomalies(
            dataset.results, grid, period_name=args.period,
            confidence=(
                args.confidence if args.confidence is not None
                else DEFAULT_CONFIDENCE
            ),
            min_samples=(
                args.min_samples if args.min_samples is not None
                else DEFAULT_MIN_SAMPLES
            ),
            forwarding_threshold=(
                args.forwarding_threshold
                if args.forwarding_threshold is not None
                else DEFAULT_FORWARDING_THRESHOLD
            ),
            min_gap_ms=(
                args.min_gap if args.min_gap is not None
                else DEFAULT_MIN_GAP_MS
            ),
            reference=reference,
            quality=dataset.quality,
        )
    except (NetbaseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    payload = report.payload
    delay = report.events_of_kind("delay")
    forwarding = report.events_of_kind("forwarding")
    print(f"{payload['links_total']} links, "
          f"{payload['processed']} traceroutes scanned "
          f"(reference: {payload['reference_source']})")
    print(f"{len(delay)} delay + {len(forwarding)} forwarding "
          "anomaly event(s)")
    for event in report.events[:10]:
        if event["kind"] == "delay":
            print(f"  delay      bin {event['bin']:4d} "
                  f"{event['link']}: median "
                  f"{event['median_ms']} ms, gap "
                  f"{event['gap_ms']} ms {event['direction']}")
        else:
            print(f"  forwarding bin {event['bin']:4d} "
                  f"{event['near']} -> {event['dst']}: shift "
                  f"{event['shift']} "
                  f"({event['expected']} -> {event['observed']})")
    if len(report.events) > 10:
        print(f"  ... {len(report.events) - 10} more")

    if args.out:
        Path(args.out).write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote report to {args.out}")
    if archive is not None:
        try:
            archive.ingest_anomalies(args.period, report)
        except (NetbaseError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"committed anomaly report for period "
              f"{args.period!r} to {archive.root}/")
    return 0


def cmd_info(_args) -> int:
    import repro

    print(f"repro {repro.__version__}")
    print("reproduction of 'Persistent Last-mile Congestion: "
          "Not so Uncommon' (IMC 2020)")
    print("subpackages: " + ", ".join(
        name for name in repro.__all__ if name != "__version__"
    ))
    return 0


COMMANDS = {
    "survey": cmd_survey,
    "tokyo": cmd_tokyo,
    "simulate": cmd_simulate,
    "classify": cmd_classify,
    "stream": cmd_stream,
    "inject": cmd_inject,
    "quality": cmd_quality,
    "obs": cmd_obs,
    "store": cmd_store,
    "serve": cmd_serve,
    "loadtest": cmd_loadtest,
    "anomaly": cmd_anomaly,
    "info": cmd_info,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = COMMANDS[args.command](args)
        # Flush here, so a reader that closed early is met inside the
        # try rather than at interpreter exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`repro obs report m.json | head`).
        # As the signal module's notes on SIGPIPE advise: point stdout
        # at devnull so the flush at exit cannot raise again, and exit
        # 1 as Python does on EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
