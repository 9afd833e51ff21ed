"""raclette CLI: stream Atlas-schema JSON lines through the monitor.

Usage::

    python -m repro.raclette results.jsonl [--rib rib.txt]
        [--threshold-ms 1.0] [--min-bins 4] [--summary-top 10]
        [--trace] [--metrics-out PATH] [--log-jsonl PATH]

``results.jsonl`` holds one Atlas traceroute result per line (``-``
reads stdin).  Without ``--rib``, probes are grouped by the ``prb_id``
prefix convention used by the simulator's exports; with a RIB dump
(the :meth:`repro.bgp.RoutingTable.to_text` format) probes are mapped
to ASes by longest-prefix match of their public address, as in the
paper.

The input must be roughly in timestamp order, as the Atlas result
stream is: a bin closes once the stream head is more than two bins
past it, and a result that arrives for a closed bin is dropped and
counted as ``stale-record`` in the summary's ``dropped:`` section.
Lines are read by :func:`repro.io.read_traceroutes`, the reader
``repro quality`` and the batch loader use: a corrupt line or an
unusable record is dropped with its reason code, a garbage RTT
becomes a ``*`` timeout, and the parsed results are fed to the
monitor in runs of :data:`RUN_LINES`.  ``--trace``, ``--metrics-out``
and ``--log-jsonl`` work as on every observed ``repro`` command.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional

from ..bgp import RoutingTable
from ..io import read_traceroutes
from ..netbase import parse_address
from ..obs import add_obs_flags, get_observer, run_observed
from .alerts import PrintSink
from .monitor import STAGE, LastMileMonitor, MonitorConfig

#: Parsed results handed to the monitor per call.
RUN_LINES = 1024


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.raclette",
        description="Streaming last-mile congestion monitor.",
    )
    parser.add_argument(
        "results", help="JSON-lines traceroute results ('-' = stdin)"
    )
    parser.add_argument(
        "--rib", help="RIB dump (prefix|as_path lines) for probe->AS "
        "mapping by longest-prefix match",
    )
    parser.add_argument("--threshold-ms", type=float, default=1.0)
    parser.add_argument("--min-bins", type=int, default=4)
    parser.add_argument(
        "--baseline-bins", type=int, default=336,
        help="rolling baseline window in bins (336 = 1 week)",
    )
    parser.add_argument(
        "--summary-top", type=int, default=10,
        help="ASes to list in the final summary",
    )
    add_obs_flags(parser)
    return parser


def make_asn_resolver(rib_path: Optional[str]):
    """Probe-id -> ASN resolver, RIB-backed when available."""
    table = None
    if rib_path:
        with open(rib_path) as handle:
            table = RoutingTable.from_text(handle.read())
    cache: Dict[int, Optional[int]] = {}
    addresses: Dict[int, str] = {}

    def note_address(prb_id: int, from_address: str) -> None:
        addresses.setdefault(prb_id, from_address)

    def resolve(prb_id: int) -> Optional[int]:
        if prb_id in cache:
            return cache[prb_id]
        if table is None:
            cache[prb_id] = prb_id  # group by probe when no RIB
            return prb_id
        address = addresses.get(prb_id)
        asn = None
        if address:
            try:
                value, version = parse_address(address)
                asn = table.resolve_asn(value, version)
            except ValueError:
                asn = None
        cache[prb_id] = asn
        return asn

    return note_address, resolve


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The monitor binds its metric handles at construction, so the
    # observer has to be live before _run_stream builds it.
    return run_observed(args, _run_stream)


def monitor_stream(args, sink=None) -> LastMileMonitor:
    """Feed the parsed ``results`` file (or stdin) through a monitor
    built from ``args``, flush it, and return it."""
    obs = get_observer()
    note_address, resolve = make_asn_resolver(args.rib)
    monitor = LastMileMonitor(
        asn_of=resolve,
        config=MonitorConfig(
            alert_threshold_ms=args.threshold_ms,
            alert_min_bins=args.min_bins,
            baseline_window_bins=args.baseline_bins,
        ),
        sink=sink,
    )

    handle = sys.stdin if args.results == "-" else open(args.results)
    try:
        with obs.stage_span("monitor-stream", src=args.results) as span:
            run = []
            for result in read_traceroutes(handle, monitor.quality, STAGE):
                note_address(result.prb_id, result.from_address)
                run.append(result)
                if len(run) == RUN_LINES:
                    monitor.ingest_many(run)
                    run = []
            monitor.ingest_many(run)
            monitor.flush()
            # The reader books the lines it drops, the monitor the
            # results it receives: together, every non-blank line.
            lines_read = monitor.quality.stage(STAGE).ingested
            obs.items_in(STAGE, lines_read)
            obs.items_out(STAGE, monitor.results_seen)
            span.set_attr("lines", lines_read)
    finally:
        if handle is not sys.stdin:
            handle.close()
    obs.record_quality(monitor.quality)
    return monitor


def _run_stream(args) -> int:
    monitor = monitor_stream(args, sink=PrintSink())

    print()
    print(monitor.summary())
    ranked = sorted(
        monitor.monitored_asns(),
        key=lambda asn: -max(
            (d for _b, d in monitor.delay_series(asn)), default=0.0
        ),
    )
    for asn in ranked[: args.summary_top]:
        series = monitor.delay_series(asn)
        peak = max(d for _b, d in series)
        print(f"AS{asn}: {len(series)} bins, peak aggregated delay "
              f"{peak:.2f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
