"""Observability report: one JSON artifact per run, rendered on demand.

``--metrics-out PATH`` on the CLIs serializes the active observer —
metrics registry and span tree — into one JSON file;
``repro obs report PATH`` renders it back as text.  Decoupling
collection from rendering keeps runs headless (CI archives the JSON)
while still giving operators a readable tree afterwards.

Every observed command (``repro`` subcommands and
``python -m repro.raclette``) takes the same three flags
(:func:`add_obs_flags`) and runs through one shell
(:func:`run_observed`).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Dict, List, Union

from . import Observability, observed
from .log import StructuredLogger, open_jsonl_sink
from .metrics import MetricsRegistry
from .trace import render_trace, render_trace_dict

#: Report schema version, bumped on incompatible layout changes.
SCHEMA = 1


def build_report(observer) -> Dict:
    """Snapshot an observer into a JSON-serializable report."""
    return {
        "schema": SCHEMA,
        "metrics": (
            observer.metrics.to_dict()
            if observer.metrics is not None else {}
        ),
        "trace": observer.tracer.to_dict(),
    }


def write_report(observer, path: Union[str, Path]) -> Path:
    """Write the observer's report JSON; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(build_report(observer), indent=1) + "\n")
    return path


def load_report(path: Union[str, Path]) -> Dict:
    """Read a report written by :func:`write_report`."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(
            f"not an obs report: expected a JSON object, got "
            f"{type(data).__name__}"
        )
    if data.get("schema") != SCHEMA:
        raise ValueError(
            f"unsupported obs report schema {data.get('schema')!r} "
            f"(expected {SCHEMA})"
        )
    return data


def render_report(data: Dict) -> str:
    """Human-readable rendering: trace tree, then metrics."""
    sections: List[str] = []

    trace = data.get("trace") or []
    sections.append("== trace ==")
    if trace:
        sections.append(render_trace_dict(trace))
    else:
        sections.append("(no spans recorded)")

    metrics = data.get("metrics") or {}
    sections.append("")
    sections.append("== metrics ==")
    if metrics:
        registry = MetricsRegistry.from_dict(metrics)
        sections.extend(registry.summary_lines())
    else:
        sections.append("(no metrics recorded)")
    return "\n".join(sections)


# -- the observed-command shell ------------------------------------------


def add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """``--trace``, ``--metrics-out`` and ``--log-jsonl``."""
    parser.add_argument(
        "--trace", action="store_true",
        help="collect spans and print the trace tree at the end",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the observability report (metrics + trace) as "
        "JSON",
    )
    parser.add_argument(
        "--log-jsonl", default=None, metavar="PATH",
        help="append structured JSONL event logs to PATH",
    )


def make_observer(args):
    """The run's observer and log sink from the obs flags (or Nones)."""
    if not (args.trace or args.metrics_out or args.log_jsonl):
        return None, None
    sink = open_jsonl_sink(args.log_jsonl) if args.log_jsonl else None
    observer = Observability(
        logger=StructuredLogger(sink=sink) if sink else None
    )
    return observer, sink


def finish_observer(args, observer) -> None:
    """Print/persist what the run's observer collected."""
    if args.trace:
        print()
        print("trace:")
        print(render_trace(observer.tracer))
    if args.metrics_out:
        path = write_report(observer, args.metrics_out)
        print(f"wrote observability report to {path}")


def run_observed(args, run) -> int:
    """``run(args)`` under the observer the obs flags ask for, if any,
    then print/persist what it collected and close the log sink."""
    observer, sink = make_observer(args)
    if observer is None:
        return run(args)
    try:
        with observed(observer):
            code = run(args)
        finish_observer(args, observer)
        return code
    finally:
        if sink is not None:
            sink.close()
