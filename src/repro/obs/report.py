"""Observability report: one JSON artifact per run, rendered on demand.

``--metrics-out PATH`` on the CLIs serializes the active observer —
metrics registry and span tree — into one JSON file;
``repro obs report PATH`` renders it back as text.  Decoupling
collection from rendering keeps runs headless (CI archives the JSON)
while still giving operators a readable tree afterwards.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from .metrics import MetricsRegistry
from .trace import render_trace_dict

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
