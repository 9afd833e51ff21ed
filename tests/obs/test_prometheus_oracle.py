"""``to_prometheus`` output is byte-identical to the per-line renderer.

The registry renders each histogram series' label block once per
scrape.  The renderer below is the earlier one, kept verbatim as the
oracle: it escaped the labels again on every bucket line.  Both must
print the same bytes for every instrument kind, with and without
labels, and for label values that need escaping.
"""

from typing import List

import pytest

from repro.obs import MetricsRegistry
from repro.obs.metrics import Histogram, _escape, _escape_help, _fmt_float

from .test_prometheus_roundtrip import HOSTILE_VALUES


def _oracle_fmt_labels(key, **extra: str) -> str:
    pairs = list(key) + sorted(extra.items())
    if not pairs:
        return ""
    inner = ",".join(
        f'{name}="{_escape(str(value))}"' for name, value in pairs
    )
    return "{" + inner + "}"


def oracle_to_prometheus(self) -> str:
    """Prometheus text exposition format (version 0.0.4)."""
    _fmt_labels = _oracle_fmt_labels
    lines: List[str] = []
    for name in self.names():
        instrument = self._instruments[name]
        if instrument.help:
            lines.append(
                f"# HELP {name} {_escape_help(instrument.help)}"
            )
        lines.append(f"# TYPE {name} {instrument.kind}")
        if isinstance(instrument, Histogram):
            for key, series in instrument.samples():
                cumulative = 0
                for bound, count in zip(
                    instrument.buckets, series.bucket_counts
                ):
                    cumulative += count
                    lines.append(
                        f"{name}_bucket"
                        f"{_fmt_labels(key, le=_fmt_float(bound))}"
                        f" {cumulative}"
                    )
                cumulative += series.bucket_counts[-1]
                lines.append(
                    f'{name}_bucket{_fmt_labels(key, le="+Inf")}'
                    f" {cumulative}"
                )
                lines.append(
                    f"{name}_sum{_fmt_labels(key)}"
                    f" {_fmt_float(series.total)}"
                )
                lines.append(
                    f"{name}_count{_fmt_labels(key)} {series.count}"
                )
        else:
            for key, value in instrument.samples():
                lines.append(
                    f"{name}{_fmt_labels(key)} {_fmt_float(value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def populated() -> MetricsRegistry:
    registry = MetricsRegistry()
    plain = registry.histogram("plain_seconds", "no labels")
    for value in (0.0004, 0.02, 0.7, 400.0):
        plain.observe(value)
    timed = registry.histogram(
        "route_seconds", 'help with \\ and "quotes"\nand a newline',
        ("route", "status"), buckets=(0.0001, 0.25, 1.5, 1e3),
    )
    hits = registry.counter("hits_total", "hits", ("path",))
    level = registry.gauge("level", "", ("path",))
    for i, value in enumerate(HOSTILE_VALUES):
        timed.observe(i / 7, route=value, status=str(200 + i))
        timed.observe(i * 3.5, route=value, status=str(200 + i))
        hits.inc(i + 1, path=value)
        level.set(-i / 3, path=value)
    registry.counter("bare_total").inc(5)
    registry.histogram("empty_seconds", "never observed", ("route",))
    return registry


@pytest.mark.parametrize("registry", [
    MetricsRegistry(), populated(),
], ids=["empty", "populated"])
def test_render_matches_oracle(registry):
    assert registry.to_prometheus() == oracle_to_prometheus(registry)


def test_oracle_covers_escaped_histogram_labels():
    text = oracle_to_prometheus(populated())
    assert 'route_seconds_bucket{route="new\\nline",status="203",le="0.25"}' \
        in text
    assert 'route_seconds_bucket{route="quo\\"te",status="202",le="+Inf"}' \
        in text
    assert 'plain_seconds_bucket{le="0.001"} 1' in text
