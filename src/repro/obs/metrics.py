"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry is the pipeline's numeric telemetry store.  Design
constraints, in order:

* **cheap in hot loops** — one instrument handle resolved outside the
  loop increments with a single dict operation; no locks, no string
  formatting, no timestamping on the write path;
* **labelled** — every instrument carries a fixed label schema (e.g.
  ``("stage",)``) and each label combination is an independent series,
  Prometheus-style;
* **exportable** — the whole registry renders as JSON
  (:meth:`MetricsRegistry.to_dict`) and as the Prometheus text
  exposition format (:meth:`MetricsRegistry.to_prometheus`), and loads
  back from the JSON form for offline report rendering.

Like :mod:`repro.quality`, the module is stdlib-only so every layer
can use it without import cycles.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram buckets, in seconds: spans stage durations from
#: sub-millisecond trie lookups to multi-minute survey periods.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0,
    60.0, 300.0,
)


def _label_key(
    label_names: Sequence[str], labels: Dict[str, str]
) -> LabelKey:
    if len(labels) == len(label_names):
        try:
            return tuple([(name, str(labels[name])) for name in label_names])
        except KeyError:
            pass
    raise ValueError(
        f"expected labels {sorted(label_names)}, got {sorted(labels)}"
    )


class _Instrument:
    """Shared naming/labelling machinery of one named instrument."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str]):
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)

    def _key(self, labels: Dict[str, str]) -> LabelKey:
        if not labels and not self.label_names:
            return ()
        return _label_key(self.label_names, labels)


class Counter(_Instrument):
    """Monotonically increasing count, one series per label set."""

    kind = "counter"

    def __init__(self, name, help, label_names=()):
        super().__init__(name, help, label_names)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, n: float = 1, **labels: str) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + n

    def labels(self, **labels: str) -> "BoundCounter":
        """Pre-resolve a label set for hot loops (one dict op per inc)."""
        return BoundCounter(self._values, self._key(labels))

    def value(self, **labels: str) -> float:
        return self._values.get(self._key(labels), 0)

    def samples(self) -> Iterator[Tuple[LabelKey, float]]:
        yield from sorted(self._values.items())


class BoundCounter:
    """A counter bound to one label set — the hot-loop handle."""

    __slots__ = ("_values", "_key")

    def __init__(self, values: Dict[LabelKey, float], key: LabelKey):
        self._values = values
        self._key = key
        values.setdefault(key, 0)

    def inc(self, n: float = 1) -> None:
        self._values[self._key] += n


class Gauge(_Instrument):
    """Point-in-time value that can go up and down."""

    kind = "gauge"

    def __init__(self, name, help, label_names=()):
        super().__init__(name, help, label_names)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        self._values[self._key(labels)] = value

    def add(self, n: float = 1, **labels: str) -> None:
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + n

    def value(self, **labels: str) -> float:
        return self._values.get(self._key(labels), 0)

    def samples(self) -> Iterator[Tuple[LabelKey, float]]:
        yield from sorted(self._values.items())


class _HistogramSeries:
    """One label set's bucket counts + running sum/count."""

    __slots__ = ("bucket_counts", "total", "count", "minimum", "maximum")

    def __init__(self, num_buckets: int):
        self.bucket_counts = [0] * (num_buckets + 1)  # +1 = +Inf
        self.total = 0.0
        self.count = 0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float, buckets: Tuple[float, ...]) -> None:
        index = len(buckets)  # +Inf slot
        for i, bound in enumerate(buckets):
            if value <= bound:
                index = i
                break
        self.bucket_counts[index] += 1
        self.total += value
        self.count += 1
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)


class Histogram(_Instrument):
    """Fixed-bucket histogram (cumulative buckets, Prometheus-style)."""

    kind = "histogram"

    def __init__(self, name, help, label_names=(),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help, label_names)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("need at least one bucket bound")
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def _get(self, key: LabelKey) -> _HistogramSeries:
        series = self._series.get(key)
        if series is None:
            series = _HistogramSeries(len(self.buckets))
            self._series[key] = series
        return series

    def observe(self, value: float, **labels: str) -> None:
        self._get(self._key(labels)).observe(value, self.buckets)

    def labels(self, **labels: str) -> "BoundHistogram":
        """Pre-resolve a label set for hot loops."""
        return BoundHistogram(self._get(self._key(labels)), self.buckets)

    def count(self, **labels: str) -> int:
        series = self._series.get(self._key(labels))
        return series.count if series else 0

    def sum(self, **labels: str) -> float:
        series = self._series.get(self._key(labels))
        return series.total if series else 0.0

    def samples(self) -> Iterator[Tuple[LabelKey, _HistogramSeries]]:
        yield from sorted(self._series.items())


class BoundHistogram:
    """A histogram bound to one label set — the hot-loop handle."""

    __slots__ = ("_series", "_buckets")

    def __init__(self, series: _HistogramSeries,
                 buckets: Tuple[float, ...]):
        self._series = series
        self._buckets = buckets

    def observe(self, value: float) -> None:
        self._series.observe(value, self._buckets)


class MetricsRegistry:
    """Named instruments, get-or-create, with JSON/Prometheus export.

    Re-requesting a name returns the existing instrument; a kind or
    label-schema mismatch on re-request is a programming error and
    raises.
    """

    def __init__(self):
        self._instruments: Dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name, help, label_names, **kwargs):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"{name!r} already registered as {existing.kind}"
                )
            if existing.label_names != tuple(label_names):
                raise ValueError(
                    f"{name!r} label schema mismatch: "
                    f"{existing.label_names} vs {tuple(label_names)}"
                )
            return existing
        instrument = cls(name, help, label_names, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "",
                label_names: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, label_names)

    def gauge(self, name: str, help: str = "",
              label_names: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, label_names)

    def histogram(self, name: str, help: str = "",
                  label_names: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, label_names, buckets=buckets
        )

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    # -- export --------------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-serializable snapshot of every series."""
        out: Dict = {}
        for name in self.names():
            instrument = self._instruments[name]
            entry: Dict = {
                "type": instrument.kind,
                "help": instrument.help,
                "labels": list(instrument.label_names),
            }
            if isinstance(instrument, Histogram):
                entry["buckets"] = list(instrument.buckets)
                entry["samples"] = [
                    {
                        "labels": dict(key),
                        "bucket_counts": list(series.bucket_counts),
                        "sum": series.total,
                        "count": series.count,
                        "min": (
                            series.minimum if series.count else None
                        ),
                        "max": (
                            series.maximum if series.count else None
                        ),
                    }
                    for key, series in instrument.samples()
                ]
            else:
                entry["samples"] = [
                    {"labels": dict(key), "value": value}
                    for key, value in instrument.samples()
                ]
            out[name] = entry
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output."""
        registry = cls()
        for name, entry in data.items():
            label_names = tuple(entry.get("labels", ()))
            kind = entry["type"]
            if kind == "counter":
                counter = registry.counter(
                    name, entry.get("help", ""), label_names
                )
                for sample in entry["samples"]:
                    counter.inc(sample["value"], **sample["labels"])
            elif kind == "gauge":
                gauge = registry.gauge(
                    name, entry.get("help", ""), label_names
                )
                for sample in entry["samples"]:
                    gauge.set(sample["value"], **sample["labels"])
            elif kind == "histogram":
                histogram = registry.histogram(
                    name, entry.get("help", ""), label_names,
                    buckets=entry["buckets"],
                )
                for sample in entry["samples"]:
                    key = histogram._key(sample["labels"])
                    series = histogram._get(key)
                    series.bucket_counts = list(sample["bucket_counts"])
                    series.total = sample["sum"]
                    series.count = sample["count"]
                    series.minimum = (
                        sample["min"] if sample["min"] is not None
                        else float("inf")
                    )
                    series.maximum = (
                        sample["max"] if sample["max"] is not None
                        else float("-inf")
                    )
            else:
                raise ValueError(f"unknown instrument type {kind!r}")
        return registry

    def merge(self, other: Union["MetricsRegistry", Dict]) -> None:
        """Fold another registry's series into this one.

        ``other`` is a live registry or its :meth:`to_dict` snapshot —
        the cross-process form a shard worker ships back to the
        parent.  Sources are assumed disjoint (each shard observed its
        own slice of the work), so every sample *adds*: counters and
        gauges sum per label set, histogram series sum bucket counts
        and totals and fold min/max.  Instruments missing here are
        created with the incoming schema; a kind, label-schema or
        bucket mismatch on an existing name raises, same as
        re-registration would.
        """
        data = other.to_dict() if isinstance(other, MetricsRegistry) \
            else other
        for name, entry in data.items():
            kind = entry["type"]
            label_names = tuple(entry.get("labels", ()))
            help_text = entry.get("help", "")
            if kind == "counter":
                counter = self.counter(name, help_text, label_names)
                for sample in entry["samples"]:
                    counter.inc(sample["value"], **sample["labels"])
            elif kind == "gauge":
                gauge = self.gauge(name, help_text, label_names)
                for sample in entry["samples"]:
                    gauge.add(sample["value"], **sample["labels"])
            elif kind == "histogram":
                histogram = self.histogram(
                    name, help_text, label_names,
                    buckets=entry["buckets"],
                )
                if list(histogram.buckets) != sorted(entry["buckets"]):
                    raise ValueError(
                        f"{name!r} bucket mismatch: "
                        f"{histogram.buckets} vs {entry['buckets']}"
                    )
                for sample in entry["samples"]:
                    series = histogram._get(
                        histogram._key(sample["labels"])
                    )
                    for i, count in enumerate(sample["bucket_counts"]):
                        series.bucket_counts[i] += count
                    series.total += sample["sum"]
                    series.count += sample["count"]
                    if sample["min"] is not None:
                        series.minimum = min(
                            series.minimum, sample["min"]
                        )
                    if sample["max"] is not None:
                        series.maximum = max(
                            series.maximum, sample["max"]
                        )
            else:
                raise ValueError(f"unknown instrument type {kind!r}")

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name in self.names():
            instrument = self._instruments[name]
            if instrument.help:
                lines.append(
                    f"# HELP {name} {_escape_help(instrument.help)}"
                )
            lines.append(f"# TYPE {name} {instrument.kind}")
            if isinstance(instrument, Histogram):
                # Each series' label block is escaped once, not once
                # per bucket line; ``le`` always comes last.
                bounds = [
                    f'le="{_fmt_float(bound)}"}} '
                    for bound in instrument.buckets
                ] + ['le="+Inf"} ']
                for key, series in instrument.samples():
                    block = _fmt_labels(key)
                    bucket = f"{name}_bucket{block[:-1]}," if block \
                        else f"{name}_bucket{{"
                    cumulative = 0
                    for le, count in zip(bounds, series.bucket_counts):
                        cumulative += count
                        lines.append(f"{bucket}{le}{cumulative}")
                    lines.append(
                        f"{name}_sum{block} {_fmt_float(series.total)}"
                    )
                    lines.append(f"{name}_count{block} {series.count}")
            else:
                for key, value in instrument.samples():
                    lines.append(
                        f"{name}{_fmt_labels(key)} {_fmt_float(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def summary_lines(self) -> List[str]:
        """Human-readable one-line-per-series rendering."""
        lines: List[str] = []
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                for key, series in instrument.samples():
                    if not series.count:
                        continue
                    mean = series.total / series.count
                    p50 = estimate_quantile(
                        instrument.buckets, series.bucket_counts, 0.50
                    )
                    p99 = estimate_quantile(
                        instrument.buckets, series.bucket_counts, 0.99
                    )
                    lines.append(
                        f"{name}{_fmt_labels(key)}: "
                        f"count={series.count} "
                        f"mean={mean:.6g} min={series.minimum:.6g} "
                        f"max={series.maximum:.6g} "
                        f"p50~{p50:.6g} p99~{p99:.6g}"
                    )
            else:
                for key, value in instrument.samples():
                    lines.append(
                        f"{name}{_fmt_labels(key)} = {_fmt_float(value)}"
                    )
        return lines


def estimate_quantile(
    bounds: Sequence[float], bucket_counts: Sequence[int], q: float
) -> Optional[float]:
    """Estimate the ``q``-quantile from fixed-bucket histogram counts.

    ``bucket_counts`` has one slot per bound plus the trailing +Inf
    slot (the :class:`Histogram` layout, non-cumulative).  Linear
    interpolation inside the winning bucket, Prometheus
    ``histogram_quantile`` style: the first bucket interpolates from
    zero, and a quantile landing in the +Inf bucket reports the
    largest finite bound (the estimate saturates rather than invents
    a value).  Returns None for an empty series.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(bucket_counts)
    if total == 0:
        return None
    rank = q * total
    cumulative = 0
    for i, bound in enumerate(bounds):
        in_bucket = bucket_counts[i]
        if cumulative + in_bucket >= rank:
            lower = bounds[i - 1] if i else 0.0
            if in_bucket == 0:
                return bound
            fraction = (rank - cumulative) / in_bucket
            return lower + (bound - lower) * fraction
        cumulative += in_bucket
    return float(bounds[-1])


def diff_counters(before: Dict, after: Dict) -> List[str]:
    """Counter deltas between two :meth:`~MetricsRegistry.to_dict`
    snapshots, one ``name{labels} +delta`` line per changed series.

    Series present only in ``after`` count from zero; series that
    vanished (a fresh process, a reset) are reported as ``(gone)``.
    Gauges and histograms are skipped — deltas only mean something for
    monotonic series.
    """
    lines: List[str] = []
    for name in sorted(set(before) | set(after)):
        b_entry = before.get(name, {})
        a_entry = after.get(name, {})
        if "counter" not in (b_entry.get("type"), a_entry.get("type")):
            continue

        def series_map(entry: Dict) -> Dict[LabelKey, float]:
            return {
                tuple(sorted(s["labels"].items())): s["value"]
                for s in entry.get("samples", ())
            }

        b_samples = series_map(b_entry)
        a_samples = series_map(a_entry)
        for key in sorted(set(b_samples) | set(a_samples)):
            label_text = _fmt_labels(key)
            if key not in a_samples:
                lines.append(f"{name}{label_text} (gone, "
                             f"was {_fmt_float(b_samples[key])})")
                continue
            delta = a_samples[key] - b_samples.get(key, 0)
            if delta:
                lines.append(
                    f"{name}{label_text} {delta:+g} "
                    f"(now {_fmt_float(a_samples[key])})"
                )
    return lines


def parse_prometheus(text: str) -> Dict:
    """Parse exposition-format text back into the :meth:`to_dict` shape.

    The inverse of :meth:`MetricsRegistry.to_prometheus` for counters
    and gauges (histograms come back as their exploded ``_bucket`` /
    ``_sum`` / ``_count`` counter series — lossless as scrape data,
    not re-foldable into bucket objects).  Handles the full label
    escaping rules (``\\\\``, ``\\"``, ``\\n``) so a hostile label
    value survives the text round trip bit-exactly; used by the
    escaping tests and the loadtest scrape check.
    """
    out: Dict = {}

    def entry(name: str) -> Dict:
        return out.setdefault(
            name, {"type": "untyped", "help": "", "labels": [],
                   "samples": []},
        )

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            entry(name)["help"] = _unescape_help(help_text)
            continue
        if line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            entry(name)["type"] = kind.strip()
            continue
        if line.startswith("#"):
            continue
        name, labels, value = _parse_sample(line)
        base = out.get(name)
        if base is None:
            base = entry(name)
        base["labels"] = sorted(set(base["labels"]) | set(labels))
        base["samples"].append({"labels": labels, "value": value})
    return out


def _parse_sample(line: str) -> Tuple[str, Dict[str, str], float]:
    """One sample line: ``name{label="value",...} 1.5``."""
    brace = line.find("{")
    if brace < 0:
        name, _, value = line.partition(" ")
        return name.strip(), {}, float(value)
    name = line[:brace]
    end = _find_label_end(line, brace)
    labels = _parse_labels(line[brace + 1:end])
    return name, labels, float(line[end + 1:].strip())


def _find_label_end(line: str, brace: int) -> int:
    in_quotes = False
    i = brace + 1
    while i < len(line):
        ch = line[i]
        if in_quotes:
            if ch == "\\":
                i += 1  # skip the escaped character
            elif ch == '"':
                in_quotes = False
        elif ch == '"':
            in_quotes = True
        elif ch == "}":
            return i
        i += 1
    raise ValueError(f"unterminated label set: {line!r}")


def _parse_labels(body: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        name = body[i:eq].strip()
        if body[eq + 1] != '"':
            raise ValueError(f"unquoted label value in {body!r}")
        value_chars: List[str] = []
        j = eq + 2
        while body[j] != '"':
            if body[j] == "\\":
                value_chars.append(
                    {"\\": "\\", '"': '"', "n": "\n"}[body[j + 1]]
                )
                j += 2
            else:
                value_chars.append(body[j])
                j += 1
        labels[name] = "".join(value_chars)
        i = j + 1
        if i < len(body) and body[i] == ",":
            i += 1
    return labels


def _fmt_float(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape(value: str) -> str:
    """Escape a label value per the exposition format: backslash,
    double-quote and newline, backslash first so the others never
    double-escape."""
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _escape_help(value: str) -> str:
    """HELP text escapes backslash and newline (but not quotes)."""
    return value.replace("\\", r"\\").replace("\n", r"\n")


def _unescape_help(value: str) -> str:
    # Left-to-right scan: replace() chains would mis-read "\\n"
    # (escaped backslash then literal n) as an escaped newline.
    out: List[str] = []
    i = 0
    while i < len(value):
        if value[i] == "\\" and i + 1 < len(value):
            follower = value[i + 1]
            if follower in ("n", "\\"):
                out.append("\n" if follower == "n" else "\\")
                i += 2
                continue
        out.append(value[i])
        i += 1
    return "".join(out)


def _fmt_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(
        f'{name}="{_escape(str(value))}"' for name, value in key
    )
    return "{" + inner + "}"
