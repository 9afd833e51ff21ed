"""Cross-process telemetry: snapshot in the worker, merge in the parent.

Shard workers run in separate processes, so their metrics and spans
cannot land in the parent's registry directly.  Instead the worker
runs under its own capturing :class:`~repro.obs.Observability`,
freezes it into a :class:`TelemetrySnapshot` — plain dicts, picklable,
rides back inside the shard result next to the classification output —
and the parent folds the snapshot in:

* metrics merge into the parent registry with *identical* schemas
  (:meth:`~repro.obs.metrics.MetricsRegistry.merge` sums per series),
  so per-stage ``items_in``/``items_out`` totals for a ``--workers N``
  run equal the in-process run's exactly;
* spans are grafted under the parent's ``survey-shard`` marker span
  (their roots tagged with a ``shard`` attribute), so ``repro obs
  report`` renders one coherent tree instead of a trace that goes
  dark at the process boundary.

The trace identity travels the other way: each shard task carries the
parent's :class:`~repro.obs.trace.TraceContext` (trace id + the
dispatching span's id), and the worker's tracer adopts that trace id,
so every span in the run — whichever process recorded it — belongs to
one trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .trace import Span, TraceContext

__all__ = ["TelemetrySnapshot"]


@dataclass
class TelemetrySnapshot:
    """One worker's observed telemetry, in serialized (dict) form."""

    #: Which shard produced this (lands as the ``shard`` attribute on
    #: grafted root spans).
    shard: Optional[int] = None
    #: :meth:`MetricsRegistry.to_dict` form.
    metrics: Dict = field(default_factory=dict)
    #: :meth:`Tracer.to_dict` form — the worker's root spans.
    spans: List[Dict] = field(default_factory=list)
    #: The trace these spans belong to (the parent's, when the task
    #: carried a context; the worker's own otherwise).
    trace_id: Optional[str] = None
    #: The parent-side span the subtree should graft under.
    parent_span_id: Optional[str] = None

    @classmethod
    def capture(
        cls,
        observer,
        shard: Optional[int] = None,
        context: Optional[TraceContext] = None,
    ) -> "TelemetrySnapshot":
        """Freeze a live observer into the portable snapshot form."""
        return cls(
            shard=shard,
            metrics=(
                observer.metrics.to_dict()
                if observer.metrics is not None else {}
            ),
            spans=observer.tracer.to_dict(),
            trace_id=(
                context.trace_id if context is not None
                else getattr(observer.tracer, "trace_id", None)
            ),
            parent_span_id=(
                context.parent_span_id if context is not None else None
            ),
        )

    def merge_into(self, observer, parent_span=None) -> None:
        """Fold this snapshot into a live parent observer.

        Metrics sum into the parent registry; spans become children of
        ``parent_span`` (or new roots when None), each root tagged
        with the shard index.  A no-op under the no-op observer.
        """
        if not getattr(observer, "enabled", False):
            return
        if self.metrics and observer.metrics is not None:
            observer.metrics.merge(self.metrics)
        if not self.spans:
            return
        roots = [Span.from_dict(entry) for entry in self.spans]
        if self.shard is not None:
            for root in roots:
                root.attrs.setdefault("shard", self.shard)
        if parent_span is not None:
            parent_span.children.extend(roots)
        else:
            observer.tracer.roots.extend(roots)
