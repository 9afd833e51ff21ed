"""Span-based tracing for pipeline runs.

A :class:`Tracer` records a tree of :class:`Span` objects.  Each span
carries wall-clock and CPU time, arbitrary attributes (stage, AS,
period …) and an error marker when the traced block raised.  Spans
nest through a *per-thread* stack — the analysis pipeline is
single-threaded per run, but the serving layer opens spans from the
HTTP server's worker threads, so nesting state must not be shared
(each thread's outermost span becomes its own root).  The finished
tree renders as an indented report with repeated siblings collapsed
(150 per-AS ``aggregate`` spans show as one line with
count/total/max, not 150 lines).

When tracing is off the pipeline goes through :class:`NullTracer`,
whose ``span()`` hands back one shared no-op context manager: the cost
of a disabled span is one method call and a dict build for the
attributes, which is why spans sit at stage/AS granularity and never
inside per-record loops.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "NullTracer",
    "render_trace",
    "render_trace_dict",
]


def _new_id() -> str:
    """A fresh 64-bit hex id (span/trace identity, not security)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """The portable identity of an open span: what a shard task
    carries across the process boundary so the worker's subtree can
    be grafted back under the span that dispatched it.
    """

    trace_id: str
    parent_span_id: Optional[str] = None


class Span:
    """One timed, attributed node of the trace tree."""

    __slots__ = (
        "name", "attrs", "children", "error", "_span_id",
        "_start_wall", "_start_cpu", "wall_seconds", "cpu_seconds",
    )

    def __init__(self, name: str, attrs: Dict):
        self.name = name
        self.attrs = attrs
        self.children: List["Span"] = []
        self.error: Optional[str] = None
        self._span_id: Optional[str] = None
        self._start_wall = 0.0
        self._start_cpu = 0.0
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0

    @property
    def span_id(self) -> str:
        """The span's id, drawn on first read: most spans are never
        exported or propagated, and each draw is a syscall."""
        if self._span_id is None:
            self._span_id = _new_id()
        return self._span_id

    def set_attr(self, key: str, value) -> None:
        """Attach an attribute after the span has started."""
        self.attrs[key] = value

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict:
        out: Dict = {
            "name": self.name,
            "span_id": self.span_id,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.error is not None:
            out["error"] = self.error
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "Span":
        span = cls(data["name"], dict(data.get("attrs", {})))
        span._span_id = data.get("span_id")
        span.wall_seconds = float(data.get("wall_seconds", 0.0))
        span.cpu_seconds = float(data.get("cpu_seconds", 0.0))
        span.error = data.get("error")
        span.children = [
            cls.from_dict(child) for child in data.get("children", [])
        ]
        return span


class _SpanContext:
    """Context manager that opens/closes one span on a tracer.

    It may be entered again after it exits: the span stays where it
    was first attached and each entry adds to its times, so steps
    that interleave in one loop can each read as one span.  Each exit
    hands that entry's wall seconds to ``on_exit``, if given.
    """

    __slots__ = ("_tracer", "_span", "_attached", "_stack", "_on_exit")

    def __init__(
        self,
        tracer: "Tracer",
        span: Span,
        on_exit: Optional[Callable[[float], None]] = None,
    ):
        self._tracer = tracer
        self._span = span
        self._attached = False
        self._on_exit = on_exit

    def __enter__(self) -> Span:
        span = self._span
        # Exit runs on the entering thread, so it pops this same stack.
        stack = self._stack = self._tracer._stack
        if not self._attached:
            self._attached = True
            if stack:
                stack[-1].children.append(span)
            else:
                self._tracer._add_root(span)
        stack.append(span)
        span._start_wall = time.perf_counter()
        span._start_cpu = time.process_time()
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        wall = time.perf_counter() - span._start_wall
        span.wall_seconds += wall
        span.cpu_seconds += time.process_time() - span._start_cpu
        if exc_type is not None:
            span.error = exc_type.__name__
        popped = self._stack.pop()
        assert popped is span, "span stack corrupted"
        if self._on_exit is not None:
            self._on_exit(wall)
        return False  # never swallow


class Tracer:
    """Collects span trees for one run."""

    def __init__(self, trace_id: Optional[str] = None):
        self.roots: List[Span] = []
        self.trace_id = trace_id if trace_id is not None else _new_id()
        self._local = threading.local()
        #: Root-count bound (None: unbounded); see :meth:`keep_recent`.
        self.max_roots: Optional[int] = None
        self._on_drop: Optional[Callable[[int], None]] = None
        self._roots_lock = threading.Lock()

    def keep_recent(
        self,
        max_roots: int,
        on_drop: Optional[Callable[[int], None]] = None,
    ) -> None:
        """From now on keep only the ``max_roots`` most recent roots.

        For long-lived processes whose every request opens a root span.
        Each eviction calls ``on_drop(count)`` under the tracer's lock,
        so a counter fed by it is exact under concurrent threads.
        """
        if max_roots < 1:
            raise ValueError(f"max_roots must be >= 1, got {max_roots}")
        with self._roots_lock:
            self.max_roots = max_roots
            self._on_drop = on_drop
            self._evict()

    def _add_root(self, span: Span) -> None:
        if self.max_roots is None:
            self.roots.append(span)
            return
        with self._roots_lock:
            self.roots.append(span)
            self._evict()

    def _evict(self) -> None:
        """Drop the oldest roots past ``max_roots`` (lock held)."""
        excess = len(self.roots) - self.max_roots
        if excess > 0:
            del self.roots[:excess]
            if self._on_drop is not None:
                self._on_drop(excess)

    @property
    def _stack(self) -> List[Span]:
        # Per-thread nesting: concurrent server threads must not pop
        # each other's spans.
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def enabled(self) -> bool:
        return True

    def span(self, name: str, **attrs) -> _SpanContext:
        """Open a child span of whatever span is currently active."""
        return _SpanContext(self, Span(name, attrs))

    def timed_span(
        self, on_exit: Callable[[float], None], name: str, attrs: Dict
    ) -> _SpanContext:
        """:meth:`span` that also hands its wall seconds to
        ``on_exit`` when it closes (a stage's duration histogram)."""
        return _SpanContext(self, Span(name, attrs), on_exit)

    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def context(self) -> TraceContext:
        """The trace identity a cross-process task should carry."""
        current = self.current()
        return TraceContext(
            trace_id=self.trace_id,
            parent_span_id=(
                current.span_id if current is not None else None
            ),
        )

    def find(self, name: str) -> List[Span]:
        """Every finished span with the given name, depth-first."""
        return [
            span for root in self.roots
            for span in root.walk() if span.name == name
        ]

    def to_dict(self) -> List[Dict]:
        return [root.to_dict() for root in self.roots]

    @classmethod
    def from_dict(cls, data: List[Dict]) -> "Tracer":
        tracer = cls()
        tracer.roots = [Span.from_dict(entry) for entry in data]
        return tracer


class _NullSpanContext:
    """Shared do-nothing span context."""

    __slots__ = ()

    def __enter__(self):
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class _NullSpan:
    """Absorbs attribute writes on the disabled path."""

    __slots__ = ()

    def set_attr(self, key: str, value) -> None:
        pass


class _WallClock:
    """Times a block for ``on_exit`` where no span is recorded."""

    __slots__ = ("_on_exit", "_start")

    def __init__(self, on_exit: Callable[[float], None]):
        self._on_exit = on_exit

    def __enter__(self):
        self._start = time.perf_counter()
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._on_exit(time.perf_counter() - self._start)
        return False


_NULL_CONTEXT = _NullSpanContext()
_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing disabled: every span is the shared no-op context."""

    roots: List[Span] = []
    trace_id = ""

    @property
    def enabled(self) -> bool:
        return False

    def span(self, name: str, **attrs) -> _NullSpanContext:
        return _NULL_CONTEXT

    def timed_span(
        self, on_exit: Callable[[float], None], name: str, attrs: Dict
    ) -> _WallClock:
        return _WallClock(on_exit)

    def current(self) -> None:
        return None

    def context(self) -> None:
        """No live trace — cross-process tasks carry no context."""
        return None

    def find(self, name: str) -> List[Span]:
        return []

    def to_dict(self) -> List[Dict]:
        return []


# -- rendering -----------------------------------------------------------


def _span_label(span: Span) -> str:
    attrs = ""
    if span.attrs:
        inner = ", ".join(
            f"{k}={v}" for k, v in sorted(span.attrs.items())
        )
        attrs = f" [{inner}]"
    error = f" !{span.error}" if span.error else ""
    return f"{span.name}{attrs}{error}"


def _render_children(
    children: List[Span], indent: str, lines: List[str],
    collapse_over: int,
) -> None:
    # Names repeated collapse_over+ times among these siblings (the
    # per-AS fan-out, consecutive or interleaved) collapse into one
    # aggregate line at their first occurrence; everything else keeps
    # its order.
    tally: Dict[str, int] = {}
    for span in children:
        tally[span.name] = tally.get(span.name, 0) + 1
    groups: List[List[Span]] = []
    collapsed: Dict[str, List[Span]] = {}
    for span in children:
        if tally[span.name] >= collapse_over:
            group = collapsed.get(span.name)
            if group is None:
                group = collapsed[span.name] = []
                groups.append(group)
            group.append(span)
        else:
            groups.append([span])
    for group in groups:
        if len(group) >= collapse_over:
            wall = sum(s.wall_seconds for s in group)
            cpu = sum(s.cpu_seconds for s in group)
            slowest = max(group, key=lambda s: s.wall_seconds)
            errors = sum(1 for s in group if s.error)
            line = (
                f"{indent}{group[0].name} ×{len(group)}  "
                f"total {wall:.3f}s wall / {cpu:.3f}s cpu, "
                f"slowest {slowest.wall_seconds:.3f}s"
            )
            if slowest.attrs:
                inner = ", ".join(
                    f"{k}={v}" for k, v in sorted(slowest.attrs.items())
                )
                line += f" [{inner}]"
            if errors:
                line += f", {errors} errored"
            lines.append(line)
            merged: List[Span] = []
            for span in group:
                merged.extend(span.children)
            if merged:
                _render_children(
                    merged, indent + "  ", lines, collapse_over
                )
        else:
            for span in group:
                lines.append(
                    f"{indent}{_span_label(span)}  "
                    f"{span.wall_seconds:.3f}s wall / "
                    f"{span.cpu_seconds:.3f}s cpu"
                )
                _render_children(
                    span.children, indent + "  ", lines, collapse_over
                )


def render_trace(tracer: "Tracer", collapse_over: int = 4) -> str:
    """Indented tree report of a tracer's finished spans.

    Runs of ``collapse_over``-or-more same-named siblings are collapsed
    into one count/total/slowest line (their children are merged and
    rendered the same way), keeping survey traces readable at any AS
    count.
    """
    lines: List[str] = []
    _render_children(tracer.roots, "", lines, collapse_over)
    return "\n".join(lines) if lines else "(no spans recorded)"


def render_trace_dict(data: List[Dict], collapse_over: int = 4) -> str:
    """Render a serialized (:meth:`Tracer.to_dict`) trace tree."""
    return render_trace(Tracer.from_dict(data), collapse_over)
