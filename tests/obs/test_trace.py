"""Tests for span-based tracing."""

import pytest

from repro.obs.trace import (
    NullTracer,
    Span,
    Tracer,
    render_trace,
    render_trace_dict,
)


class TestTracer:
    def test_single_span_records_timing(self):
        tracer = Tracer()
        with tracer.span("load", path="x.jsonl") as span:
            pass
        assert tracer.roots == [span]
        assert span.name == "load"
        assert span.attrs == {"path": "x.jsonl"}
        assert span.wall_seconds >= 0.0
        assert span.error is None

    def test_spans_nest(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner-a"):
                pass
            with tracer.span("inner-b"):
                pass
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert [c.name for c in outer.children] == [
            "inner-a", "inner-b",
        ]

    def test_current_tracks_innermost_open_span(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
        assert tracer.current() is None

    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        outer = tracer.roots[0]
        assert outer.error == "RuntimeError"
        assert outer.children[0].error == "RuntimeError"
        # The stack unwound cleanly: new spans become roots again.
        with tracer.span("after"):
            pass
        assert [r.name for r in tracer.roots] == ["outer", "after"]

    def test_reentered_context_accumulates_one_span(self):
        tracer = Tracer()
        with tracer.span("window"):
            ingest, close = tracer.span("ingest"), tracer.span("close")
            for _ in range(3):
                with ingest as first:
                    pass
                with close:
                    pass
        (window,) = tracer.roots
        assert [c.name for c in window.children] == ["ingest", "close"]
        assert window.children[0] is first
        walls = [c.wall_seconds for c in window.children]
        assert 0.0 < sum(walls) <= window.wall_seconds

    def test_set_attr_after_start(self):
        tracer = Tracer()
        with tracer.span("stage") as span:
            span.set_attr("items", 42)
        assert span.attrs["items"] == 42

    def test_find_walks_all_roots(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("x"):
                pass
        with tracer.span("x"):
            pass
        assert len(tracer.find("x")) == 2

    def test_dict_round_trip(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer", period="2019-09"):
                with tracer.span("inner"):
                    raise ValueError("x")
        rebuilt = Tracer.from_dict(tracer.to_dict())
        assert rebuilt.to_dict() == tracer.to_dict()
        assert rebuilt.roots[0].attrs == {"period": "2019-09"}
        assert rebuilt.roots[0].children[0].error == "ValueError"


class TestBoundedRoots:
    def test_unbounded_by_default(self):
        tracer = Tracer()
        for i in range(50):
            with tracer.span(f"r{i}"):
                pass
        assert tracer.max_roots is None
        assert len(tracer.roots) == 50

    def test_ring_keeps_most_recent_and_counts_drops(self):
        tracer = Tracer()
        drops = []
        tracer.keep_recent(4, on_drop=drops.append)
        for i in range(10):
            with tracer.span(f"r{i}"):
                with tracer.span("child"):
                    pass
        assert [r.name for r in tracer.roots] == ["r6", "r7", "r8", "r9"]
        assert sum(drops) == 6
        # Children never count against the ring.
        assert all(len(r.children) == 1 for r in tracer.roots)

    def test_existing_roots_trimmed(self):
        tracer = Tracer()
        for i in range(5):
            with tracer.span(f"r{i}"):
                pass
        drops = []
        tracer.keep_recent(2, on_drop=drops.append)
        assert [r.name for r in tracer.roots] == ["r3", "r4"]
        assert drops == [3]

    def test_exact_under_threads(self):
        import sys
        import threading

        tracer = Tracer()
        dropped = [0]

        def count(n):
            dropped[0] += n  # the tracer calls this under its lock

        tracer.keep_recent(16, on_drop=count)
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for _ in range(500):
                with tracer.span("req"):
                    pass

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(tracer.roots) == 16
        assert dropped[0] == 8 * 500 - 16

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            Tracer().keep_recent(0)


class TestNullTracer:
    def test_span_is_shared_noop(self):
        tracer = NullTracer()
        first = tracer.span("a", asn=1)
        second = tracer.span("b")
        assert first is second
        with first as span:
            span.set_attr("ignored", 1)  # absorbed silently
        assert tracer.roots == []
        assert tracer.to_dict() == []
        assert not tracer.enabled

    def test_exceptions_still_propagate(self):
        tracer = NullTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("x"):
                raise RuntimeError("boom")


def _span(name, wall=0.0, children=(), **attrs):
    span = Span(name, attrs)
    span.wall_seconds = wall
    span.children = list(children)
    return span


class TestRenderTrace:
    def test_empty_tracer(self):
        assert render_trace(Tracer()) == "(no spans recorded)"

    def test_simple_tree_indents_children(self):
        tracer = Tracer()
        with tracer.span("survey-period"):
            with tracer.span("load"):
                pass
        text = render_trace(tracer)
        lines = text.splitlines()
        assert lines[0].startswith("survey-period")
        assert lines[1].startswith("  load")

    def test_repeated_siblings_collapse(self):
        tracer = Tracer()
        with tracer.span("classify-dataset"):
            for asn in range(10):
                with tracer.span("classify", asn=asn):
                    pass
        text = render_trace(tracer, collapse_over=4)
        assert "classify ×10" in text
        assert text.count("classify") == 2  # parent + collapsed line

    def test_interleaved_siblings_collapse_by_name(self):
        # aggregate/spectral alternate under the per-AS fan-out; they
        # must still collapse even though no consecutive run forms.
        tracer = Tracer()
        with tracer.span("parent"):
            for _ in range(5):
                with tracer.span("aggregate"):
                    pass
                with tracer.span("spectral"):
                    pass
        text = render_trace(tracer, collapse_over=4)
        assert "aggregate ×5" in text
        assert "spectral ×5" in text

    def test_small_groups_render_individually(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("a"):
                pass
            with tracer.span("a"):
                pass
        text = render_trace(tracer, collapse_over=4)
        assert "×" not in text

    def test_collapsed_line_reports_errors(self):
        tracer = Tracer()
        with tracer.span("parent"):
            for index in range(6):
                try:
                    with tracer.span("work", index=index):
                        if index == 3:
                            raise RuntimeError("x")
                except RuntimeError:
                    pass
        text = render_trace(tracer, collapse_over=4)
        assert "work ×6" in text
        assert "1 errored" in text

    def test_render_trace_dict_round_trip(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert render_trace_dict(tracer.to_dict()) == (
            render_trace(tracer)
        )
