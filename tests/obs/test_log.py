"""Tests for the structured JSONL logger."""

import io
import json
import threading
import time

import pytest

from repro.obs.log import StructuredLogger, open_jsonl_sink, read_jsonl


class TestStructuredLogger:
    def test_no_sink_is_silent_noop(self):
        logger = StructuredLogger()
        logger.info("event", value=1)  # must not raise

    def test_emits_one_json_line_per_event(self):
        sink = io.StringIO()
        logger = StructuredLogger(sink=sink, clock=lambda: 123.456)
        logger.info("period-start", ases=151)
        records = read_jsonl(sink)
        assert records == [{
            "ts": 123.456,
            "level": "info",
            "event": "period-start",
            "ases": 151,
        }]

    def test_bind_adds_context_without_mutating_parent(self):
        sink = io.StringIO()
        logger = StructuredLogger(sink=sink, clock=lambda: 0.0)
        child = logger.bind(stage="core-survey", period="2019-09")
        child.info("start")
        logger.info("bare")
        first, second = read_jsonl(sink)
        assert first["stage"] == "core-survey"
        assert first["period"] == "2019-09"
        assert "stage" not in second

    def test_call_fields_override_bound_context(self):
        sink = io.StringIO()
        logger = StructuredLogger(sink=sink, clock=lambda: 0.0)
        logger.bind(asn=1).info("x", asn=2)
        assert read_jsonl(sink)[0]["asn"] == 2

    def test_level_filtering(self):
        sink = io.StringIO()
        logger = StructuredLogger(
            sink=sink, level="warning", clock=lambda: 0.0
        )
        logger.debug("d")
        logger.info("i")
        logger.warning("w")
        logger.error("e")
        events = [r["event"] for r in read_jsonl(sink)]
        assert events == ["w", "e"]

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            StructuredLogger(level="verbose")

    def test_non_json_values_fall_back_to_str(self):
        sink = io.StringIO()
        logger = StructuredLogger(sink=sink, clock=lambda: 0.0)
        logger.info("x", path=object())
        assert "object" in read_jsonl(sink)[0]["path"]


class TestConcurrentWriters:
    THREADS = 8
    PER_THREAD = 200

    def test_threads_never_interleave_lines(self, tmp_path):
        """Bound children of one logger, each on its own thread, write
        to one file: every line parses and none is lost."""
        path = tmp_path / "events.jsonl"
        sink = open_jsonl_sink(path)
        logger = StructuredLogger(sink=sink)
        barrier = threading.Barrier(self.THREADS)
        filler = "x" * 9000  # past the file's buffer size

        def worker(index):
            log = logger.bind(thread=index)
            barrier.wait()
            for seq in range(self.PER_THREAD):
                log.info("tick", seq=seq, filler=filler)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        sink.close()

        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert len(records) == self.THREADS * self.PER_THREAD
        for index in range(self.THREADS):
            assert [r["seq"] for r in records if r["thread"] == index] \
                == list(range(self.PER_THREAD))

    def test_lock_keeps_a_record_whole_on_any_sink(self):
        """A sink that writes in pieces, yielding between them, still
        receives each record as one uninterrupted write."""

        class PiecewiseSink:
            def __init__(self):
                self.pieces = []

            def write(self, text):
                half = len(text) // 2
                self.pieces.append(text[:half])
                time.sleep(0)  # let another thread run mid-record
                self.pieces.append(text[half:])

        sink = PiecewiseSink()
        logger = StructuredLogger(sink=sink)
        barrier = threading.Barrier(self.THREADS)

        def worker(index):
            log = logger.bind(thread=index)
            barrier.wait()
            for seq in range(self.PER_THREAD):
                log.info("tick", seq=seq)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = read_jsonl("".join(sink.pieces))
        assert len(records) == self.THREADS * self.PER_THREAD
