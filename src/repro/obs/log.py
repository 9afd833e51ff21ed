"""Structured logging with a JSONL emitter.

Pipeline events are emitted as one JSON object per line — machine
greppable (``jq 'select(.stage=="core-survey")'``) and safe to tail
while a survey runs.  A :class:`StructuredLogger` carries *bound
context* (stage, AS, period …) so call sites log the event name plus
whatever is local, and the context rides along:

    log = logger.bind(stage="core-survey", period="2019-09")
    log.info("period-start", ases=151)
    # {"ts": ..., "level": "info", "event": "period-start",
    #  "stage": "core-survey", "period": "2019-09", "ases": 151}

With no sink configured every call is a cheap no-op (one level check),
so instrumented code never guards its log statements.
"""

from __future__ import annotations

import io
import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, TextIO, Union

__all__ = ["LEVELS", "StructuredLogger", "open_jsonl_sink"]

LEVELS = ("debug", "info", "warning", "error")
_LEVEL_NUM = {name: index for index, name in enumerate(LEVELS)}


class StructuredLogger:
    """JSONL logger with bound context fields.

    ``sink`` is any object with ``write(str)`` (an open file, an
    ``io.StringIO``, ``sys.stderr``); None disables emission entirely.
    ``bind`` returns a child logger sharing the sink but extending the
    context — binding never mutates the parent.

    A logger and all of its ``bind`` children share one lock, and each
    record is one ``write`` call under it, so records that threads
    emit concurrently (the server's handler threads) never interleave.
    """

    __slots__ = ("sink", "context", "_min_level", "_clock", "_lock")

    def __init__(
        self,
        sink: Optional[TextIO] = None,
        level: str = "info",
        context: Optional[Dict] = None,
        clock=time.time,
    ):
        if level not in _LEVEL_NUM:
            raise ValueError(f"unknown level {level!r}")
        self.sink = sink
        self.context = dict(context or {})
        self._min_level = _LEVEL_NUM[level]
        self._clock = clock
        self._lock = threading.Lock()

    @property
    def level(self) -> str:
        return LEVELS[self._min_level]

    def bind(self, **fields) -> "StructuredLogger":
        """Child logger with extra context fields."""
        merged = dict(self.context)
        merged.update(fields)
        child = StructuredLogger(
            sink=self.sink, level=self.level, context=merged,
            clock=self._clock,
        )
        child._lock = self._lock
        return child

    def _emit(self, level_num: int, event: str, fields: Dict) -> None:
        if self.sink is None or level_num < self._min_level:
            return
        record = {
            "ts": round(self._clock(), 3),
            "level": LEVELS[level_num],
            "event": event,
        }
        record.update(self.context)
        record.update(fields)
        line = json.dumps(record, default=str) + "\n"
        with self._lock:
            self.sink.write(line)

    def debug(self, event: str, **fields) -> None:
        self._emit(0, event, fields)

    def info(self, event: str, **fields) -> None:
        self._emit(1, event, fields)

    def warning(self, event: str, **fields) -> None:
        self._emit(2, event, fields)

    def error(self, event: str, **fields) -> None:
        self._emit(3, event, fields)


def open_jsonl_sink(path: Union[str, Path]) -> TextIO:
    """Open (append) a JSONL log file with line buffering."""
    return open(Path(path), "a", buffering=1)


def read_jsonl(text_or_buffer: Union[str, io.StringIO]) -> List[Dict]:
    """Parse emitted JSONL back into records (test/report helper)."""
    if isinstance(text_or_buffer, io.StringIO):
        text = text_or_buffer.getvalue()
    else:
        text = text_or_buffer
    return [
        json.loads(line) for line in text.splitlines() if line.strip()
    ]
