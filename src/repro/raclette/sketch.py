"""The streaming propagation-delay baseline.

The batch pipeline subtracts each probe's whole-period minimum; an
unbounded stream has no period.  :class:`RollingMinimum` is the
streaming stand-in: a sliding-window minimum over the last N values
in amortized O(1) (monotonic deque).  Per-probe bin medians come from
the stream engine's exact open-bin store
(:class:`~repro.stream.openbins.OpenBins`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple


class RollingMinimum:
    """Sliding-window minimum with O(1) amortized updates.

    ``window`` is in *pushes*: with one push per 30-minute bin, a
    window of 336 covers one week — the streaming stand-in for the
    per-period minimum baseline of the batch pipeline.
    """

    def __init__(self, window: int):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._deque: Deque[Tuple[int, float]] = deque()
        self._index = 0

    def push(self, value: float) -> float:
        """Insert one value; returns the current window minimum."""
        value = float(value)
        while self._deque and self._deque[-1][1] >= value:
            self._deque.pop()
        self._deque.append((self._index, value))
        self._index += 1
        cutoff = self._index - self.window
        while self._deque and self._deque[0][0] < cutoff:
            self._deque.popleft()
        return self._deque[0][1]

    def minimum(self) -> Optional[float]:
        """Current window minimum, or None when empty."""
        return self._deque[0][1] if self._deque else None
