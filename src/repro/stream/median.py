"""The approximate median estimator for open streaming bins.

An open bin accumulates last-mile RTT samples until its wall-clock
window closes.  In exact mode the engine keeps every open sample in
one columnar store and finalizes closing bins through the batch
kernels (:mod:`repro.stream.engine`), so a closed bin's estimate is
bit-identical to the batch pipeline's.  Approximate mode keeps one
:class:`P2Median` per open (probe, bin) instead: the P² (P-squared)
algorithm of Jain & Chlamtac (CACM 1985) — five markers, constant
memory, no buffer — for deployments where buffering every sample is
too expensive.  Its accuracy is within a few percent of the exact
median on unimodal data (the differential harness documents the
tolerance it holds the seeded worlds to).

NaN samples *propagate*, as in the kernels (``numpy.median`` over a
set containing NaN is NaN): they are not silently skipped.  Upstream
stages are expected to have filtered insane replies already
(:func:`repro.core.kernels.flat.walk_hops`); an estimator that hid
a NaN would mask a pipeline bug.
"""

from __future__ import annotations

import math
from typing import Iterable, List

import numpy as np


class P2Median:
    """Constant-memory approximate median (P² algorithm, p = 0.5).

    Keeps five markers whose heights approximate the 0/25/50/75/100th
    percentiles, adjusted with piecewise-parabolic interpolation as
    samples arrive.  Exact for the first five samples (they *are* the
    markers); approximate beyond.  A NaN sample poisons the estimator
    (``value()`` stays NaN), matching the kernels' NaN propagation.
    """

    __slots__ = ("_initial", "_q", "_pos", "_desired", "_n", "_poisoned")

    #: Desired-position increments for p = 0.5.
    _INCREMENTS = (0.0, 0.25, 0.5, 0.75, 1.0)

    def __init__(self) -> None:
        self._initial: List[float] = []
        self._q: List[float] = []        # marker heights
        self._pos: List[float] = []      # actual marker positions
        self._desired: List[float] = []  # desired marker positions
        self._n = 0
        self._poisoned = False

    @property
    def n(self) -> int:
        """Samples seen so far."""
        return self._n

    def add(self, sample: float) -> None:
        """Accumulate one sample."""
        sample = float(sample)
        self._n += 1
        if math.isnan(sample):
            self._poisoned = True
            return
        if self._poisoned:
            return
        if not self._q:
            self._initial.append(sample)
            if len(self._initial) == 5:
                self._initial.sort()
                self._q = list(self._initial)
                self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [1.0, 2.0, 3.0, 4.0, 5.0]
            return
        # Locate the cell the sample falls into and bump positions.
        if sample < self._q[0]:
            self._q[0] = sample
            k = 0
        elif sample >= self._q[4]:
            self._q[4] = sample
            k = 3
        else:
            k = 0
            while k < 3 and sample >= self._q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            self._pos[i] += 1.0
        for i, inc in enumerate(self._INCREMENTS):
            self._desired[i] += inc
        # Adjust the three interior markers toward their desired
        # positions with the piecewise-parabolic (P²) formula, falling
        # back to linear interpolation when the parabola overshoots.
        for i in (1, 2, 3):
            delta = self._desired[i] - self._pos[i]
            if (delta >= 1.0 and self._pos[i + 1] - self._pos[i] > 1.0) or (
                delta <= -1.0 and self._pos[i - 1] - self._pos[i] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if self._q[i - 1] < candidate < self._q[i + 1]:
                    self._q[i] = candidate
                else:
                    self._q[i] = self._linear(i, step)
                self._pos[i] += step
        return

    def extend(self, samples: Iterable[float]) -> None:
        """Accumulate many samples."""
        for sample in samples:
            self.add(sample)

    def _parabolic(self, i: int, step: float) -> float:
        q, pos = self._q, self._pos
        return q[i] + step / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + step)
            * (q[i + 1] - q[i]) / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - step)
            * (q[i] - q[i - 1]) / (pos[i] - pos[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        q, pos = self._q, self._pos
        j = i + int(step)
        return q[i] + step * (q[j] - q[i]) / (pos[j] - pos[i])

    def value(self) -> float:
        """The median estimate; exact below six samples, NaN if empty
        or poisoned by a NaN sample."""
        if self._poisoned or self._n == 0:
            return float("nan")
        if self._q:
            return float(self._q[2])
        return float(np.median(self._initial))
