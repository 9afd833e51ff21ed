"""Tests for the streaming baseline and the oracle's bin buffer.

:class:`RollingMinimum` is the monitor's propagation-delay baseline.
``ExactMedian`` is the per-probe bin buffer of the verbatim monitor
oracle (``tests/raclette/monitor_oracle.py``) that the differential
suite holds the rebuilt monitor to, so it stays pinned to numpy here.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.raclette import RollingMinimum

from .monitor_oracle import ExactMedian


class TestExactMedian:
    def test_empty(self):
        assert ExactMedian().median() is None

    def test_odd_even(self):
        sketch = ExactMedian()
        sketch.extend([3.0, 1.0, 2.0])
        assert sketch.median() == 2.0
        sketch.add(10.0)
        assert sketch.median() == 2.5
        assert sketch.count == 4

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=50))
    def test_matches_numpy(self, values):
        sketch = ExactMedian()
        sketch.extend(values)
        assert sketch.median() == pytest.approx(float(np.median(values)))


class TestRollingMinimum:
    def test_validation(self):
        with pytest.raises(ValueError):
            RollingMinimum(0)

    def test_window_behaviour(self):
        rolling = RollingMinimum(3)
        assert rolling.minimum() is None
        assert rolling.push(5.0) == 5.0
        assert rolling.push(3.0) == 3.0
        assert rolling.push(4.0) == 3.0
        assert rolling.push(6.0) == 3.0   # window [3,4,6]
        assert rolling.push(7.0) == 4.0   # 3 expired
        assert rolling.push(2.0) == 2.0

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3),
                    min_size=1, max_size=200),
           st.integers(min_value=1, max_value=20))
    def test_matches_naive(self, values, window):
        rolling = RollingMinimum(window)
        for index, value in enumerate(values):
            result = rolling.push(value)
            naive = min(values[max(0, index - window + 1): index + 1])
            assert result == naive
