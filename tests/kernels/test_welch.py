"""The numpy Welch helper against ``scipy.signal.welch``, byte for byte.

:func:`repro.core.spectral.welch_power` replaces the scipy call both
kernel backends used to make, so it must reproduce it exactly: same
frequencies, same power, same bytes.  scipy is only the oracle here;
the golden fixtures remain the spec.  The inputs span the pipeline's
bin widths (12–96 bins per day), lengths from 2 bins to ~20 days,
odd and even segment lengths, and 1-D as well as batched calls.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from repro.core.spectral import welch_power

#: Bins per day for every bin width in 900–7200 s that divides a day.
BINS_PER_DAY = [12, 16, 18, 24, 32, 36, 48, 72, 96]


@st.composite
def welch_inputs(draw):
    bins_per_day = draw(st.sampled_from(BINS_PER_DAY))
    length = draw(st.integers(2, 20 * bins_per_day + 3))
    nperseg = min(4 * bins_per_day + draw(st.integers(-1, 1)), length)
    rows = draw(st.integers(0, 5))      # 0: a single 1-D signal
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (length,) if rows == 0 else (rows, length)
    t = np.arange(length) / bins_per_day
    values = (
        rng.uniform(0.0, 50.0)
        + rng.normal(0.0, rng.uniform(0.01, 5.0), shape)
        + rng.uniform(0.0, 20.0) * np.sin(2 * np.pi * t)
    )
    sample_rate = bins_per_day / 24.0   # samples per hour
    return values, sample_rate, nperseg


def scipy_welch(values, sample_rate, nperseg):
    return signal.welch(
        values, fs=sample_rate, nperseg=nperseg,
        scaling="spectrum", detrend="constant", axis=-1,
    )


class TestWelchMatchesScipy:
    @settings(deadline=None, max_examples=300)
    @given(welch_inputs())
    def test_byte_identical(self, case):
        values, sample_rate, nperseg = case
        want_f, want_p = scipy_welch(values, sample_rate, nperseg)
        got_f, got_p = welch_power(values, sample_rate, nperseg)
        assert got_f.dtype == want_f.dtype and got_p.dtype == want_p.dtype
        assert got_p.shape == want_p.shape
        assert got_f.tobytes() == want_f.tobytes()
        assert got_p.tobytes() == want_p.tobytes()
