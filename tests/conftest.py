"""Helpers shared by the test modules."""

import tracemalloc

import numpy as np
import pytest


def _traced_peak(fn):
    """The peak of the bytes tracemalloc traces while fn() runs: what fn
    allocates, its result included, and not what was alive before.

    NumPy's FFT makes about 120 KiB of process-wide state on its first call;
    a small transform makes it before tracing starts, so the peak does not
    depend on which test ran first.
    """
    np.fft.irfft(np.fft.fft(np.fft.rfft(np.ones((2, 4))), axis=0), 4)
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
