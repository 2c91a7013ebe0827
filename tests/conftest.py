"""Helpers shared by the test modules."""

import tracemalloc

import numpy as np
import pytest

from landau.kernels import _padded_shape


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


def _engine_bytes(grid, tables=0, buffers=0):
    """Bytes of the convolution engine on `grid`: `tables` real kernel half
    spectra of H^2 P^(N-2) float64 each and `buffers` complex work buffers
    of P^(N-1) (P/2+1) entries each, P the padded length, H = P//2 + 1."""
    P = _padded_shape(grid)[0]
    H = P // 2 + 1
    return tables * H * H * P ** (grid.dim - 2) * 8 + buffers * P ** (grid.dim - 1) * H * 16


@pytest.fixture
def engine_bytes():
    return _engine_bytes
