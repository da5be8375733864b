"""Shared pytest setup: a deterministic, small Hypothesis profile, so the
property tests draw the same examples on every run and stay cheap;
`traced_peak`, the memory guard's instrument; and `on_mode_range`, the
coefficient range the real window form reads."""

import tracemalloc

import numpy as np
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=15, database=None)
settings.load_profile("tier1")


def traced_peak(fn) -> int:
    """Peak bytes that Python and numpy hold at once, above what was held
    before, while fn() runs (tracemalloc).  One untraced call runs first,
    so lazy imports and caches do not count."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def on_mode_range(c):
    """N-periodic coefficients c, in FFT order along every axis, read at
    the modes -N .. N: the input of `hum._real_window_form`, for samples
    that no `CutoffWindow` holds (of any sign, or varying along axis 2)."""
    n = c.shape[0]
    return c[np.ix_(*[np.arange(-n, n + 1) % n] * c.ndim)]
