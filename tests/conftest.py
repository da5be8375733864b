"""Shared pytest setup: a deterministic, small Hypothesis profile, so the
property tests draw the same examples on every run and stay cheap; and
`traced_peak`, the memory guard's instrument."""

import tracemalloc

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
