"""Shared pytest setup: a deterministic, small Hypothesis profile, so the
property tests draw the same examples on every run and stay cheap;
the Hypothesis strategies that several test modules draw from (grid sizes,
horizons, seeds, windows); `traced_peak`, the memory guard's instrument;
`on_mode_range`, the coefficient range the real window form reads;
`pair_form`, the real form of any transverse pair of a 2D window; and
`with_eigenvalues`, a lambda grid that reaches the kernel elimination."""

import tracemalloc

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from torus_control import make_grid, make_window
from torus_control.hum import _real_window_form
from torus_control.tensor import _transverse_form

settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=15, database=None)
settings.load_profile("tier1")

even_n = st.integers(2, 6).map(lambda h: 2 * h)  # N in {4, ..., 12}
horizons = st.floats(0.1, 2.0)
seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def windows(draw, dim, min_length=0.05, sizes=even_n):
    """A window on one interval (a, b) of the first axis, b - a at least
    min_length, sharp or smooth, on a grid of N drawn from sizes."""
    grid = make_grid(dim, draw(sizes))
    a = draw(st.floats(0.0, 0.95 - min_length))
    b = draw(st.floats(a + min_length, 1.0))
    kind = draw(st.sampled_from(["sharp", "smooth"]))
    width = draw(st.floats(0.05, 0.95)) * (b - a) / 2.0
    return make_window(grid, (a, b), width, kind)


any_windows = st.sampled_from([1, 2]).flatmap(windows)


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


def pair_form(c, q):
    """The real form of chi^2 on the transverse pair {q, -q}, 0 <= q <= N/2,
    for c on the modes (-N .. N)^2: `tensor._transverse_form` for
    0 < q < N/2, and at q = 0 and N/2, where the pair is the mode e_q
    alone, the first-axis form of c(., 0)."""
    n = len(c) // 2
    return _real_window_form(c[:, n]) if q in (0, n // 2) else _transverse_form(c, q)


def on_mode_range(c):
    """N-periodic coefficients c, in FFT order along every axis, read at
    the modes -N .. N: the input of `hum._real_window_form` (1D) and of
    `tensor._transverse_form` (2D), for samples that no `CutoffWindow`
    holds (of any sign, or varying along axis 2)."""
    n = c.shape[0]
    return c[np.ix_(*[np.arange(-n, n + 1) % n] * c.ndim)]


def with_eigenvalues(lam, grid):
    """The lambda grid lam and every Laplacian eigenvalue -(2 pi k)^2 of the
    1D grid, ascending: the points where a sweep runs the kernel elimination
    of `resolvent._best_constant`, which the default grid no longer holds."""
    return np.union1d(lam, grid.laplacian_symbol())
