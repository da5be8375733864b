"""Property tests of the core identities (Hypothesis; profile in conftest)."""

import json

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from torus_control import FourierState, GramianSpec, dense_gramian, make_grid, make_window
from torus_control.io import state_from_json, state_to_json
from torus_control.tensor import dense_gramian_2d

even_n = st.integers(2, 6).map(lambda h: 2 * h)  # N in {4, ..., 12}
horizons = st.floats(0.1, 2.0)


@st.composite
def windows(draw, dim):
    """A window on one interval (a, b) of the first axis, sharp or smooth."""
    grid = make_grid(dim, draw(even_n))
    a = draw(st.floats(0.0, 0.9))
    b = draw(st.floats(a + 0.05, 1.0))
    kind = draw(st.sampled_from(["sharp", "smooth"]))
    width = draw(st.floats(0.05, 0.95)) * (b - a) / 2.0
    return make_window(grid, (a, b), width, kind)


@given(windows(2), horizons)
def test_strip_gramian_is_1d_factor_times_identity(window, T):
    spec = GramianSpec(T=T, window=window)
    s_2d = dense_gramian_2d(spec)
    n = window.grid.modes_per_axis
    kron = np.kron(dense_gramian(spec), np.eye(n))
    assert np.max(np.abs(kron - s_2d)) <= 1e-12 * np.max(np.abs(s_2d))


@given(windows(1), horizons, st.none() | st.integers(8, 64))
def test_gramian_is_hermitian_psd(window, T, n_steps):
    s = dense_gramian(GramianSpec(T=T, window=window), n_steps)
    scale = np.max(np.abs(s))
    assert np.array_equal(s, s.conj().T)
    assert np.linalg.eigvalsh(s)[0] >= -1e-12 * scale


@st.composite
def states(draw):
    grid = make_grid(draw(st.sampled_from([1, 2])), draw(even_n))
    parts = draw(arrays(float, (2,) + grid.shape,
                        elements=st.floats(-1e6, 1e6, allow_subnormal=False)))
    return FourierState(grid, parts[0] + 1j * parts[1])


@given(states())
def test_state_json_round_trip(u):
    back = state_from_json(json.loads(json.dumps(state_to_json(u))))
    assert back.grid == u.grid
    assert np.array_equal(back.coeffs, u.coeffs)


@given(st.sampled_from([1, 2]).flatmap(windows))
def test_window_samples_lie_in_unit_interval(window):
    assert np.all((window.samples >= 0.0) & (window.samples <= 1.0))
