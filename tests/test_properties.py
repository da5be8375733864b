"""Property tests of the core identities (Hypothesis; profile in conftest)."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from torus_control import GramianSpec, NLSParams, make_grid, make_window, nls
from torus_control.grid import FourierState
from torus_control.hum import dense_gramian
from torus_control.operators import free_propagate
from torus_control.resolvent import best_resolvent_constant
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


@given(states())
def test_plancherel(u):
    # ||u||^2 = sum_k |u_hat(k)|^2 = mean_j |u(x_j)|^2 on the grid
    physical = np.sum(np.abs(u.physical()) ** 2) / u.grid.n_points
    assert physical == pytest.approx(u.norm_l2() ** 2, rel=1e-12, abs=0.0)


@given(states(), st.floats(-10.0, 10.0))
def test_free_propagator_is_isometry(u, t):
    assert free_propagate(u, t).norm_l2() == pytest.approx(u.norm_l2(), rel=1e-12, abs=0.0)


@given(windows(1), st.floats(0.0, 4.0), st.integers(0, 5), st.floats(0.1, 0.9))
def test_resolvent_constant_invariant_under_translation_and_reflection(window, m, j, frac):
    # chi^2(x - 1/N) conjugates W by diag(exp(-2 pi i k / N)) and chi^2(-x) by
    # the permutation k -> -k; both commute with Lap - lambda, so M(lambda)
    # is unchanged.  lambda sits in a spectral gap, a tenth of a mode away
    # from either eigenvalue, where ||g||_2 <= (1 + m) / dist(lambda, spec)^2.
    grid = window.grid
    lam = -(2.0 * np.pi * (j % (grid.modes_per_axis // 2) + frac)) ** 2
    tol = 1e-12 * (1.0 + m) / np.min(np.abs(grid.laplacian_symbol() - lam)) ** 2
    base = best_resolvent_constant(lam, m, window, grid)
    for samples in (np.roll(window.samples, 1), np.roll(window.samples[::-1], 1)):
        moved = replace(window, samples=samples)
        assert abs(best_resolvent_constant(lam, m, moved, grid) - base) <= tol


def three_sub_step_reference(c, params):
    """The Strang step with damp(dt/2), rotate(dt), damp(dt/2) applied one
    after the other on the physical grid."""
    grid = params.damping.grid
    half = np.exp(1j * grid.laplacian_symbol() * (params.dt / 2.0))
    damp = np.exp(-params.damping.samples ** 2 * (params.dt / 2.0))
    phys = np.fft.ifftn(c * half, norm="forward")
    phys *= damp
    phys *= np.exp(-1j * params.sigma * params.dt * np.abs(phys) ** 2)
    phys *= damp
    c = np.fft.fftn(phys, norm="forward")
    if params.dealias:
        c *= nls._dealias_mask(grid)
    return c * half


@given(st.sampled_from([1, 2]).flatmap(windows), st.floats(1e-4, 0.1),
       st.sampled_from([-1, 0, 1]), st.booleans(), st.data())
def test_fused_damping_matches_three_sub_steps(window, dt, sigma, dealias, data):
    # physical values of modulus <= 2: the rotation phase stays below 1
    grid = window.grid
    parts = data.draw(arrays(float, (2,) + grid.shape,
                             elements=st.floats(-1.4, 1.4, allow_subnormal=False)))
    c = np.fft.fftn(parts[0] + 1j * parts[1], norm="forward")
    params = NLSParams(sigma=sigma, dt=dt, damping=window, dealias=dealias)
    fused = nls._StrangStep(grid, params)(c)
    assert np.max(np.abs(fused - three_sub_step_reference(c, params))) <= 1e-14
