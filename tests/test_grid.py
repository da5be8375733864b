"""Grid and state basics: storage conventions, Plancherel, arithmetic."""

import numpy as np
import pytest

from torus_control.grid import (FourierState, make_grid, plane_wave,
                                random_state, state_from_physical, zero_state)


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(3, 16)
    with pytest.raises(ValueError):
        make_grid(1, 15)
    with pytest.raises(ValueError):
        make_grid(1, 2)


def test_mode_indices_fft_order():
    g = make_grid(1, 8)
    assert list(g.mode_indices()) == [0, 1, 2, 3, -4, -3, -2, -1]


def test_points_equispaced():
    g = make_grid(1, 16)
    x = g.points()
    assert x[0] == 0.0
    assert np.allclose(np.diff(x), 1.0 / 16)


def test_laplacian_symbol_values():
    g = make_grid(1, 8)
    lam = g.laplacian_symbol()
    k = g.mode_indices()
    assert np.allclose(lam, -((2 * np.pi * k.astype(float)) ** 2))
    g2 = make_grid(2, 8)
    assert g2.laplacian_symbol().shape == (8, 8)
    assert g2.laplacian_symbol()[1, 2] == pytest.approx(-((2 * np.pi) ** 2) * 5)


def test_plancherel_matches_physical_quadrature():
    g = make_grid(1, 32)
    rng = np.random.default_rng(0)
    u = random_state(g, rng, norm=1.7)
    phys = u.physical()
    quad = np.sum(np.abs(phys) ** 2) / g.n_points
    assert quad == pytest.approx(u.norm_l2() ** 2, rel=1e-12)
    assert u.norm_l2() == pytest.approx(1.7, rel=1e-12)


def test_plane_wave_physical_values():
    g = make_grid(1, 16)
    u = plane_wave(g, 3, 2.0)
    x = g.points()
    assert np.allclose(u.physical(), 2.0 * np.exp(2j * np.pi * 3 * x))


def test_physical_round_trip():
    g = make_grid(2, 8)
    rng = np.random.default_rng(1)
    u = random_state(g, rng)
    v = state_from_physical(g, u.physical())
    assert np.allclose(v.coeffs, u.coeffs)


def test_state_arithmetic():
    g = make_grid(1, 8)
    rng = np.random.default_rng(2)
    u = random_state(g, rng)
    v = random_state(g, rng)
    w = 2.0 * u - v
    assert np.allclose(w.coeffs, 2.0 * u.coeffs - v.coeffs)
    other = random_state(make_grid(1, 16), rng)
    with pytest.raises(ValueError):
        u + other


def test_state_shape_check():
    g = make_grid(1, 8)
    with pytest.raises(ValueError):
        FourierState(g, np.zeros(7, dtype=complex))


def test_random_state_band_limit():
    g = make_grid(1, 64)
    u = random_state(g, np.random.default_rng(3), max_mode=5)
    k = g.mode_indices()
    assert np.all(u.coeffs[np.abs(k) > 5] == 0.0)
    assert np.any(u.coeffs[np.abs(k) <= 5] != 0.0)


def test_zero_state():
    g = make_grid(1, 8)
    assert zero_state(g).norm_l2() == 0.0
