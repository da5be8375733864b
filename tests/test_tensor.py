"""Strip-window observability on T^2 and its reduction to the 1D problem."""

import numpy as np
import pytest

from torus_control import (GramianSpec, decompose_modes, make_grid,
                           make_window, random_state,
                           strip_observability_constant)
from torus_control.hum import (GramianSingularError, lambda_min_dense,
                               quadrature_gramian)
from torus_control.tensor import compose_modes, observed_energy_1d

from oracles import dense_gramian, dense_gramian_2d


def test_decompose_compose_round_trip():
    g2 = make_grid(2, 16)
    u = random_state(g2, np.random.default_rng(0))
    slices = decompose_modes(u)
    assert len(slices) == 16
    v = compose_modes(slices)
    assert np.allclose(v.coeffs, u.coeffs)
    # Plancherel across the decomposition
    total = sum(s.norm_l2() ** 2 for s in slices)
    assert total == pytest.approx(u.norm_l2() ** 2, rel=1e-12)


def test_dense_gramian_2d_block_structure():
    # the 2D strip Gramian acts identically on every second-axis mode,
    # and each block equals the 1D Gramian
    g1 = make_grid(1, 8)
    base = make_window(g1, (0.0, 0.4), 0.05, "smooth")
    spec = GramianSpec(T=1.0, window=base)
    spec2d = GramianSpec(T=1.0, window=make_window(make_grid(2, 8), (0.0, 0.4)))
    s2 = dense_gramian_2d(spec2d)
    s1 = dense_gramian(spec)
    n = 8
    # block for second-axis mode q couples (k, q) only to (k', q)
    s2 = s2.reshape(n, n, n, n)  # (k1, k2, k1', k2')
    for q in (0, 3):
        block = s2[:, q, :, q]
        assert np.allclose(block, s1, atol=1e-8)
    # no coupling across distinct second-axis modes
    assert np.max(np.abs(s2[:, 0, :, 1])) < 1e-10


def test_strip_observability_matches_1d():
    g1 = make_grid(1, 8)
    base = make_window(g1, (0.0, 0.4), 0.05, "smooth")
    spec = GramianSpec(T=1.0, window=base)
    c2, c1 = strip_observability_constant(spec)
    assert abs(c2 - c1) / c1 < 1e-8
    assert c1 == pytest.approx(1.0 / lambda_min_dense(spec), rel=1e-10)


@pytest.mark.parametrize("n", [16, 24, 32])
def test_strip_transfer_gap_is_roundoff(n):
    # the block eigensolves keep the exact transfer to roundoff
    base = make_window(make_grid(1, n), (0.0, 0.3), 0.05, "smooth")
    c2, c1 = strip_observability_constant(GramianSpec(T=1.0, window=base))
    assert abs(c2 - c1) / c1 <= 1e-12


def test_strip_quadrature_oracle_matches_exact_2d():
    # the 2D quadrature Gramian at a resolving node count converges to the
    # exact-time closed form on the genuinely 2D grid
    window2d = make_window(make_grid(2, 8), (0.0, 0.4), 0.05, "smooth")
    spec2d = GramianSpec(T=1.0, window=window2d)
    s_quad = quadrature_gramian(spec2d)
    s_exact = dense_gramian_2d(spec2d)
    assert np.max(np.abs(s_quad - s_exact)) < 1e-10 * np.max(np.abs(s_exact))


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 16)])
def test_observed_energy_1d_is_the_gramian_quadratic_form(dim, n):
    # <S c, c> with the dense oracle S, which a 2D strip applies to every
    # k_2 column alike
    g = make_grid(dim, n)
    spec = GramianSpec(T=0.7, window=make_window(g, (0.1, 0.45), 0.05, "smooth"))
    c = random_state(g, np.random.default_rng(n))
    cols = c.coeffs.reshape(n, -1)
    expect = np.vdot(cols, dense_gramian(spec) @ cols).real
    assert observed_energy_1d(spec, c) == pytest.approx(expect, rel=1e-13)


def test_strip_single_sample_window_is_singular():
    # on N = 8 the window (0, 0.2) of width 0.05 keeps one nonzero sample
    # (x = 1/8), so chi^2 has rank one and S is genuinely singular
    base = make_window(make_grid(1, 8), (0.0, 0.2), 0.05, "smooth")
    assert np.count_nonzero(base.samples) == 1
    with pytest.raises(GramianSingularError):
        strip_observability_constant(GramianSpec(T=1.0, window=base))
