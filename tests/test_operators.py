"""Propagator, fractional multiplier, Sobolev weights, commutator smoothing."""

import numpy as np
import pytest

from torus_control import full_window, make_grid, make_window, random_state
from torus_control.grid import plane_wave
from torus_control.operators import (_commutator_products,
                                     commutator_operator_norm, free_propagate,
                                     fractional_multiplier, sobolev_weights)

from conftest import traced_peak
from oracles import commutator_matrix, commutator_norm


def test_propagator_phase_on_plane_wave():
    g = make_grid(1, 16)
    u = plane_wave(g, 2)
    t = 0.37
    v = free_propagate(u, t)
    expected = np.exp(-1j * (2 * np.pi * 2) ** 2 * t)
    assert v.coeffs[2] == pytest.approx(expected, rel=1e-13)


def test_propagator_group_laws():
    g = make_grid(1, 32)
    u = random_state(g, np.random.default_rng(0))
    # isometry
    assert free_propagate(u, 0.8).norm_l2() == pytest.approx(u.norm_l2())
    # composition and inverse
    a = free_propagate(free_propagate(u, 0.3), 0.5)
    b = free_propagate(u, 0.8)
    assert np.allclose(a.coeffs, b.coeffs)
    back = free_propagate(free_propagate(u, 0.8), -0.8)
    assert np.allclose(back.coeffs, u.coeffs)


def test_propagator_periodicity():
    # on the unit torus exp(i t Lap) has period 1/(2 pi) in t
    g = make_grid(1, 16)
    u = random_state(g, np.random.default_rng(1))
    v = free_propagate(u, 1.0 / (2.0 * np.pi))
    assert np.allclose(v.coeffs, u.coeffs, atol=1e-10)


def test_fractional_multiplier_symbol():
    g = make_grid(1, 8)
    sym = fractional_multiplier(g, 2.0)
    k = g.mode_indices()
    expect = np.where(k == 0, 1.0, np.sign(k) * np.abs(k).astype(float) ** 2)
    assert np.allclose(sym, expect)


def test_fractional_derivative_inverse_pair():
    g = make_grid(1, 32)
    u = random_state(g, np.random.default_rng(2))
    v = u.coeffs * fractional_multiplier(g, 1.0) * fractional_multiplier(g, -1.0)
    # D^1 then D^-1 restores every mode (zero mode untouched by both)
    assert np.allclose(v, u.coeffs)


def test_fractional_derivative_rejects_2d():
    with pytest.raises(ValueError):
        fractional_multiplier(make_grid(2, 8), 1.0)


def test_sobolev_norm_weights():
    g = make_grid(1, 16)
    u = plane_wave(g, 3)
    expect = (1.0 + (2 * np.pi * 3) ** 2) ** 0.5
    assert np.linalg.norm(u.coeffs * sobolev_weights(g, 1.0)) == pytest.approx(
        expect, rel=1e-13)
    assert np.all(sobolev_weights(g, 0.0) == 1.0)


def test_commutator_vanishes_for_constant_window():
    g = make_grid(1, 32)
    assert commutator_operator_norm(g, 1.0, 0.0, full_window(g)) < 1e-12


def test_commutator_smoothing_uniform_in_resolution():
    # H^s -> H^(s-r+1) norms must stay bounded as the grid is refined
    w_norms = {}
    for r, s in [(1.0, 0.0), (2.0, 1.0)]:
        norms = []
        for n in (32, 64, 128):
            g = make_grid(1, n)
            w = make_window(g, (0.0, 0.3), 0.05, "smooth")
            norms.append(commutator_operator_norm(g, r, s, w))
        w_norms[(r, s)] = norms
        assert max(norms) / min(norms) < 2.0
    # and are nontrivial
    assert all(n[0] > 0.1 for n in w_norms.values())


def test_commutator_rejects_2d():
    g = make_grid(2, 8)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    with pytest.raises(ValueError):
        commutator_operator_norm(g, 1.0, 0.0, w)


def test_commutator_refuses_a_window_on_another_grid():
    # an N = 64 window on an N = 32 grid gave the N = 32 window's norm
    # (4.1709 at r = 1, s = 0; the N = 64 window's own grid gives 5.6668)
    w = make_window(make_grid(1, 64), (0.0, 0.3), 0.05, "smooth")
    with pytest.raises(ValueError, match="grid mismatch"):
        commutator_operator_norm(make_grid(1, 32), 1.0, 0.0, w)


def _window(g, kind):
    if kind == "full":
        return full_window(g)
    if kind == "two-interval":
        return make_window(g, ((0.1, 0.35), (0.6, 0.7)), 0.05, "sharp")
    return make_window(g, (0.0, 0.3), 0.05, kind)


@pytest.mark.parametrize("kind", ["smooth", "sharp", "two-interval", "full"])
@pytest.mark.parametrize("n", [4, 6, 8, 32, 96, 512])
def test_commutator_matches_fft_order_reference(n, kind):
    # the matrix-free product and its adjoint, applied to every unit vector,
    # give the columns of the FFT-order gathered matrix and of its adjoint
    # under one permutation of rows and columns, to 1e-11 of its largest
    # column norm (at most its 2-norm); the full window gives exactly zero,
    # and so does its norm.
    # The norm agrees to roundoff (at N = 512 on three (r, s) pairs: each
    # SVD there costs 80 ms)
    g = make_grid(1, n)
    w = _window(g, kind)
    perm = np.argsort(g.mode_indices())
    pairs = [(r, s) for r in (-1.0, 0.5, 1.0, 2.0) for s in (0.0, 1.0, 2.0)]
    for r, s in pairs:
        ref = commutator_matrix(g, r, s, w)[np.ix_(perm, perm)]
        forward, adjoint = _commutator_products(g, r, s, w)
        # row j is the product with e_j: column j of A, of A^H
        cols, adjoint_cols = forward(np.eye(n)), adjoint(np.eye(n))
        if kind == "full":
            assert not np.any(cols) and not np.any(adjoint_cols)
            assert commutator_operator_norm(g, r, s, w) == 0.0
            continue
        tol = 1e-11 * np.linalg.norm(ref, axis=0).max()
        assert np.linalg.norm(cols - ref.T, axis=1).max() <= tol
        assert np.linalg.norm(adjoint_cols - ref.conj(), axis=1).max() <= tol
    for r, s in pairs if n < 512 else [(-1.0, 0.0), (0.5, 1.0), (2.0, 2.0)]:
        ref = commutator_norm(g, r, s, w)
        assert abs(commutator_operator_norm(g, r, s, w) - ref) <= 1e-13 * ref


@pytest.mark.parametrize("r,s", [(np.nan, 0.0), (np.inf, 0.0), (1.0, -np.inf),
                                 (1.0, np.nan)])
def test_commutator_rejects_non_finite_orders(r, s):
    g = make_grid(1, 16)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    name = "r" if not np.isfinite(r) else "s"
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        commutator_operator_norm(g, r, s, w)


def test_commutator_memory_is_bounded():
    # a k x N Lanczos basis and O(N) vectors, never an N x N matrix: 0.3 MB
    # for (2, 1) in 8 steps, 1.0 MB for (1, 0) in 46 (the dense matrix and
    # its SVD held 4.9 MB)
    g = make_grid(1, 512)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    for r, s in ((2.0, 1.0), (1.0, 0.0)):
        assert traced_peak(lambda: commutator_operator_norm(g, r, s, w)) <= 1.5e6
