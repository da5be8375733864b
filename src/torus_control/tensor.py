"""Observability transfer from T^1 to strips on T^2.

For a control region omega_1 x T the 2D flow decomposes along the second
axis: writing u0(x1, x2) = sum_k c_k(x1) e^{2 pi i k x2}, each slice
evolves under the 1D flow times a unimodular phase, and the windowed norm
is x2-independent, so the observability constant transfers exactly:
lambda_min(S_2d) = lambda_min(S_1d) at truncation.  The production
Gramian in `hum` relies on this and is N x N in 2D too.

tensor-check verifies the identity against `dense_gramian_2d`, the
genuinely 2D exact-time Gramian, whose block-circulant window matrix
couples all N^2 modes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.linalg import eigh

from .grid import FourierState, make_grid
from .hum import (GramianSpec, _check_entries, _floored_inverse, _time_kernel,
                  dense_gramian, observability_constant)


def decompose_modes(u2d: FourierState) -> list[FourierState]:
    """Second-axis mode slices c_k of a 2D state (k in FFT order).

    Plancherel: sum_k ||c_k||^2 = ||u2d||^2.
    """
    if u2d.grid.dim != 2:
        raise ValueError("decompose_modes expects a 2D state")
    grid1 = make_grid(1, u2d.grid.modes_per_axis)
    return [FourierState(grid1, column.copy()) for column in u2d.coeffs.T]


def compose_modes(slices: list[FourierState]) -> FourierState:
    """Inverse of decompose_modes."""
    return FourierState(make_grid(2, len(slices)),
                        np.stack([s.coeffs for s in slices], axis=1))


def dense_gramian_2d(spec: GramianSpec) -> np.ndarray:
    """N^2 x N^2 exact-time Gramian of a 2D spec: the block-circulant
    W_ab = (chi^2)^(k_a - k_b) (per-axis differences, aliased) times the
    time kernel of `hum.dense_gramian` with mu = |2 pi k|^2.  Above
    N^2 = MAX_DENSE_POINTS (N > 44) DenseSizeError, before any allocation."""
    grid = spec.grid
    _check_entries(grid, grid.n_points, "Gramian entries")
    c = np.fft.fftn(spec.window.samples ** 2) / grid.n_points
    n = grid.modes_per_axis
    diff = np.subtract.outer(np.arange(n), np.arange(n)) % n
    w = c[diff[:, None, :, None], diff[None, :, None, :]]
    return _time_kernel(w.reshape(grid.n_points, grid.n_points),
                        -grid.laplacian_symbol().ravel(), spec.T, None)


def strip_observability_constant(base_spec: GramianSpec) -> tuple[float, float]:
    """(C_2d, C_1d) for the strip omega_1 x T versus its 1D base window.

    C_2d comes from `dense_gramian_2d` on the 2D grid, C_1d from the 1D
    Gramian, and both go through the conditioning floor of
    `observability_constant`.  The contract is |C_2d - C_1d| / C_1d at
    roundoff (exact transfer at truncation).
    """
    if base_spec.grid.dim != 1:
        raise ValueError("base_spec must be a 1D Gramian spec")
    base = base_spec.window
    n = base.grid.modes_per_axis
    strip = replace(base, grid=make_grid(2, n), samples=np.tile(base.samples[:, None], n))
    spec2d = replace(base_spec, window=strip)
    lam_2d = eigh(dense_gramian_2d(spec2d), eigvals_only=True, subset_by_index=[0, 0])[0]
    return _floored_inverse(float(lam_2d), spec2d), observability_constant(base_spec)


def observed_energy_1d(spec: GramianSpec, c: FourierState) -> float:
    """int_0^T ||chi exp(i t Lap) c||^2 dt = <S c, c>, exact in time."""
    return float(np.real(np.vdot(c.coeffs, dense_gramian(spec) @ c.coeffs)))
