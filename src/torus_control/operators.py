"""Free Schrodinger propagator, fractional multiplier D^r, Sobolev weights
and the operator norm of the commutator [D^r, f].

The free flow diagonalizes on Fourier modes: u_hat(k) picks up the phase
exp(-i*(2*pi*k)^2*t) in 1D (and exp(-i*(2*pi)^2*(k1^2+k2^2)*t) in 2D), so
propagation is exact and norm preserving for every Sobolev index.

D^r is the multiplier sgn(n)*|n|^r on nonzero modes and the identity on
the zero mode.  It deliberately uses the bare integer n, while Sobolev
weights use (1 + |2*pi*k|^2)^(1/2); the two scalings coexist.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import FourierState, GridSpec, make_grid
from .windows import make_window


def free_propagate(u: FourierState, t: float) -> FourierState:
    """Apply exp(i*t*Laplacian): u_hat(k) -> exp(-i*(2*pi*k)^2*t) * u_hat(k)."""
    phase = np.exp(1j * u.grid.laplacian_symbol() * t)
    return FourierState(u.grid, u.coeffs * phase)


def fractional_multiplier(grid: GridSpec, r: float) -> np.ndarray:
    """Symbol of D^r on a 1D grid: sgn(n)|n|^r for n != 0, 1 at n = 0."""
    if grid.dim != 1:
        raise ValueError("D^r is defined on the 1D torus only")
    n = grid.mode_indices().astype(float)
    sym = np.ones_like(n)
    nz = n != 0
    sym[nz] = np.sign(n[nz]) * np.abs(n[nz]) ** r
    return sym


def sobolev_weights(grid: GridSpec, s: float) -> np.ndarray:
    """(1 + |2*pi*k|^2)^(s/2) in FFT order (shape matches the mode array)."""
    return (1.0 - grid.laplacian_symbol()) ** (s / 2.0)


def _refined_window_coeffs(grid: GridSpec, f) -> np.ndarray:
    """Fourier coefficients of the window profile, resolved on a grid
    4 times finer than the state grid, in FFT order.

    Pointwise multiplication on the state grid is a circular convolution:
    mode pairs near the two ends of the spectrum couple through wrapped
    frequency differences, which wrecks the commutator cancellation.  The
    refined coefficients let callers convolve with the true (unwrapped)
    difference k - j, matching the continuous operator.
    """
    fine = make_grid(1, 4 * grid.modes_per_axis)
    fw = make_window(fine, f.omega, transition_width=f.transition_width,
                     kind=f.kind)
    return np.fft.fft(fw.samples) / fine.modes_per_axis


def _weighted_commutator(grid: GridSpec, r: float, s: float, f) -> np.ndarray:
    """Mode-space matrix w_out(k) * f_hat(k - j) * (D(k) - D(j)) / w_in(j)
    of [D^r, f] from H^s to H^(s-r+1), in ascending mode order (1D only).

    Rows and columns run over k = -N/2 ... N/2 - 1, so f_hat(k - j) is
    Toeplitz: a strided view of the 2N - 1 differences, copied once into
    the one N x N complex buffer that is then scaled in place, by row
    blocks.  FFT order is one permutation of both rows and columns away,
    which leaves every singular value as it is.
    """
    if grid.dim != 1:
        raise ValueError("the commutator [D^r, f] is defined on the 1D torus only")
    n = grid.modes_per_axis
    fhat = _refined_window_coeffs(grid, f)
    # (f * v)(k) = sum_j fhat(k - j) v(j) with the true difference k - j
    diffs = np.concatenate((fhat[1 - n:], fhat[:n]))
    mat = sliding_window_view(diffs, n)[:, ::-1].copy()
    dr = np.fft.fftshift(fractional_multiplier(grid, r))
    w_out = np.fft.fftshift(sobolev_weights(grid, s - r + 1.0))
    w_in = np.fft.fftshift(sobolev_weights(grid, s))
    rows = max(1, 2 ** 16 // n)  # row blocks of at most 2^16 entries
    for i in range(0, n, rows):
        block = mat[i:i + rows]
        block *= dr[i:i + rows, None] - dr
        block *= w_out[i:i + rows, None]
        block /= w_in
    return mat


def commutator_operator_norm(grid: GridSpec, r: float, s: float, f) -> float:
    """Empirical H^s -> H^(s-r+1) operator norm of u -> [D^r, f] u.

    The largest singular value of the weighted mode-space matrix, built
    with de-aliased window coefficients (`_weighted_commutator`).  Beside
    that N x N complex matrix (4 MB at N = 512) and the SVD's copy of it,
    it holds O(N) vectors and a row block of at most 2^16 entries.  r and
    s must be finite.
    """
    for name, value in (("r", r), ("s", s)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    return float(np.linalg.norm(_weighted_commutator(grid, r, s, f), ord=2))
