"""Reference implementations the package is checked against.

The phased complex Gramians are the references for the real centred form of
`torus_control.hum`; `commutator_norm` is the FFT-order reference for
`torus_control.operators.commutator_operator_norm`.

The package solves on S = P R P^H, R real (`hum._real_gramian`, `hum._pair`).
These build S itself, W * K with K = exp(i*x) * `hum._centred_kernel`,
x = (mu_a - mu_b)*T/2: the phase the real form centres away, put back
entry by entry in complex arithmetic.  They take from the package only its
kernel and its chi^2 coefficients.
"""

import numpy as np

from torus_control.hum import _centred_kernel, _chi2_coeffs, window_mode_matrix
from torus_control.operators import (_refined_window_coeffs,
                                     fractional_multiplier, sobolev_weights)


def time_kernel(w, mu, T):
    """W * K for mode energies mu, in place over the mode matrix w,
    symmetrized: K = int_0^T exp(i*d*t) dt, d = mu_a - mu_b."""
    w *= np.exp(1j * np.subtract.outer(mu, mu) * (T / 2.0))
    w *= _centred_kernel(mu, T)
    return 0.5 * (w + w.conj().T)


def dense_gramian(spec):
    """Dense N x N exact-time Gramian S = W * K; in 2D it acts on every k_2
    alike (S_2d = S ⊗ I).  Grids past `hum.check_dense_size` raise
    DenseSizeError."""
    mu = (2.0 * np.pi * spec.grid.mode_indices()) ** 2
    return time_kernel(window_mode_matrix(spec.window), mu, spec.T)


def dense_gramian_2d(spec):
    """N^2 x N^2 exact-time Gramian of a 2D spec: the block-circulant
    W_ab = (chi^2)^(k_a - k_b) (per-axis differences, aliased) times the
    kernel of `dense_gramian` with mu = |2 pi k|^2."""
    grid = spec.grid
    c = _chi2_coeffs(spec.window.samples)
    n = grid.modes_per_axis
    diff = np.subtract.outer(np.arange(n), np.arange(n)) % n
    w = c[diff[:, None, :, None], diff[None, :, None, :]]
    return time_kernel(w.reshape(grid.n_points, grid.n_points),
                       -grid.laplacian_symbol().ravel(), spec.T)


def commutator_matrix(grid, r, s, f):
    """Matrix of [D^r, f] from H^s to H^(s-r+1) in FFT order, gathered with
    an int64 table of the unwrapped differences k - j and weighted out of
    place."""
    fhat = _refined_window_coeffs(grid, f)
    k = grid.mode_indices()
    dr = fractional_multiplier(grid, r)
    diff = (k[:, None] - k[None, :]) % len(fhat)
    mat = fhat[diff] * (dr[:, None] - dr[None, :])
    w_out = sobolev_weights(grid, s - r + 1.0)
    w_in = sobolev_weights(grid, s)
    return (w_out[:, None] * mat) / w_in[None, :]


def commutator_norm(grid, r, s, f):
    """Largest singular value of `commutator_matrix`."""
    return float(np.linalg.norm(commutator_matrix(grid, r, s, f), ord=2))
