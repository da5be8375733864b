"""Reference implementations the package is checked against.

The phased complex Gramians are the references for the real centred form of
`torus_control.hum`, and `level_basis` for the unitary it is built in;
`commutator_norm` is the FFT-order reference for
`torus_control.operators.commutator_operator_norm`.

The package solves on S = P R P^H, R real (`hum._real_gramian`, `hum._pair`).
These build S itself, W * K with K = exp(i*x) * `hum._centred_kernel`,
x = (mu_a - mu_b)*T/2: the phase the real form centres away, put back
entry by entry in complex arithmetic.  They take from the package only its
kernel and the window's coefficients (`CutoffWindow.coefficients`), read at
true mode differences.
"""

import numpy as np

from torus_control.grid import make_grid
from torus_control.hum import _centred_kernel, window_mode_matrix
from torus_control.operators import fractional_multiplier, sobolev_weights
from torus_control.windows import make_window


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
    """N^2 x N^2 exact-time Gramian of a 2D spec: W_ab = (chi^2)^(k_a - k_b)
    of the whole window, per-axis mode differences, times the kernel of
    `dense_gramian` with mu = |2 pi k|^2."""
    grid = spec.grid
    k = grid.mode_indices()
    diff = np.subtract.outer(k, k)
    w = spec.window.coefficients(diff[:, None, :, None], diff[None, :, None, :])
    return time_kernel(w.reshape(grid.n_points, grid.n_points),
                       -grid.laplacian_symbol().ravel(), spec.T)


def level_basis(n, dim=1):
    """U column by column over the N**dim modes in row-major FFT order, for
    the level order of `hum._real_window_form`: along one axis, column l
    (cos level l) is (e_l + e_-l)/sqrt2, e_0 at l = 0 and e_-N/2 at
    l = N/2, and column N/2 + l (sin level l, 0 < l < N/2) is
    (e_l - e_-l)/(i sqrt2); in 2D column (a, b) is the product of column a
    along the first axis and column b along the second."""
    h = n // 2
    u = np.zeros((n, n), dtype=complex)
    u[0, 0] = u[h, h] = 1.0
    for level in range(1, h):
        u[level, level] = u[-level, level] = np.sqrt(0.5)
        u[level, h + level], u[-level, h + level] = -1j * np.sqrt(0.5), 1j * np.sqrt(0.5)
    assert np.allclose(u.conj().T @ u, np.eye(n), atol=1e-15)
    return u if dim == 1 else np.kron(u, u)


def pair_columns(n, q):
    """The columns of the 2D `level_basis` that `tensor._transverse_form`
    takes for the transverse pair {q, -q}, in its order: every first-axis
    level times the cos (second-axis level q), then times the sin (level
    N/2 + q, for 0 < q < N/2)."""
    second = [q] if q in (0, n // 2) else [q, n // 2 + q]
    return np.concatenate([np.arange(n) * n + b for b in second])


def commutator_matrix(grid, r, s, f):
    """Matrix of [D^r, f] from H^s to H^(s-r+1) in FFT order: the
    coefficients of f, sampled on a grid 4 times finer, at the unwrapped
    differences k - j, weighted out of place."""
    fine = make_window(make_grid(1, 4 * grid.modes_per_axis), f.omega,
                       transition_width=f.transition_width, kind=f.kind)
    k = grid.mode_indices()
    dr = fractional_multiplier(grid, r)
    mat = fine.coefficients(np.subtract.outer(k, k), p=1) * (dr[:, None] - dr[None, :])
    w_out = sobolev_weights(grid, s - r + 1.0)
    w_in = sobolev_weights(grid, s)
    return (w_out[:, None] * mat) / w_in[None, :]


def commutator_norm(grid, r, s, f):
    """Largest singular value of `commutator_matrix`."""
    return float(np.linalg.norm(commutator_matrix(grid, r, s, f), ord=2))
