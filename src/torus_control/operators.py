"""Free Schrodinger propagator, fractional multiplier D^r, Sobolev weights
and the operator norm of the commutator [D^r, f].

The free flow diagonalizes on Fourier modes: u_hat(k) picks up the phase
exp(-i*(2*pi*k)^2*t) in 1D (and exp(-i*(2*pi)^2*(k1^2+k2^2)*t) in 2D), so
propagation is exact and norm preserving for every Sobolev index.

D^r is the multiplier sgn(n)*|n|^r on nonzero modes and the identity on
the zero mode.  It deliberately uses the bare integer n, while Sobolev
weights use (1 + |2*pi*k|^2)^(1/2); the two scalings coexist.

The commutator norm never forms a matrix.  In ascending mode order the
operator [D^r, f] from H^s to H^(s-r+1) is A = W_out (D T0 - T0 D) W_in^-1:
D, W_out and W_in diagonal, T0 the Toeplitz matrix of f_hat(k - j)
without the mean f_hat(0), which commutes with D.  f_hat are the window's
`coefficients` of chi (p = 1), sampled on a grid 4 times finer: on the
state grid they alias, and mode pairs near the two ends of the spectrum
would couple through wrapped differences, which wrecks the commutator's
cancellation.  T0 acts by FFT through a 2N-point circulant embedding, and
the norm sqrt(lambda_max(A^H A)) comes from a short Lanczos run with full
reorthogonalization, which stops on a relative Ritz residual of 1e-15.
Its working memory is O(kN) for k steps (7 to 46 at N <= 512 on a smooth
window), not the N x N matrix and its SVD.
"""

from __future__ import annotations

import numpy as np

from .grid import FourierState, GridSpec, make_grid
from .windows import make_window

#: Lanczos stops once the top Ritz residual is this far below its value.
_LANCZOS_RTOL = 1e-15
#: Rows the Lanczos basis starts with; it doubles when full.
_LANCZOS_ROWS = 8


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


def _commutator_products(grid: GridSpec, r: float, s: float, f):
    """Matrix-free products v -> A v and u -> A^H u, on the last axis, of the
    module's A = W_out (D T0 - T0 D) W_in^-1 in ascending mode order
    k = -N/2 ... N/2 - 1 (1D only).  Without the mean, a constant window
    gives exactly 0.  The symbol of T0's circulant embedding is transformed
    once; the adjoint takes its conjugate.  A window f on another grid
    raises ValueError."""
    if f.grid != grid:
        raise ValueError(f"grid mismatch: {grid} vs the window's {f.grid}")
    if grid.dim != 1:
        raise ValueError("the commutator [D^r, f] is defined on the 1D torus only")
    n = grid.modes_per_axis
    fine = make_window(make_grid(1, 4 * n), f.omega, transition_width=f.transition_width,
                       kind=f.kind)
    # circulant column: f_hat(0 ... N-1), the pad slot m = -N, f_hat(-(N-1)
    # ... -1); the mean and the pad are zeroed
    column = fine.coefficients(np.roll(np.arange(-n, n), n), p=1)
    column[[0, n]] = 0.0
    symbol = np.fft.fft(column)
    d = np.fft.fftshift(fractional_multiplier(grid, r))
    w_out = np.fft.fftshift(sobolev_weights(grid, s - r + 1.0))
    w_in = np.fft.fftshift(sobolev_weights(grid, s))

    def toeplitz(v, sym):
        return np.fft.ifft(sym * np.fft.fft(v, 2 * n), axis=-1)[..., :n]

    def forward(v):
        t = toeplitz(np.stack((v, d * v)) / w_in, symbol)
        return w_out * (d * t[0] - t[1])

    def adjoint(u):
        t = toeplitz(np.stack((d * u, u)) * w_out, symbol.conj())
        return (t[0] - d * t[1]) / w_in

    return forward, adjoint


def commutator_operator_norm(grid: GridSpec, r: float, s: float, f) -> float:
    """Empirical H^s -> H^(s-r+1) operator norm of u -> [D^r, f] u.

    The largest singular value sigma of the operator A of
    `_commutator_products`, never formed: sigma^2 = lambda_max(A^H A) comes
    from Lanczos with full reorthogonalization (classical Gram-Schmidt,
    twice), from a start vector drawn with a fixed seed, so every call gives
    the same bits.  It stops once the top Ritz pair's residual
    beta_k |y_k| is at most `_LANCZOS_RTOL` times its Ritz value, or when
    the Krylov space is exhausted (beta = 0 or k = N).  Beside the k x N
    basis of k steps it holds O(N) vectors and the k x k tridiagonal.  r
    and s must be finite.
    """
    for name, value in (("r", r), ("s", s)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    forward, adjoint = _commutator_products(grid, r, s, f)
    n = grid.modes_per_axis
    start = np.random.default_rng(0).standard_normal((2, n))
    q = start[0] + 1j * start[1]
    q /= np.linalg.norm(q)
    basis = np.empty((min(n, _LANCZOS_ROWS), n), complex)
    alpha, beta = [], []
    for k in range(n):
        if k == len(basis):  # double the rows of a full basis
            basis, full = np.empty((min(n, 2 * k), n), complex), basis
            basis[:k] = full
        basis[k] = q
        w = adjoint(forward(q))
        alpha.append(np.vdot(q, w).real)
        done = basis[:k + 1]
        for _ in range(2):
            w -= (done @ w.conj()).conj() @ done
        beta.append(np.linalg.norm(w))
        tri = np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
        theta, vecs = np.linalg.eigh(tri)
        if beta[-1] * abs(vecs[-1, -1]) <= _LANCZOS_RTOL * theta[-1] or beta[-1] == 0.0:
            break
        q = w / beta[-1]
    return float(np.sqrt(max(theta[-1], 0.0)))
