"""HUM Gramian, observability constants, and exact control synthesis.

The control Gramian is

    S phi0 = integral_0^T exp(-i*t*Lap) chi^2 exp(i*t*Lap) phi0 dt,

a self-adjoint nonnegative operator; it is positive (and invertible)
exactly when the window observes every truncated mode.  The smallest
eigenvalue gives the observability constant C_T = 1 / lambda_min(S).

The Gramian is S_ab = W_ab * int_0^T exp(i*(mu_a - mu_b)*t) dt in closed
form, W_ab = c(k_a - k_b) the matrix of chi^2 along the first axis, c
the window's `coefficients` (which own the convention), mu = (2*pi*k_1)^2.
A 2D strip couples only equal k_2, whose share of mu_a - mu_b cancels
(S_2d = S ⊗ I), so C_T, the HUM solve and `drive_linear` act on
(N, N**(dim-1)) coefficients, by column.

Every eigensolve and solve runs on one real form.  Centring time on
[-T/2, T/2] is the similarity E = diag(exp(i*mu*T/2)): E^H S E = W * K,
K = T sinc((mu_a - mu_b)*T/2) real.  chi^2 is real and mu even in k, so
the unitary U taking e_l and e_-l to the cos and sin columns of level
l = |k_1| makes U^H W U real and leaves K as it is: S = P R P^H, P = E U,
R = Re(U^H W U) * K (`_real_gramian`; `_pair` applies P^H or P).  R runs
in level order, the cos levels 0 .. N/2 and then the sin levels
1 .. N/2 - 1, so `_real_window_form` builds Re(U^H W U) from Toeplitz and
Hankel views of the coefficients, and K, a function of the levels alone,
multiplies each of its four blocks as a plain slice of one
(N/2 + 1)^2 table (`_times_kernel`).  lambda_min is one real `eigvalsh`
of R; the strip check in `tensor` runs one per transverse pair
{k_2, -k_2}, whose blocks are forms of the same builder, and the
resolvent sweep uses the window form itself.  Only `drive_linear` stays
in the mode basis, so the certificate does not share the solve's
representation; it sums its source by level, N x (N/2 + 1) entries read
from the coefficients, and never builds W.  The NLS controlled solve
adds each step's exact source, W times the kernel at T = dt (the Gramian
of one step, `window_mode_matrix` in the mode basis), whose steps sum to
S: `local_control_nls` factors this same R once.

Every production path runs on numpy alone: real `eigvalsh`, and one real
Cholesky factorization per form (`_cholesky`), whose inverse factor is
built in place by 2 x 2 blocks (`_invert_lower`, about N^3/3 flops in
matrix products), after which `_solve` costs two real O(N^2) products per
right-hand side.

The matrix-free time quadrature (exact propagation between nodes) is kept
only as an independent oracle that owns its nodes: `quadrature_gramian`
takes the Gauss-Legendre node count, by default the resolved_n_quad nodes
on which `lambda_min_iterative` runs Lanczos, with no inner solve.  These
two oracles alone load scipy, on first call: scipy brings its own BLAS
thread pool, which contends with numpy's when both are in use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import FourierState, GridSpec, _check_same_grid, state_from_physical
from .operators import free_propagate, sobolev_weights
from .windows import CutoffWindow

#: Smallest Gramian eigenvalue considered numerically observable.
CONDITIONING_FLOOR = 1e-14

#: Dense mode-space arrays are refused above MAX_DENSE_POINTS**2 complex
#: entries (64 MB): N <= 2048 in 1D, N <= 160 in 2D.
MAX_DENSE_POINTS = 2048

# complex entries of the node-by-basis block the quadrature oracle
# transforms at once (4 MB; at least one node, 64 MB at the dense cap)
_ORACLE_BLOCK = 1 << 18

# order at and below which `_invert_lower` inverts a diagonal block by LU
_TRIANGLE_BLOCK = 32

# complex state entries `drive_linear` samples at once (256 kB; at least four
# times), and level sums it holds at once (512 kB; at least one k_2 column)
_SAMPLE_BLOCK = 1 << 14
_LEVEL_BLOCK = 1 << 15


class GramianSingularError(RuntimeError):
    """lambda_min fell below the conditioning floor: observability is
    numerically void at this truncation/window/horizon."""


class HUMConvergenceError(RuntimeError):
    """The closed-loop residual of the direct HUM solve exceeded its
    tolerance; the window is effectively too small for this truncation
    and horizon."""


class DenseSizeError(ValueError):
    """A dense mode-space array would exceed MAX_DENSE_POINTS**2 entries."""


@dataclass(frozen=True)
class GramianSpec:
    """Horizon and window defining the HUM operator
    S = int_0^T exp(-i*t*Lap) chi^2 exp(i*t*Lap) dt; it holds no time
    nodes (only the quadrature oracle takes them, as arguments)."""

    T: float
    window: CutoffWindow

    def __post_init__(self):
        if not 0.0 < self.T < np.inf:
            raise ValueError("T must be positive and finite")

    @property
    def grid(self) -> GridSpec:
        return self.window.grid


@dataclass
class ControlSolution:
    """HUM minimizer with its closed-loop certificate."""

    phi0: FourierState
    residual_l2: float
    iterations: int


@dataclass
class TrajectoryRecord:
    """Sampled controlled trajectory: mass and observed mass over time."""

    times: np.ndarray
    mass: np.ndarray
    observed_mass: np.ndarray


def __getattr__(name: str):
    """Module attribute `cg`: scipy's CG, imported on first access and kept
    in the module globals.  Its one user is the span tracer that wraps it,
    `perfbench/spans.py`; it goes with ROADMAP item 4(c)."""
    if name == "cg":
        from scipy.sparse.linalg import cg

        globals()["cg"] = cg
        return cg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@lru_cache(maxsize=32)
def _legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    # scipy's routine is much faster than numpy's for large n, and the
    # resolved node counts run into the thousands
    from scipy.special import roots_legendre

    return roots_legendre(n)


def quadrature_nodes(T: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of n-point Gauss-Legendre quadrature on [0, T]."""
    x, w = _legendre_nodes(n)
    return 0.5 * T * (x + 1.0), 0.5 * T * w


def resolved_n_quad(grid: GridSpec, T: float) -> int:
    """Node count resolving every oscillation of the Gramian integrand.

    Mode-pair phase differences reach mu_max = (2*pi*N/2)^2 (times dim in
    2D); Gauss-Legendre resolves frequency delta once n exceeds about
    delta*T/2, after which convergence is spectral.  The count takes a
    margin of 1.25 over that and 64 nodes more.
    """
    k_max = grid.modes_per_axis // 2
    mu_max = grid.dim * (2.0 * np.pi * k_max) ** 2
    return int(np.ceil(1.25 * mu_max * T / 2.0)) + 64


class _GramianApplier:
    """Matrix-free quadrature Gramian with precomputed node phases on n_quad
    Gauss-Legendre nodes (default: resolved_n_quad of them).  A phase table
    above MAX_DENSE_POINTS**2 entries (64 MB; the default reaches it above
    N ~ 87 in 1D, N ~ 24 in 2D at T = 1) raises DenseSizeError: pass
    quadrature_gramian an explicit, smaller n_quad."""

    def __init__(self, spec: GramianSpec, n_quad: int | None = None):
        grid = spec.grid
        if n_quad is None:
            n_quad = resolved_n_quad(grid, spec.T)
        if n_quad < 2:
            raise ValueError("n_quad must be >= 2")
        _check_entries(grid, n_quad, "node phases")
        self.grid = grid
        self.fft_axes = tuple(range(-grid.dim, 0))
        self.chi2 = spec.window.samples ** 2
        lam = grid.laplacian_symbol()
        t, self.weights = quadrature_nodes(spec.T, n_quad)
        # exp(i * t_j * Lap) for every node, shape (n_quad, *grid.shape)
        self.phases = np.exp(1j * t.reshape((-1,) + (1,) * grid.dim) * lam)

    def apply_batch(self, batch: np.ndarray, chunk: int = 256) -> np.ndarray:
        """batch shape (B,) + grid.shape -> same shape."""
        acc = np.zeros_like(batch)
        n_nodes = len(self.weights)
        for lo in range(0, n_nodes, chunk):
            ph = self.phases[lo:lo + chunk][:, None]
            v = ph * batch[None, ...]
            v = np.fft.ifftn(v, axes=self.fft_axes)
            v *= self.chi2
            v = np.fft.fftn(v, axes=self.fft_axes)
            v *= np.conj(ph)
            acc += np.tensordot(self.weights[lo:lo + chunk], v, axes=(0, 0))
        return acc

    def apply_one(self, coeffs: np.ndarray) -> np.ndarray:
        return self.apply_batch(coeffs[None])[0]


def _check_entries(grid: GridSpec, rows: int, what: str) -> None:
    """Refuse a rows x N**dim array of `what` above MAX_DENSE_POINTS**2."""
    if rows * grid.n_points > MAX_DENSE_POINTS ** 2:
        raise DenseSizeError(f"N = {grid.modes_per_axis} in {grid.dim}D: {rows} x "
                             f"{grid.n_points} {what} exceed {MAX_DENSE_POINTS}**2")


def check_dense_size(grid: GridSpec) -> None:
    """Refuse N * N**dim above MAX_DENSE_POINTS**2: N <= 2048 in 1D, 160 in 2D."""
    _check_entries(grid, grid.modes_per_axis, "mode-space entries")


def window_mode_matrix(window: CutoffWindow) -> np.ndarray:
    """W_ab = c(k_a - k_b), c the window's `coefficients`: multiplication by
    chi^2 along the first axis, in FFT order (in 2D, on each k_2 column
    alone), one `ifftshift` copy of a Toeplitz view in ascending order."""
    check_dense_size(window.grid)
    n = window.grid.modes_per_axis
    # c(m) for m = N-1 down to 1-N: row a of the reversed view reads c(a - b)
    c = window.coefficients(np.arange(n - 1, -n, -1))
    return np.fft.ifftshift(sliding_window_view(c, n)[::-1])


def _real_window_form(c: np.ndarray) -> np.ndarray:
    """Re(U^H W U), W_ab = c(k_a - k_b) over the N modes along one axis, for
    c on the modes -N .. N along its last axis (leading axes stack forms),
    in level order: rows and columns run over the cos levels l = 0 .. N/2,
    then the sin levels 1 .. N/2 - 1 (`_pair`).

    U takes the modes +-l of level l to the cos column (e_l + e_-l)/sqrt2
    and the sin column (e_l - e_-l)/(i sqrt2); the self-paired levels 0 and
    N/2 (the mode -N/2 alone) keep one cos column.  c(-m) = conj c(m)
    (chi^2 is real), so with T(l, l') = c(l - l') and H(l, l') = c(l + l'),
    both strided views of the Hermitian part of c, the form is
    [[Re T + Re H, Im T - Im H], [(Im T - Im H)^T, Re T - Re H]], the sin
    blocks on levels 1 .. N/2 - 1 alone, and 1/sqrt2 on the row and the
    column of each self-paired level.
    """
    n = c.shape[-1] // 2
    h = n // 2
    # view[..., i, j] = c(i + j - N): T(l, l') = view[h + l, h - l'], H = view[N + l, l']
    view = sliding_window_view(0.5 * (c + np.conj(c[..., ::-1])), h + 1, axis=-1)
    t, hk = view[..., h:n + 1, ::-1], view[..., n:n + h + 1, :]
    q = np.empty(c.shape[:-1] + (n, n))
    cos, sin = slice(None, h + 1), slice(h + 1, None)
    np.add(t.real, hk.real, out=q[..., cos, cos])
    np.subtract(t.real[..., 1:h, 1:h], hk.real[..., 1:h, 1:h], out=q[..., sin, sin])
    np.subtract(t.imag[..., 1:h], hk.imag[..., 1:h], out=q[..., cos, sin])
    q[..., sin, cos] = np.swapaxes(q[..., cos, sin], -1, -2)
    q[..., [0, h], :] *= np.sqrt(0.5)
    q[..., [0, h]] *= np.sqrt(0.5)
    return q


def _level_slots(n: int) -> np.ndarray:
    """The FFT-order slot of each row of the level-ordered real form: the
    mode +l at cos level l (-N/2 at level N/2), the mode -l at sin level l.
    It is an involution, so it also takes level order back to FFT order."""
    h = n // 2
    return np.r_[:h + 1, n - 1:h:-1]


def _mode_energies(grid: GridSpec) -> np.ndarray:
    """mu = (2 pi k)^2 along the first axis, in FFT order."""
    return (2.0 * np.pi * grid.mode_indices()) ** 2


def _level_energies(n: int) -> np.ndarray:
    """The distinct mu along an axis of N modes, on the levels |k| = 0 .. N/2:
    bit for bit those of `_mode_energies`."""
    return (2.0 * np.pi * np.arange(n // 2 + 1)) ** 2


def quadrature_gramian(spec: GramianSpec, n_quad: int | None = None) -> np.ndarray:
    """The oracle's dense Gramian on n_quad Gauss-Legendre nodes (default:
    resolved_n_quad): _GramianApplier on every basis vector, a few nodes at
    a time so each transformed block stays small."""
    n = spec.grid.n_points
    _check_entries(spec.grid, n, "basis entries")
    basis = np.eye(n, dtype=complex).reshape((n,) + spec.grid.shape)
    chunk = max(1, _ORACLE_BLOCK // (n * n))
    cols = _GramianApplier(spec, n_quad).apply_batch(basis, chunk=chunk)
    s = cols.reshape(n, n).T
    return 0.5 * (s + s.conj().T)


def _centred_kernel(mu: np.ndarray, T: float) -> np.ndarray:
    """The Gramian's real time kernel, time centred on [-T/2, T/2], for mode
    energies mu, d = mu_a - mu_b: int exp(i*d*t) dt = T sinc(d*T/2),
    sinc(y) = sin(y)/y; at T = dt, that of one step of the NLS controlled
    solve.  The real forms take it on the N/2 + 1 levels alone
    (`_times_kernel`); the NLS source table, in FFT order, on the N modes
    along the first axis."""
    x = np.subtract.outer(mu, mu) * (T / 2.0)
    return T * np.sinc(x / np.pi)


def _times_kernel(q: np.ndarray, T: float) -> np.ndarray:
    """q times the time kernel of the first-axis energies, in place, for q
    in the level order of `_real_window_form`.  The kernel depends on the
    levels |k_1| = 0 .. N/2 alone, so it is built on those ((N/2 + 1)^2
    entries), and each of q's four blocks takes a plain slice of it."""
    n = len(q)
    h = n // 2
    table = _centred_kernel(_level_energies(n), T)
    cos, sin = slice(None, h + 1), slice(h + 1, None)
    q[cos, cos] *= table
    q[cos, sin] *= table[:, 1:h]
    q[sin, cos] *= table[1:h]
    q[sin, sin] *= table[1:h, 1:h]
    return q


def _real_gramian(spec: GramianSpec) -> np.ndarray:
    """R = Re(U^H W U) * `_centred_kernel` (by `_times_kernel`), S = P R P^H;
    N x N in level order, for every k_2 column alike.  Grids past
    check_dense_size raise DenseSizeError."""
    check_dense_size(spec.grid)
    n = spec.grid.modes_per_axis
    return _times_kernel(_real_window_form(spec.window.coefficients(np.arange(-n, n + 1))),
                         spec.T)


def _pair(spec: GramianSpec, v: np.ndarray, back: bool = False) -> np.ndarray:
    """P^H v, from FFT order to the level order of `_real_window_form`, or
    P v given back, from level order to FFT order, for v of shape (N, m)
    (one column per k_2 in 2D): P = E U, E = diag(exp(i*mu*T/2)), which
    commutes with U.  Level l takes (v_l + v_-l)/sqrt2 on its cos row and
    i (v_l - v_-l)/sqrt2 on its sin row: slices of v gathered into level
    order (`_level_slots`)."""
    n = spec.grid.modes_per_axis
    h, slots = n // 2, _level_slots(n)
    phase = np.exp(0.5j * spec.T * _mode_energies(spec.grid)[slots])[:, None]
    out = v * phase if back else v[slots] * phase.conj()
    a, b = np.sqrt(0.5) * out[1:h], np.sqrt(0.5) * out[h + 1:]
    if back:
        b *= 1j
        out[1:h], out[h + 1:] = a - b, a + b
        return out[slots]
    out[1:h], out[h + 1:] = a + b, 1j * (a - b)
    return out


def lambda_min_dense(spec: GramianSpec) -> float:
    """Smallest eigenvalue of the exact-time Gramian: one real `eigvalsh` of
    its real form R (`_real_gramian`), the form every solve factors."""
    return float(np.linalg.eigvalsh(_real_gramian(spec))[0])


def lambda_min_iterative(spec: GramianSpec) -> float:
    """Smallest Gramian eigenvalue by Lanczos on the oracle's quadrature
    operator on resolved_n_quad nodes, applied matrix-free (see
    _GramianApplier for its ceiling).  The Krylov space takes all n modes,
    so Lanczos ends after n + 1 applications.  The start vector is a fixed
    pseudo-random draw, so repeated calls return the same value."""
    from scipy.sparse.linalg import LinearOperator, eigsh

    n, shape = spec.grid.n_points, spec.grid.shape
    applier = _GramianApplier(spec)
    op = LinearOperator((n, n), dtype=complex,
                        matvec=lambda x: applier.apply_one(x.reshape(shape)).ravel())
    draw = np.random.default_rng(0).standard_normal((2, n))
    vals = eigsh(op, k=1, which="SA", ncv=n, tol=1e-10, return_eigenvectors=False,
                 v0=draw[0] + 1j * draw[1])
    return float(vals[0].real)


def observability_constant(spec: GramianSpec) -> float:
    """Observability constant C_T = 1 / lambda_min(S) at this truncation,
    from the exact-time Gramian (a 2D strip has the 1D C_T).  A
    lambda_min below CONDITIONING_FLOOR, or NaN, raises GramianSingularError."""
    return _floored_inverse(lambda_min_dense(spec), spec)


def _floored_inverse(lam_min: float, spec: GramianSpec) -> float:
    grid = spec.grid
    if not lam_min >= CONDITIONING_FLOOR:  # NaN fails too
        raise GramianSingularError(
            f"lambda_min = {lam_min:.3e} below conditioning floor; observability "
            f"numerically void at N={grid.modes_per_axis} ({grid.dim}D), T={spec.T}")
    return 1.0 / lam_min


def _cholesky(r: np.ndarray, spec: GramianSpec) -> np.ndarray:
    """Inverse Cholesky factor L^-1 of the real r = L L^T, for `_solve`; an r
    not numerically positive definite raises GramianSingularError."""
    try:
        lower = np.linalg.cholesky(r)
    except np.linalg.LinAlgError as exc:
        raise GramianSingularError(
            f"Gramian not numerically positive definite at "
            f"N={spec.grid.modes_per_axis} ({spec.grid.dim}D), T={spec.T}: {exc}"
        ) from exc
    # numpy has no triangular solve: invert L once, in place, so that each
    # later solve is two O(N^2) products, not a new factorization
    _invert_lower(lower)
    return lower


def _invert_lower(lower: np.ndarray) -> None:
    """lower <- lower^-1 in place, for a nonsingular lower triangular
    `lower`, by 2 x 2 blocks, [[A, 0], [C, D]]^-1 = [[A^-1, 0],
    [-D^-1 C A^-1, D^-1]]: about N^3/3 flops, all in matrix products, where
    a general LU inverse takes 8N^3/3 (as stable: Du Croz and Higham, IMA
    J. Numer. Anal. 12, 1992).  Blocks of order _TRIANGLE_BLOCK or less are
    inverted by LU, and their upper triangle set to exact zeros."""
    n = len(lower)
    if n <= _TRIANGLE_BLOCK:
        lower[...] = np.tril(np.linalg.inv(lower))
        return
    h = n // 2
    a, c, d = lower[:h, :h], lower[h:, :h], lower[h:, h:]
    _invert_lower(a)
    _invert_lower(d)
    np.matmul(c, a, out=c)
    np.matmul(d, c, out=c)
    np.negative(c, out=c)


def _times(mat: np.ndarray, z: np.ndarray) -> np.ndarray:
    """mat @ z, mat real, z complex (N, m): one real product on z's float view."""
    return (mat @ np.ascontiguousarray(z).view(np.float64)).view(complex)


def _solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """R^-1 rhs = L^-T (L^-1 rhs), given factor = `_cholesky`(R); the complex
    rhs has one column per right-hand side."""
    return _times(factor.T, _times(factor, rhs))


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < np.inf:  # NaN fails too
        raise ValueError(f"tol must be positive and finite, got {tol}")


def _positive_int(value, name: str) -> int:
    """An integral value >= 1 (2.0 too) as an int; anything else, NaN and
    inf included, raises a ValueError naming it."""
    if not (1 <= value < np.inf and int(value) == value):  # NaN fails too
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def solve_hum(spec: GramianSpec, target: FourierState,
              tol: float = 1e-8) -> ControlSolution:
    """HUM minimizer phi0 driving `target` to zero at time T.

    Solves S phi0 = -i * target in the paired basis, S = P R P^H, with one
    real Cholesky factorization: v = P^H target, psi = R^-1 (-i v),
    phi0 = P psi.  With the control source chi^2 exp(i*t*Lap) phi0 the
    Duhamel formula gives u(T) = exp(i*T*Lap) (u0 - i S phi0), so the
    closed-loop final mass is ||target - i S phi0|| = ||v - i R psi||; a
    residual above tol * ||target||, or NaN, raises HUMConvergenceError.
    """
    _check_tol(tol)
    _check_same_grid(spec, target)
    r = _real_gramian(spec)
    v = _pair(spec, target.coeffs.reshape(len(r), -1))
    psi = _solve(_cholesky(r, spec), -1j * v)
    residual = float(np.linalg.norm(v - 1j * _times(r, psi)))
    if not residual <= tol * target.norm_l2():  # NaN fails too
        raise HUMConvergenceError(
            f"closed-loop residual {residual:.3e} above tol * ||target|| = "
            f"{tol * target.norm_l2():.3e}; the Gramian is effectively "
            f"ill-conditioned for this window/truncation"
        )
    phi0 = FourierState(spec.grid, _pair(spec, psi, back=True).reshape(spec.grid.shape))
    return ControlSolution(phi0=phi0, residual_l2=residual, iterations=0)


def synthesize_control(spec: GramianSpec, phi0: FourierState, t: float) -> FourierState:
    """Control source at time t: chi^2 * (exp(i*t*Lap) phi0)."""
    if not (0.0 <= t <= spec.T):
        raise ValueError(f"t = {t} outside the control horizon [0, {spec.T}]")
    _check_same_grid(spec, phi0)
    propagated = free_propagate(phi0, t)
    return state_from_physical(spec.grid,
                               propagated.physical() * spec.window.samples ** 2)


def drive_linear(u0: FourierState, spec: GramianSpec,
                 phi0: FourierState) -> tuple[TrajectoryRecord, float]:
    """Integrate i u_t + Lap u = chi^2 exp(i t Lap) phi0 from u0 over [0, T],
    exactly in time.

    Duhamel gives u(t) = exp(i t Lap) (u0 - i S(t) phi0), with S(t) the
    Gramian over [0, t].  With d_ab = mu_a - mu_b, A = W / (i d) off the
    degenerate set d = 0 and B = W on it,

        u(t) = -i A (e phi) + e (u0 + i A phi - i t B phi),  e = exp(-i mu t).

    e takes one value per level |k| = 0 .. N/2, so A (e phi) is the sum
    over levels of A phi's level sums, each times its exp(-i mu t).  The
    N x (N/2 + 1) level sums are read straight from the window's
    `coefficients`, with no N x N matrix; A phi and B phi are theirs too,
    and u0 + i A phi joins them at each row's own level.  A block of
    samples, of every k_2 column, is then one product with the
    (N/2 + 1) x t table of exp(-i mu t) and one update for the secular
    term -i t B phi.  The samples are max(32, 4N) uniform times on [0, T],
    both endpoints included, taken in blocks of a multiple of 4 times that
    hold at most 2^14 state entries (or 4 times).  One FFT along the first
    axis only gives u(x_1, t) (chi is constant in x_2, and Plancherel holds
    in k_2), from which ||u(t)||^2 and ||chi u(t)||^2 are summed by
    Parseval.  It holds level sums of at most 2^15 entries (or one k_2
    column) and a few arrays of one block (256 kB each), never the whole
    trajectory.  Returns the samples and ||u(T)||_L2.
    """
    _check_same_grid(spec, u0, phi0)
    check_dense_size(spec.grid)
    n = spec.grid.modes_per_axis
    h = n // 2
    times = np.linspace(0.0, spec.T, max(32, 4 * n))
    up, energies = np.arange(h + 1), _level_energies(n)
    phi = phi0.coeffs.reshape(n, -1)
    # rows k_1 = -N/2 .. N/2 - 1 ascending, each at level |k_1|: the FFT
    # then gives u(x_1) times (-1)^j, which leaves every |u|^2 as it is.
    # Level l holds the modes +l (slot l, l < N/2) and -l (slot -l mod N,
    # l > 0): W phi summed over it is c(k_a - l) phi_l + c(k_a + l) phi_-l,
    # both strided views of the coefficients
    c = spec.window.coefficients(np.arange(-n, n + 1))
    minus = sliding_window_view(c[::-1], h + 1)[n + h:n - h:-1, None]  # c(k_a - l)
    plus = sliding_window_view(c, h + 1)[n - h:n + h, None]  # c(k_a + l)
    level = np.abs(np.arange(-h, h))
    own = (np.arange(n), slice(None), level)
    start = np.fft.fftshift(u0.coeffs.reshape(n, -1), axes=0)
    chi2 = spec.window.samples.reshape(n, 1, -1)[..., :1] ** 2  # x_1 profile
    mass, observed = np.zeros_like(times), np.zeros_like(times)
    # k_2 columns a chunk at a time (all of them up to N = 38 in 2D), and
    # times in whole groups of 4, as max(32, 4N) is: each block's product
    # then splits its columns as one product over all times does, and no
    # sample depends on the time block size
    cols = min(phi.shape[1], max(1, _LEVEL_BLOCK // (n * (h + 1))))
    per = max(4, _SAMPLE_BLOCK // (n * cols) // 4 * 4)
    for j in range(0, phi.shape[1], cols):
        # axes (k_1, k_2, level); B phi is each row's own level, -i A =
        # -W / d off it, and u0 + i A phi takes its place
        sums = minus * np.where(up < h, phi[up, j:j + cols].T, 0.0)
        sums += plus * np.where(up > 0, phi[-up % n, j:j + cols].T, 0.0)
        secular = -1j * sums[own][..., None]
        with np.errstate(divide="ignore", invalid="ignore"):  # d = 0, set next
            sums /= (energies - energies[level][:, None])[:, None]
        sums[own] = 0.0
        sums[own] = start[:, j:j + cols] - sums.sum(axis=2)
        sums = sums.reshape(-1, h + 1)
        for i in range(0, len(times), per):
            t = times[i:i + per]
            # exp(-i mu t) by its real and imaginary parts: faster than a
            # complex exp, with the same phases
            phase, free = np.outer(-energies, t), np.empty((h + 1, len(t)), complex)
            np.cos(phase, out=free.real)
            np.sin(phase, out=free.imag)
            states = (sums @ free).reshape(n, -1, len(t))
            free *= t
            states[:h + 1] += secular[:h + 1] * free[::-1, None]
            states[h + 1:] += secular[h + 1:] * free[1:h, None]
            np.fft.ifft(states, axis=0, norm="forward", out=states)
            power = states.real ** 2
            power += states.imag ** 2
            mass[i:i + per] += np.sum(power, axis=(0, 1))
            power *= chi2
            observed[i:i + per] += np.sum(power, axis=(0, 1))
    mass /= n
    observed /= n
    record = TrajectoryRecord(times=times, mass=mass, observed_mass=observed)
    return record, float(np.sqrt(mass[-1]))


def hum_regularity_ratio(spec: GramianSpec, s: float, n_samples: int,
                         rng: np.random.Generator) -> dict:
    """H^s amplification statistics of S^{-1} over random unit-H^s data.

    Draws n_samples states with H^s norm 1, solves S phi0 = psi0, and
    reports the max and mean of ||phi0||_{H^s}.  Requires s >= 0 and a
    smooth window for the bounded-in-N contract to make sense.
    """
    if not 0.0 <= s < np.inf:
        raise ValueError(f"s must be finite and >= 0, got {s}")
    n_samples = _positive_int(n_samples, "n_samples")
    grid = spec.grid
    if grid.dim != 1:
        raise ValueError("regularity study uses the 1D Gramian")
    # Sample from an N-stable Gaussian measure on the unit H^s sphere:
    # coefficients ~ g_k * (1+|2 pi k|^2)^{-(s+1)/2}.  The extra decay
    # makes the tail summable, so refining the grid only appends
    # negligible modes and the statistic can converge in N.
    g = rng.standard_normal((n_samples, 2) + grid.shape)
    psi0 = (g[:, 0] + 1j * g[:, 1]) * sobolev_weights(grid, -(s + 1.0))
    weights = sobolev_weights(grid, s)
    psi0 /= np.linalg.norm(psi0 * weights, axis=1, keepdims=True)
    factor = _cholesky(_real_gramian(spec), spec)
    phi0 = _pair(spec, _solve(factor, _pair(spec, psi0.T)), back=True).T
    ratios = np.linalg.norm(phi0 * weights, axis=1)
    return {"max": float(ratios.max()), "mean": float(ratios.mean()),
            "ratios": ratios, "s": s, "n_samples": n_samples}
