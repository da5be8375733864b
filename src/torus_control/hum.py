"""HUM Gramian, observability constants, and exact control synthesis.

The control Gramian is

    S phi0 = integral_0^T exp(-i*t*Lap) chi^2 exp(i*t*Lap) phi0 dt,

a self-adjoint nonnegative operator; it is positive (and invertible)
exactly when the window observes every truncated mode.  The smallest
eigenvalue gives the observability constant C_T = 1 / lambda_min(S).

The production path is the N x N Gramian S_ab = W_ab * int_0^T
exp(i*(mu_a - mu_b)*t) dt in closed form, W the circulant matrix of chi^2
along the first axis, mu = (2*pi*k_1)^2.  A 2D strip couples only equal
k_2, whose share of mu_a - mu_b cancels (S_2d = S ⊗ I), so C_T, the HUM
solve and `drive_linear` act on (N, N**(dim-1)) coefficients, by column.

lambda_min needs no complex matrix.  Centring time on [-T/2, T/2] is the
diagonal similarity E = diag(exp(i*mu*T/2)): E^H S E = W * T sinc(x), with
x = (mu_a - mu_b)*T/2.  chi^2 is real and mu is even in k, so the unitary U
that pairs e_k and e_-k into (cos, sin) columns makes U^H W U real and
leaves the kernel as it is; `_real_window_form` gathers that real form
straight from the chi^2 coefficients, in any dim, and `lambda_min_dense`
runs one real `eigvalsh` on it times T sinc(x).  The strip check
(`tensor`) and the resolvent sweep use the same form.  The solves keep the
phased complex S.

The same closed form with the midpoint sum in place of the time integral
(`dense_gramian(spec, n_steps)`) is the Gramian of the NLS stepper's own
midpoint source; `local_control_nls` assembles and Cholesky-factors it once.

Every production solve runs on numpy.linalg alone: `lambda_min_dense` is
one real `eigvalsh`, and each Gramian is Cholesky-factored once (`_cholesky`),
after which `_solve` costs two O(N^2) products per right-hand side.  The
CLI and every production path therefore need numpy only.

The matrix-free time quadrature (exact propagation between nodes) is kept
only as an independent oracle that owns its nodes: `quadrature_gramian`
takes the node count and rule (Gauss-Legendre or midpoint), by default the
resolved_n_quad Gauss-Legendre nodes on which `lambda_min_iterative` runs
Lanczos, with no inner solve.  These two oracles alone load scipy, on
first call: scipy brings its own BLAS thread pool, which contends with
numpy's when both are in use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import FourierState, GridSpec, state_from_physical
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


def quadrature_nodes(T: float, n: int, rule: str) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the time quadrature on [0, T]."""
    if rule == "gauss-legendre":
        x, w = _legendre_nodes(n)
        return 0.5 * T * (x + 1.0), 0.5 * T * w
    if rule == "midpoint":
        h = T / n
        return (np.arange(n) + 0.5) * h, np.full(n, h)
    raise ValueError(f"unknown quadrature rule {rule!r}")


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
    nodes of `rule` (default: resolved_n_quad Gauss-Legendre nodes).  A
    phase table above MAX_DENSE_POINTS**2 entries (64 MB; the default
    reaches it above N ~ 87 in 1D, N ~ 24 in 2D at T = 1) raises
    DenseSizeError: pass quadrature_gramian an explicit, smaller n_quad."""

    def __init__(self, spec: GramianSpec, n_quad: int | None = None,
                 rule: str = "gauss-legendre"):
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
        t, self.weights = quadrature_nodes(spec.T, n_quad, rule)
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
    """Matrix of multiplication by chi^2 along the first axis: the N x N
    circulant W_ab = (chi^2)^(k_a - k_b), the mode difference aliased onto
    the grid.  In 2D the strip window's W acts on each k_2 column alone."""
    check_dense_size(window.grid)
    c = _profile_coeffs(window)
    n = len(c)
    return c[np.subtract.outer(np.arange(n), np.arange(n)) % n]


def _chi2_coeffs(samples: np.ndarray) -> np.ndarray:
    """Fourier coefficients (chi^2)^(k) of window samples, in FFT order."""
    return np.fft.fftn(samples ** 2) / samples.size


def _profile_coeffs(window: CutoffWindow) -> np.ndarray:
    """chi^2 coefficients of the window's first-axis profile (its x_1 slice)."""
    return _chi2_coeffs(window.samples.reshape(window.grid.modes_per_axis, -1)[:, 0])


def _real_window_form(c: np.ndarray) -> np.ndarray:
    """Real form Re(U^H W U) of the window matrix W_ab = c(k_a - k_b), for
    chi^2 coefficients c of shape (N,) * dim, over the N**dim modes in
    row-major FFT order.

    U pairs each mode k with -k.  Of the two slots, the first in row-major
    order holds the cos column (e_k + e_-k)/sqrt2, the other the sin
    column (e_k - e_-k)/(i sqrt2); a self-paired mode (every component 0
    or N/2) keeps e_k.  chi^2 is real, so c(-m) = conj c(m) and U^H W U is
    real.  With d = k_a - k_b and s = k_a + k_b, k the slot's own mode, the
    entry is Re c(d) + Re c(s) between cos slots, Re c(d) - Re c(s) between
    sin slots, Im c(s) - Im c(d) from a cos to a sin slot and
    Im c(s) + Im c(d) from a sin to a cos slot, each scaled by 1/sqrt2 per
    self-paired index.  Every term is a real gather into one real output.
    """
    dim, n = c.ndim, c.shape[0]
    neg = np.ix_(*[-np.arange(n) % n] * dim)
    c = 0.5 * (c + np.conj(c[neg]))  # exactly Hermitian, so the form is symmetric
    slot = np.arange(c.size).reshape(c.shape)
    partner = slot[neg]
    kind = (slot > partner).astype(np.intp)  # 0 cos or self-paired, 1 sin
    # tables[kind_a, kind_b] of the d and s terms
    re, im = c.real, c.imag
    d_terms = np.array([[re, -im], [im, re]])
    s_terms = np.array([[re, im], [im, -re]])
    # output axes (a_1..a_dim, b_1..b_dim); axis pair (i, dim + i) indexes k_i
    kinds = (kind.reshape(c.shape + (1,) * dim), kind.reshape((1,) * dim + c.shape))
    ar = np.arange(n)

    def along_axes(index):
        return tuple(index.reshape([n if j in (i, dim + i) else 1
                                    for j in range(2 * dim)]) for i in range(dim))

    q = d_terms[kinds + along_axes(np.subtract.outer(ar, ar) % n)]
    q += s_terms[kinds + along_axes(np.add.outer(ar, ar) % n)]
    q = q.reshape(c.size, c.size)
    self_paired = (slot == partner).ravel()
    q[self_paired] *= np.sqrt(0.5)
    q[:, self_paired] *= np.sqrt(0.5)
    return q


def _mode_energies(grid: GridSpec) -> np.ndarray:
    """mu = (2 pi k)^2 along the first axis, in FFT order."""
    return (2.0 * np.pi * grid.mode_indices()) ** 2


def quadrature_gramian(spec: GramianSpec, n_quad: int | None = None,
                       rule: str = "gauss-legendre") -> np.ndarray:
    """The oracle's dense Gramian: _GramianApplier on every basis vector, a
    few nodes at a time so each transformed block stays small."""
    n = spec.grid.n_points
    _check_entries(spec.grid, n, "basis entries")
    basis = np.eye(n, dtype=complex).reshape((n,) + spec.grid.shape)
    chunk = max(1, _ORACLE_BLOCK // (n * n))
    cols = _GramianApplier(spec, n_quad, rule).apply_batch(basis, chunk=chunk)
    s = cols.reshape(n, n).T
    return 0.5 * (s + s.conj().T)


def _centred_kernel(mu: np.ndarray, T: float) -> np.ndarray:
    """The exact-time kernel with time centred on [-T/2, T/2]: T * sinc(x),
    x = (mu_a - mu_b)*T/2, sinc(y) = sin(y)/y, for mode energies mu.  It is
    computed on the distinct values of mu and gathered."""
    vals, inverse = np.unique(mu, return_inverse=True)
    x = np.subtract.outer(vals, vals) * (T / 2.0)
    return (T * np.sinc(x / np.pi))[np.ix_(inverse, inverse)]


def _time_kernel(w: np.ndarray, mu: np.ndarray, T: float, n_steps) -> np.ndarray:
    """W * K for mode energies mu, in place over the mode matrix w, symmetrized.

    With d = mu_a - mu_b and x = d*T/2, the exact integral is the phase
    times `_centred_kernel`, K = int_0^T exp(i*d*t) dt = exp(i*x) * T * sinc(x).
    Given n_steps, K is the midpoint sum h * sum_j exp(i*d*t_j),
    t_j = (j + 1/2)*h, h = T/n: exp(i*x) * h * sin(n*th)/sin(th), th = x/n,
    the linear part of the NLS stepper's controlled solve.  Reducing
    th = m*pi + r, |r| <= pi/2, gives (-1)^(m*(n-1)) * n * sinc(n*r)/sinc(r),
    finite where th is a nonzero multiple of pi.
    """
    x = np.subtract.outer(mu, mu) * (T / 2.0)
    w *= np.exp(1j * x)
    if n_steps is None:
        w *= _centred_kernel(mu, T)
    else:
        x /= n_steps
        m = np.rint(x / np.pi)
        x -= m * np.pi
        w *= np.where(m * (n_steps - 1) % 2, -T, T)
        w *= np.sinc(n_steps * x / np.pi) / np.sinc(x / np.pi)
    return 0.5 * (w + w.conj().T)


def dense_gramian(spec: GramianSpec, n_steps: int | None = None) -> np.ndarray:
    """Dense N x N Gramian S = W * K of `_time_kernel`, exact in time or the
    midpoint sum of n_steps; in 2D it acts on every k_2 alike (S_2d = S ⊗ I).
    Grids past check_dense_size raise DenseSizeError."""
    return _time_kernel(window_mode_matrix(spec.window), _mode_energies(spec.grid),
                        spec.T, n_steps)


def lambda_min_dense(spec: GramianSpec) -> float:
    """Smallest eigenvalue of the exact-time dense Gramian, from its real
    form (see the module docstring)."""
    check_dense_size(spec.grid)
    return _lambda_min_real(_profile_coeffs(spec.window), _mode_energies(spec.grid),
                            spec.T)


def _lambda_min_real(c: np.ndarray, mu: np.ndarray, T: float) -> float:
    """lambda_min of the exact-time Gramian of chi^2 coefficients c and mode
    energies mu (one per mode, in the order of `_real_window_form`): one
    real `eigvalsh` of Re(U^H W U) * T sinc(x)."""
    q = _real_window_form(c)
    q *= _centred_kernel(mu, T)
    return float(np.linalg.eigvalsh(q)[0])


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
    from the exact-time dense Gramian (a 2D strip has the 1D C_T).  A
    lambda_min below CONDITIONING_FLOOR, or NaN, raises GramianSingularError."""
    return _floored_inverse(lambda_min_dense(spec), spec)


def _floored_inverse(lam_min: float, spec: GramianSpec) -> float:
    grid = spec.grid
    if not lam_min >= CONDITIONING_FLOOR:  # NaN fails too
        raise GramianSingularError(
            f"lambda_min = {lam_min:.3e} below conditioning floor; observability "
            f"numerically void at N={grid.modes_per_axis} ({grid.dim}D), T={spec.T}")
    return 1.0 / lam_min


def _cholesky(s_mat: np.ndarray, spec: GramianSpec) -> np.ndarray:
    """Inverse Cholesky factor L^-1 of s_mat = L L^H, for `_solve`.  A matrix
    that is not numerically positive definite raises GramianSingularError."""
    try:
        lower = np.linalg.cholesky(s_mat)
    except np.linalg.LinAlgError as exc:
        raise GramianSingularError(
            f"Gramian not numerically positive definite at "
            f"N={spec.grid.modes_per_axis} ({spec.grid.dim}D), T={spec.T}: {exc}"
        ) from exc
    # numpy has no triangular solve: invert L once, so that each later
    # solve is two O(N^2) products, not a new factorization
    return np.linalg.inv(lower)


def _solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """S^-1 rhs = L^-H (L^-1 rhs), given factor = `_cholesky`(S); rhs has one
    column per right-hand side."""
    return factor.conj().T @ (factor @ rhs)


def solve_hum(spec: GramianSpec, target: FourierState,
              tol: float = 1e-8) -> ControlSolution:
    """HUM minimizer phi0 driving `target` to zero at time T.

    Solves S phi0 = -i * target with one Cholesky factorization of the
    exact-time Gramian.  With the control source chi^2 exp(i*t*Lap) phi0 the
    Duhamel formula gives u(T) = exp(i*T*Lap) (u0 - i S phi0), so the
    closed-loop final mass is ||target - i S phi0||; a residual above
    tol * ||target||, or NaN, raises HUMConvergenceError.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if target.grid != spec.grid:
        raise ValueError("grid mismatch between target and Gramian spec")
    s_mat = dense_gramian(spec)
    u0 = target.coeffs.reshape(len(s_mat), -1)
    phi = _solve(_cholesky(s_mat, spec), -1j * u0)
    residual = float(np.linalg.norm(u0 - 1j * (s_mat @ phi)))
    if not residual <= tol * target.norm_l2():  # NaN fails too
        raise HUMConvergenceError(
            f"closed-loop residual {residual:.3e} above tol * ||target|| = "
            f"{tol * target.norm_l2():.3e}; the Gramian is effectively "
            f"ill-conditioned for this window/truncation"
        )
    phi0 = FourierState(spec.grid, phi.reshape(spec.grid.shape))
    return ControlSolution(phi0=phi0, residual_l2=residual, iterations=0)


def synthesize_control(spec: GramianSpec, phi0: FourierState, t: float) -> FourierState:
    """Control source at time t: chi^2 * (exp(i*t*Lap) phi0)."""
    if not (0.0 <= t <= spec.T):
        raise ValueError(f"t = {t} outside the control horizon [0, {spec.T}]")
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

        S(t) phi = exp(i mu t) * A (exp(-i mu t) * phi) - A phi + t B phi,

    so every sample, of every k_2 column, comes from one matrix product.
    The samples are max(32, 4N) uniform times on [0, T], both endpoints
    included; ||chi u(t)||^2 takes an FFT along the first axis only (chi is
    constant in x_2, and Plancherel holds in k_2).  Returns the sampled
    trajectory and ||u(T)||_L2, the root of the last mass sample.
    """
    if u0.grid != spec.grid or phi0.grid != spec.grid:
        raise ValueError("grid mismatch")
    n = spec.grid.modes_per_axis
    times = np.linspace(0.0, spec.T, max(32, 4 * n))
    mu = _mode_energies(spec.grid)
    d = np.subtract.outer(mu, mu)
    degenerate = d == 0.0
    w_mat = window_mode_matrix(spec.window)
    b = np.where(degenerate, w_mat, 0.0)
    a = np.where(degenerate, 0.0, w_mat / (1j * np.where(degenerate, 1.0, d)))

    # axes (k_1, t, k_2); the k_2 phase of exp(i t Lap) changes no mass.  One
    # array, updated in place, holds S(t) phi, then u(t), then u(x_1, t)
    phi = phi0.coeffs.reshape(n, -1)
    free = np.exp(-1j * np.outer(mu, times))[:, :, None]
    states = (a @ (free * phi[:, None]).reshape(n, -1)).reshape(n, len(times), -1)
    states *= free.conj()
    states -= (a @ phi)[:, None]
    states += (b @ phi)[:, None] * times[:, None]
    states *= -1j
    states += u0.coeffs.reshape(n, 1, -1)
    states *= free

    mass = np.sum(np.abs(states) ** 2, axis=(0, 2))
    states = np.fft.ifft(states, axis=0, norm="forward")
    chi2 = spec.window.samples.reshape(n, 1, -1)[..., :1] ** 2  # x_1 profile
    observed = np.sum(chi2 * np.abs(states) ** 2, axis=(0, 2)) / n
    record = TrajectoryRecord(times=times, mass=mass, observed_mass=observed)
    return record, float(np.sqrt(mass[-1]))


def hum_regularity_ratio(spec: GramianSpec, s: float, n_samples: int,
                         rng: np.random.Generator) -> dict:
    """H^s amplification statistics of S^{-1} over random unit-H^s data.

    Draws n_samples states with H^s norm 1, solves S phi0 = psi0, and
    reports the max and mean of ||phi0||_{H^s}.  Requires s >= 0 and a
    smooth window for the bounded-in-N contract to make sense.
    """
    if s < 0.0:
        raise ValueError("s must be >= 0")
    grid = spec.grid
    if grid.dim != 1:
        raise ValueError("regularity study uses the dense 1D Gramian")
    # Sample from an N-stable Gaussian measure on the unit H^s sphere:
    # coefficients ~ g_k * (1+|2 pi k|^2)^{-(s+1)/2}.  The extra decay
    # makes the tail summable, so refining the grid only appends
    # negligible modes and the statistic can converge in N.
    g = rng.standard_normal((n_samples, 2) + grid.shape)
    psi0 = (g[:, 0] + 1j * g[:, 1]) * sobolev_weights(grid, -(s + 1.0))
    weights = sobolev_weights(grid, s)
    psi0 /= np.linalg.norm(psi0 * weights, axis=1, keepdims=True)
    phi0 = _solve(_cholesky(dense_gramian(spec), spec), psi0.T).T
    ratios = np.linalg.norm(phi0 * weights, axis=1)
    return {"max": float(ratios.max()), "mean": float(ratios.mean()),
            "ratios": ratios, "s": s, "n_samples": n_samples}
