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

The same closed form with the midpoint sum in place of the time integral
(`dense_gramian(spec, n_steps)`) is the Gramian of the NLS stepper's own
midpoint source; `local_control_nls` assembles and Cholesky-factors it once.

The matrix-free time quadrature (exact propagation between nodes) is kept
only as an independent oracle that owns its nodes: `quadrature_gramian`
takes the node count and rule, by default the resolved_n_quad
Gauss-Legendre nodes that `apply_gramian` and `lambda_min_iterative` use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, eigh
from scipy.sparse.linalg import LinearOperator, cg, eigsh
from scipy.special import roots_legendre

from .grid import FourierState, GridSpec, state_from_physical
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


@lru_cache(maxsize=32)
def _legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    # scipy's routine is much faster than numpy's for large n, and the
    # resolved node counts run into the thousands
    return roots_legendre(n)


def quadrature_nodes(T: float, n: int, rule: str) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the time quadrature on [0, T]."""
    if rule == "gauss-legendre":
        x, w = _legendre_nodes(n)
        return 0.5 * T * (x + 1.0), 0.5 * T * w
    if rule == "trapezoid":
        w = np.full(n, T / (n - 1))
        w[[0, -1]] /= 2.0
        return np.linspace(0.0, T, n), w
    if rule == "midpoint":
        h = T / n
        return (np.arange(n) + 0.5) * h, np.full(n, h)
    raise ValueError(f"unknown quadrature rule {rule!r}")


def resolved_n_quad(grid: GridSpec, T: float, margin: float = 1.25,
                    floor: int = 64) -> int:
    """Node count resolving every oscillation of the Gramian integrand.

    Mode-pair phase differences reach mu_max = (2*pi*N/2)^2 (times dim in
    2D); Gauss-Legendre resolves frequency delta once n exceeds about
    delta*T/2, after which convergence is spectral.
    """
    k_max = grid.modes_per_axis // 2
    mu_max = grid.dim * (2.0 * np.pi * k_max) ** 2
    return int(np.ceil(margin * mu_max * T / 2.0)) + floor


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


def apply_gramian(spec: GramianSpec, phi0: FourierState) -> FourierState:
    """Quadrature approximation of S phi0 on resolved_n_quad nodes (see
    _GramianApplier for the DenseSizeError ceiling)."""
    if phi0.grid != spec.grid:
        raise ValueError("grid mismatch between state and Gramian spec")
    out = _GramianApplier(spec).apply_one(phi0.coeffs)
    return FourierState(spec.grid, out)


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
    n = window.grid.modes_per_axis
    c = np.fft.fft(window.samples.reshape(n, -1)[:, 0] ** 2) / n
    return c[np.subtract.outer(np.arange(n), np.arange(n)) % n]


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


def _time_kernel(w: np.ndarray, mu: np.ndarray, T: float, n_steps) -> np.ndarray:
    """W * K for mode energies mu, in place over the mode matrix w, symmetrized.

    With d = mu_a - mu_b and x = d*T/2, the exact integral is
    K = int_0^T exp(i*d*t) dt = exp(i*x) * T * sinc(x), sinc(y) = sin(y)/y.
    Given n_steps, K is the midpoint sum h * sum_j exp(i*d*t_j),
    t_j = (j + 1/2)*h, h = T/n: exp(i*x) * h * sin(n*th)/sin(th), th = x/n,
    the linear part of the NLS stepper's controlled solve.  Reducing
    th = m*pi + r, |r| <= pi/2, gives (-1)^(m*(n-1)) * n * sinc(n*r)/sinc(r),
    finite where th is a nonzero multiple of pi.
    """
    x = np.subtract.outer(mu, mu) * (T / 2.0)
    w *= np.exp(1j * x)
    if n_steps is None:
        w *= T * np.sinc(x / np.pi)
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
    """Smallest eigenvalue of the exact-time dense Gramian."""
    s = dense_gramian(spec)
    return float(eigh(s, eigvals_only=True, subset_by_index=[0, 0])[0])


def lambda_min_iterative(spec: GramianSpec, tol: float = 1e-10) -> float:
    """Smallest Gramian eigenvalue via Lanczos on S^{-1} applied
    matrix-free (inner solves by CG on the oracle's quadrature operator on
    resolved_n_quad nodes; see _GramianApplier for its ceiling)."""
    n, shape = spec.grid.n_points, spec.grid.shape
    applier = _GramianApplier(spec)
    op = LinearOperator((n, n), dtype=complex,
                        matvec=lambda x: applier.apply_one(x.reshape(shape)).ravel())
    inner_iters = max(200, 10 * n)

    def inv_matvec(b):
        # CG terminates in at most dim iterations in exact arithmetic;
        # the loose cap only guards against rounding stalls.
        x, _ = cg(op, b, rtol=1e-12, atol=0.0, maxiter=inner_iters)
        return x

    opinv = LinearOperator(op.shape, matvec=inv_matvec, dtype=complex)
    vals = eigsh(opinv, k=1, which="LA", tol=tol, return_eigenvectors=False,
                 maxiter=2000)
    top = float(vals[0].real)
    if top <= 0.0:
        raise GramianSingularError("inverse iteration produced a nonpositive eigenvalue")
    return 1.0 / top


def observability_constant(spec: GramianSpec) -> float:
    """Observability constant C_T = 1 / lambda_min(S) at this truncation,
    from the exact-time dense Gramian (a 2D strip has the 1D C_T).  A
    lambda_min below CONDITIONING_FLOOR raises GramianSingularError."""
    return _floored_inverse(lambda_min_dense(spec), spec)


def _floored_inverse(lam_min: float, spec: GramianSpec) -> float:
    grid = spec.grid
    if lam_min < CONDITIONING_FLOOR:
        raise GramianSingularError(
            f"lambda_min = {lam_min:.3e} below conditioning floor; observability "
            f"numerically void at N={grid.modes_per_axis} ({grid.dim}D), T={spec.T}")
    return 1.0 / lam_min


def _cholesky(s_mat: np.ndarray, spec: GramianSpec):
    try:
        return cho_factor(s_mat)
    except LinAlgError as exc:
        raise GramianSingularError(
            f"Gramian not numerically positive definite at "
            f"N={spec.grid.modes_per_axis} ({spec.grid.dim}D), T={spec.T}: {exc}"
        ) from exc


def solve_hum(spec: GramianSpec, target: FourierState,
              tol: float = 1e-8) -> ControlSolution:
    """HUM minimizer phi0 driving `target` to zero at time T.

    Solves S phi0 = -i * target with one Cholesky factorization of the
    exact-time Gramian.  With the control source chi^2 exp(i*t*Lap) phi0 the
    Duhamel formula gives u(T) = exp(i*T*Lap) (u0 - i S phi0), so the
    closed-loop final mass is ||target - i S phi0||; a residual above
    tol * ||target|| raises HUMConvergenceError.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if target.grid != spec.grid:
        raise ValueError("grid mismatch between target and Gramian spec")
    s_mat = dense_gramian(spec)
    u0 = target.coeffs.reshape(len(s_mat), -1)
    phi = cho_solve(_cholesky(s_mat, spec), -1j * u0)
    residual = float(np.linalg.norm(u0 - 1j * (s_mat @ phi)))
    if residual > tol * target.norm_l2():
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
    from .operators import free_propagate

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

    # axes (k_1, t, k_2); the k_2 phase of exp(i t Lap) changes no mass
    phi = phi0.coeffs.reshape(n, -1)
    free = np.exp(-1j * np.outer(mu, times))[:, :, None]
    a_free = (a @ (free * phi[:, None]).reshape(n, -1)).reshape(n, len(times), -1)
    s_phi = (free.conj() * a_free - (a @ phi)[:, None]
             + (b @ phi)[:, None] * times[:, None])
    states = free * (u0.coeffs.reshape(n, 1, -1) - 1j * s_phi)

    phys = np.fft.ifft(states, axis=0) * n
    mass = np.sum(np.abs(states) ** 2, axis=(0, 2))
    chi2 = spec.window.samples.reshape(n, 1, -1)[..., :1] ** 2  # x_1 profile
    observed = np.sum(chi2 * np.abs(phys) ** 2, axis=(0, 2)) / n
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
    from .operators import sobolev_weights

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
    phi0 = cho_solve(_cholesky(dense_gramian(spec), spec), psi0.T).T
    ratios = np.linalg.norm(phi0 * weights, axis=1)
    return {"max": float(ratios.max()), "mean": float(ratios.mean()),
            "ratios": ratios, "s": s, "n_samples": n_samples}
