"""HUM Gramian, observability constants, and exact control synthesis.

The control Gramian is

    S phi0 = integral_0^T exp(-i*t*Lap) chi^2 exp(i*t*Lap) phi0 dt,

a self-adjoint nonnegative operator; it is positive (and invertible)
exactly when the window observes every truncated mode.  The smallest
eigenvalue gives the observability constant C_T = 1 / lambda_min(S).

The production path is exact in time, in 1D and 2D: the dense Gramian
S_ab = W_ab * int_0^T exp(i*(mu_a - mu_b)*t) dt, with W the
(block-)circulant mode matrix of chi^2 and the pure-phase time integral
done in closed form.  C_T, the HUM solve (one Cholesky factorization) and
the closed-loop trajectory of `drive_linear` all use it.

The same closed form with the midpoint sum in place of the time integral
is the Gramian of the NLS stepper's own midpoint source;
`local_control_nls` assembles and Cholesky-factors it once.

The matrix-free time quadrature (Gauss-Legendre / trapezoid / midpoint
nodes, exact propagation between nodes) is kept only as an independent
oracle: `dense_gramian(..., exact_time=False)`, `apply_gramian`, and the
shift-invert Lanczos of `lambda_min_iterative`.
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

#: Largest mode count (N**dim) the dense Gramian is assembled for: one
#: complex matrix then takes 64 MB.
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
    """The grid has more modes than the dense Gramian is assembled for."""


@dataclass(frozen=True)
class GramianSpec:
    """Horizon, window and time-quadrature rule defining the HUM operator."""

    T: float
    window: CutoffWindow
    n_quad: int | None = None
    quad_rule: str = "gauss-legendre"

    def __post_init__(self):
        if not 0.0 < self.T < np.inf:
            raise ValueError("T must be positive and finite")
        if self.quad_rule not in ("gauss-legendre", "trapezoid", "midpoint"):
            raise ValueError(f"unknown quadrature rule {self.quad_rule!r}")
        if self.n_quad is None:
            object.__setattr__(self, "n_quad", max(32, 4 * self.window.grid.modes_per_axis))
        if self.n_quad < 2:
            raise ValueError("n_quad must be >= 2")

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
        t = np.linspace(0.0, T, n)
        h = T / (n - 1)
        w = np.full(n, h)
        w[0] = w[-1] = h / 2.0
        return t, w
    if rule == "midpoint":
        h = T / n
        return (np.arange(n) + 0.5) * h, np.full(n, h)
    raise ValueError(rule)


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
    """Matrix-free quadrature Gramian with precomputed node phases."""

    def __init__(self, spec: GramianSpec):
        self.spec = spec
        grid = spec.grid
        self.grid = grid
        self.fft_axes = tuple(range(-grid.dim, 0))
        self.chi2 = spec.window.samples ** 2
        lam = grid.laplacian_symbol()
        t, w = quadrature_nodes(spec.T, spec.n_quad, spec.quad_rule)
        self.weights = w
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
    """Quadrature approximation of S phi0."""
    if phi0.grid != spec.grid:
        raise ValueError("grid mismatch between state and Gramian spec")
    out = _GramianApplier(spec).apply_one(phi0.coeffs)
    return FourierState(spec.grid, out)


def check_dense_size(grid: GridSpec) -> None:
    """Refuse grids whose dense mode-space matrices exceed MAX_DENSE_POINTS."""
    if grid.n_points > MAX_DENSE_POINTS:
        raise DenseSizeError(
            f"N = {grid.modes_per_axis} in {grid.dim}D gives {grid.n_points} "
            f"modes; dense Gramians are limited to {MAX_DENSE_POINTS}")


def window_mode_matrix(window: CutoffWindow) -> np.ndarray:
    """Mode-space matrix of multiplication by chi^2: the (block-)circulant
    W_ab = (chi^2)^(k_a - k_b), indexed by the per-axis mode difference
    (aliased onto the grid), on flattened FFT-order coefficients."""
    grid = window.grid
    check_dense_size(grid)
    c = np.fft.fftn(window.samples ** 2) / grid.n_points
    n = grid.modes_per_axis
    diff = np.subtract.outer(np.arange(n), np.arange(n)) % n
    if grid.dim == 1:
        w = c[diff]
    else:
        w = c[diff[:, None, :, None], diff[None, :, None, :]]
    return w.reshape(grid.n_points, grid.n_points)


def _mode_energies(grid: GridSpec) -> np.ndarray:
    """mu = -Lap symbol = |2 pi k|^2 on flattened FFT-order coefficients."""
    return -grid.laplacian_symbol().ravel()


def _quadrature_gramian(spec: GramianSpec) -> np.ndarray:
    """Quadrature Gramian assembled column by column from the matrix-free
    applier, a few nodes at a time so each transformed block stays small."""
    n = spec.grid.n_points
    basis = np.eye(n, dtype=complex).reshape((n,) + spec.grid.shape)
    chunk = max(1, _ORACLE_BLOCK // (n * n))
    cols = _GramianApplier(spec).apply_batch(basis, chunk=chunk)
    return cols.reshape(n, n).T


def _closed_form_gramian(spec: GramianSpec,
                         n_steps: int | None = None) -> np.ndarray:
    """S = W * K, Hermitian-symmetrized, with the time kernel K in closed
    form; the size guard runs before any n_points x n_points allocation.

    With d = mu_a - mu_b and x = d*T/2, the exact integral is
    K = int_0^T exp(i*d*t) dt = exp(i*x) * T * sinc(x), sinc(y) = sin(y)/y.
    Given n_steps, K is the midpoint sum h * sum_j exp(i*d*t_j),
    t_j = (j + 1/2)*h, h = T/n: exp(i*x) * h * sin(n*th)/sin(th), th = x/n,
    the linear part of the NLS stepper's controlled solve.  Reducing
    th = m*pi + r, |r| <= pi/2, gives (-1)^(m*(n-1)) * n * sinc(n*r)/sinc(r),
    finite where th is a nonzero multiple of pi.
    """
    check_dense_size(spec.grid)
    mu = _mode_energies(spec.grid)
    x = np.subtract.outer(mu, mu) * (spec.T / 2.0)
    s = window_mode_matrix(spec.window)
    s *= np.exp(1j * x)
    if n_steps is None:
        s *= spec.T * np.sinc(x / np.pi)
    else:
        x /= n_steps
        m = np.rint(x / np.pi)
        x -= m * np.pi
        s *= np.where(m * (n_steps - 1) % 2, -spec.T, spec.T)
        s *= np.sinc(n_steps * x / np.pi) / np.sinc(x / np.pi)
    return 0.5 * (s + s.conj().T)


def dense_gramian(spec: GramianSpec, exact_time: bool = True) -> np.ndarray:
    """Dense Gramian matrix in mode space, on flattened coefficients (1D or 2D).

    With exact_time=True each entry's time integral is evaluated in closed
    form: S_ab = W_ab * int_0^T exp(i*(mu_a - mu_b)*t) dt with mu = |2*pi*k|^2.
    Otherwise the matrix-free quadrature operator is applied to every basis
    vector (the oracle for convergence checks).  Grids with more than
    MAX_DENSE_POINTS modes raise DenseSizeError before any allocation.
    """
    if exact_time:
        return _closed_form_gramian(spec)
    check_dense_size(spec.grid)
    s = _quadrature_gramian(spec)
    return 0.5 * (s + s.conj().T)


def lambda_min_dense(spec: GramianSpec, exact_time: bool = True) -> float:
    """Smallest eigenvalue of the densely assembled Gramian."""
    s = dense_gramian(spec, exact_time=exact_time)
    return float(eigh(s, eigvals_only=True, subset_by_index=[0, 0])[0])


def lambda_min_iterative(spec: GramianSpec, tol: float = 1e-10) -> float:
    """Smallest Gramian eigenvalue via Lanczos on S^{-1} applied
    matrix-free (inner solves by CG on the quadrature operator)."""
    n = spec.grid.n_points
    shape = spec.grid.shape
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
    from the exact-time dense Gramian (1D or 2D, up to MAX_DENSE_POINTS
    modes).  A lambda_min below CONDITIONING_FLOOR raises
    GramianSingularError.
    """
    lam_min = lambda_min_dense(spec)
    if lam_min < CONDITIONING_FLOOR:
        grid = spec.grid
        raise GramianSingularError(
            f"lambda_min = {lam_min:.3e} below conditioning floor; observability "
            f"numerically void at N={grid.modes_per_axis} ({grid.dim}D), T={spec.T}"
        )
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
    u0 = target.coeffs.ravel()
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

    so every sample comes from one matrix product.  The samples sit at 0,
    the spec's quadrature nodes and T; the nodes only place them.  Returns
    the sampled trajectory and ||u(T)||_L2, the root of the last mass sample.
    """
    if u0.grid != spec.grid or phi0.grid != spec.grid:
        raise ValueError("grid mismatch")
    grid = spec.grid
    t_nodes, _ = quadrature_nodes(spec.T, spec.n_quad, spec.quad_rule)
    times = np.concatenate(([0.0], t_nodes, [spec.T]))
    mu = _mode_energies(grid)
    d = np.subtract.outer(mu, mu)
    degenerate = d == 0.0
    w_mat = window_mode_matrix(spec.window)
    b = np.where(degenerate, w_mat, 0.0)
    a = np.where(degenerate, 0.0, w_mat / (1j * np.where(degenerate, 1.0, d)))

    phi = phi0.coeffs.ravel()
    free = np.exp(-1j * np.outer(mu, times))  # exp(i t Lap), one column per t
    s_phi = (free.conj() * (a @ (free * phi[:, None]))
             - (a @ phi)[:, None] + np.outer(b @ phi, times))
    states = (free * (u0.coeffs.ravel()[:, None] - 1j * s_phi)).T
    states = states.reshape((len(times),) + grid.shape)

    axes = tuple(range(1, grid.dim + 1))
    phys = np.fft.ifftn(states, axes=axes) * grid.n_points
    mass = np.sum(np.abs(states) ** 2, axis=axes)
    observed = np.sum(spec.window.samples ** 2 * np.abs(phys) ** 2,
                      axis=axes) / grid.n_points
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
    from .operators import sobolev_norm, sobolev_weights

    if spec.grid.dim != 1:
        raise ValueError("regularity study uses the dense 1D Gramian")
    # Sample from an N-stable Gaussian measure on the unit H^s sphere:
    # coefficients ~ g_k * (1+|2 pi k|^2)^{-(s+1)/2}.  The extra decay
    # makes the tail summable, so refining the grid only appends
    # negligible modes and the statistic can converge in N.
    decay = sobolev_weights(spec.grid, -(s + 1.0))
    factor = _cholesky(dense_gramian(spec), spec)
    ratios = []
    for _ in range(n_samples):
        g = rng.standard_normal(spec.grid.shape) + 1j * rng.standard_normal(
            spec.grid.shape)
        psi0 = FourierState(spec.grid, g * decay)
        psi0 = psi0 * (1.0 / sobolev_norm(psi0, s))
        phi0 = FourierState(spec.grid, cho_solve(factor, psi0.coeffs))
        ratios.append(sobolev_norm(phi0, s))
    ratios = np.array(ratios)
    return {"max": float(ratios.max()), "mean": float(ratios.mean()),
            "ratios": ratios, "s": s, "n_samples": n_samples}
